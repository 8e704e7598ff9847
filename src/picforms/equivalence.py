"""Deciding the relation between the divisor classes of two triples.

Two triples on one curve represent equal divisor classes exactly when a
proper orthogonal matrix carries one to the other.  The decision follows
the constructive route: after a quick Gram comparison (equal or conjugate
classes share the invariant exactly), the reduction move
(u + a^2 v - 2 a w, v, w - a v) is tried at the one parameter that can
match, then the plain swap (v, u, -w); both are repeated against the
conjugate of the target.  The verdict is one of

    equal | equal-and-self-conjugate | conjugate-only | distinct

and each positive verdict carries an explicit proper witness matrix that
is verified once (orthogonality and exact action) before it is returned.

Every class decision, here and in :mod:`picforms.galois`, goes through
one private entry, :func:`_records`: the match record of t1 onto t2, and
then, only when asked, that of t1 onto conj(t2).

``recover_transform`` is the constructive orbit statement for the full
orthogonal group, built from the same two match records: equal Gram
matrices put t2 in the orthogonal orbit of t1, proper matrices preserve
classes and the improper flip (u, v, w) -> (u, v, -w) sends a class to
its conjugate, so t2 is the image of t1 under a proper witness or under
the flip times a proper witness of t1 onto conj(t2).

The matching conditions are the minors of the reduced forms against one
nonzero coefficient of the target's u.  Every minor read has degree <= 1
in the parameter (the lemma at :func:`_parameter`), so the first one
that is not constant gives the one candidate, which lies in the triples'
own field over QQ and GF(q) alike.  The search returns a match record
holding the scale-and-shift normal-form parameters of the moved triple
and of the target; the witness is assembled from a record only when it
is returned (so it comes out over that field too), and callers that need
only the kind build none.  The search domain named by
``same_class(..., extension=...)`` is reported with the verdict but
cannot change it.

Values are raw from start to finish: ``same_class``, ``recover_transform``
and the Galois predicates read each triple's raw coefficient lists once
(``Triple._raw_forms``), and the Gram comparison, the normal forms, the
parameter, the reduced forms, the match record and the witness check all
run on raw values through the field's sum-of-products kernel and its
vector form, one call per new form or matrix row.
``FieldElement`` values are built only for the witness matrices that are
returned; every input and output at the API boundary is still a
``Triple``, an ``OrthogonalMatrix`` or a ``ClassRelation``.

The curve identity W^2 - U V = F spares two comparisons.  Two triples on
one curve have equal Gram matrices iff their entries (i, j) with
j >= i + 2 agree, since F fixes the rest of each antidiagonal (see
:func:`picforms.quadform._gram_upper`); that is 1, 3 and 6 entries in
genus 1, 2 and 3 instead of 6, 10 and 15.  And two normal forms are equal
iff their u and w agree, since u is monic and v = (w^2 - F) / u; so the
search never computes a normal-form v, and the normal forms of t2 and of
swap . t1 are computed once per decision.  The witness check still
compares all three forms.

``orbit_oracle`` is the independent brute-force check: it exhausts the
full enumerated proper group over a small field.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import GramMismatch, RationalsUnsupported, SearchExhausted, WitnessRejected
from .fields import Field, common_field, embed
from .linalg import _mat_mul_raw
from .ortho import (
    OrthogonalMatrix,
    _classify_raw,
    _reduction_rows,
    _swap_rows,
    _wrap_rows,
    enumerate_special_orthogonal,
    reduction_matrix,
    swap_matrix,
)
from .quadform import _gram_upper
from .triples import _canonical_forms, _normal_uw, act

KIND_EQUAL = "equal"
KIND_BOTH = "equal-and-self-conjugate"
KIND_CONJ = "conjugate-only"
KIND_DISTINCT = "distinct"


@dataclass(frozen=True)
class ClassRelation:
    kind: str
    witness: OrthogonalMatrix = None
    conjugate_witness: OrthogonalMatrix = None
    field: Field = None
    extension: int = 1

    @functools.cached_property
    def search_domain(self):
        """The field in the role of the algebraic closure, built on first
        read: the extension of relative degree ``extension`` over the
        triples' field, or the rationals themselves."""
        if self.field.p is None:
            return self.field
        return self.field.extension(self.extension)


def reduction_step(t, a):
    """act(reduction_matrix(a), t).

    The reduced u never vanishes on a valid triple: that would make
    F = (w - a v)^2, which is not squarefree (see :func:`_parameter`).
    """
    field = t.field
    a = field.elem(a) if not hasattr(a, "field") else embed(a, field)
    return act(reduction_matrix(a), t)


def swap_step(t):
    """act(swap_matrix, t) = (v, u, -w)."""
    return act(swap_matrix(t.field), t)


# -- the parameter solver ---------------------------------------------------------
#
# Everything below works on raw values: a triple enters as the tuple of its
# three raw coefficient lists, read once, and FieldElements are built only
# for the witness matrices that are returned.

def _reduced_forms(field, u, v, w, a):
    """(u + a^2 v - 2 a w, v, w - a v), one vector-kernel call per new form."""
    comb, neg = field._raw_comb, field._raw_neg
    one = field._one.value
    a2, a_2 = field._raw_mul(a, a), field._raw_add(a, a)
    return comb((one, a2, neg(a_2)), (u, v, w)), v, comb((one, neg(a)), (w, v))


def _witness_from(record, flip=False):
    """The proper witness behind a match record, verified once; with
    ``flip``, the flip (u, v, w) -> (u, v, -w) times it.

    In the record (field, move, t1, t2, c, b, c2, b2) of :func:`_match`,
    (c, b) and (c2, b2) are the normal-form parameters of move . t1 and of
    t2: canonicalising applies shift(b) scale(1/c), and shifts compose
    additively, so the witness is scale(c2) shift(b - b2) scale(1/c) @ move.
    It is checked on raw rows to be proper and to map t1 to t2 exactly;
    only the returned matrix is built from field elements.
    """
    field, move, t1, t2, c, b, c2, b2 = record
    mul, neg = field._raw_mul, field._raw_neg
    zero, one = field._zero.value, field._one.value
    ci, c2i = field._raw_inv(c), field._raw_inv(c2)
    d = field._raw_sub(b, b2)
    undo = ((mul(c2, ci), zero, zero),
            (mul(mul(mul(d, d), ci), c2i), mul(c, c2i), neg(mul(field._raw_add(d, d), c2i))),
            (neg(mul(d, ci)), zero, one))
    rows = _mat_mul_raw(field, undo, move)
    if _classify_raw(field, rows) != "proper":
        raise WitnessRejected("the assembled witness is not proper")
    if _mat_mul_raw(field, rows, t1) != t2:
        raise WitnessRejected("the assembled witness does not carry t1 onto t2")
    if flip:
        rows = (rows[0], rows[1], [neg(x) for x in rows[2]])
    return _wrap_rows(field, rows, not flip)


def _negated(field, form):
    return field._raw_comb((field._raw_neg(field._one.value),), (form,))


def _conjugate(field, forms):
    """The raw forms of conj(t), (u, v, -w)."""
    u, v, w = forms
    return u, v, _negated(field, w)


def _match(field, t1, t2, target, swapped):
    """The match record of a proper move carrying the raw forms t1 onto
    t2's representation orbit, or None.

    The record is (field, move, t1, t2, c, b, c2, b2), with the raw move
    and the normal-form parameters that :func:`_witness_from` turns into a
    verified witness.  ``target`` is t2's normal form and ``swapped`` that
    of swap . t1 (see :func:`_records`).
    The only reduction parameter that can match comes from
    :func:`_parameter`; after it the plain swap is tried.

    Normal forms are compared on (u', w') alone: on one curve u' is monic
    and v' = (w'^2 - F) / u', so v' is never computed here.
    """
    u2, w2, c2, b2 = target
    a = _parameter(field, t1, t2)
    if a is not None:
        u, _, w = _reduced_forms(field, *t1, a)
        u, w, c, b = _normal_uw(field, u, w)
        if u == u2 and w == w2:
            return field, _reduction_rows(field, a), t1, t2, c, b, c2, b2
    u, w, c, b = swapped
    if u == u2 and w == w2:
        return field, _swap_rows(field), t1, t2, c, b, c2, b2
    return None


def _records(field, r1, r2):
    """The match records (or None) of the raw forms r1 onto r2 and then,
    computed only when asked for, onto conj(r2).  The normal form of
    conj(t2) is t2's with the shifted w and the shift negated."""
    target = _normal_uw(field, r2[0], r2[2])
    swapped = _normal_uw(field, r1[1], _negated(field, r1[2]))
    yield _match(field, r1, r2, target, swapped)
    u, w, c, b = target
    yield _match(field, r1, _conjugate(field, r2),
                 (u, _negated(field, w), c, field._raw_neg(b)), swapped)


def _parameter(field, t1, t2):
    """The one reduction parameter that can carry the raw forms t1 onto
    t2's representation orbit, as a raw value, or None when no parameter
    can.

    A match needs U1 + a^2 V1 - 2 a W1 and W1 - a V1 - W2 to be multiples
    of U2.  For an index k with U2_k != 0, a form f is a multiple of U2
    iff its n - 1 minors f_i U2_k - f_k U2_i (i != k) vanish, so these
    minors are the whole constraint.  The first minor with a nonzero
    a-coefficient gives the candidate a = -c0 / c1; a nonzero constant
    minor rules every parameter out.

    Lemma.  The linear minors (of W1 - W2 - a V1) are scanned first.  If
    they all vanish, V1 = lambda U2 and W1 - W2 = mu U2, so the a^2 term
    of the quadratic minor i, lambda (U2_i U2_k - U2_k U2_i), is 0, and
    every minor has degree <= 1.  If all minors vanished, U1, V1 and W1
    would all be multiples of U2 (the a-term of the quadratic minor i is
    -2 (W1_i U2_k - W1_k U2_i), and 2 is a unit in odd characteristic),
    and F = W1^2 - U1 V1 would be a constant times U2^2, which is not
    squarefree.  Hence the one possible parameter lies in the triples' own
    field, and no search domain beyond it can add a match.  (The reduced u
    never vanishes either: that would make F = (w - a v)^2.)

    The candidate is the root of the gcd g of all O(n^2) minors whenever
    g has degree 1, since every minor is a multiple of g.  When g has
    degree 0 the candidate fails the normal-form comparison, because
    equal normal forms make every minor vanish.
    """
    dot = field._raw_dot
    zero = field._zero.value
    U1, V1, W1 = t1
    U2, _, W2 = t2
    k = next(i for i, x in enumerate(U2) if x != zero)
    uk = U2[k]
    others = [i for i in range(len(U2)) if i != k]

    def root(c0, c1):
        return field._raw_neg(field._raw_mul(c0, field._raw_inv(c1)))

    dk = field._raw_sub(W1[k], W2[k])
    for i in others:
        c0 = dot((W1[i],), (uk,), (W2[i], dk), (uk, U2[i]))
        c1 = dot((V1[k],), (U2[i],), (V1[i],), (uk,))
        if c1 != zero:
            return root(c0, c1)
        if c0 != zero:
            return None
    for i in others:
        c0 = dot((U1[i],), (uk,), (U1[k],), (U2[i],))
        c1 = dot((W1[k], W1[k]), (U2[i], U2[i]), (W1[i], W1[i]), (uk, uk))
        if c1 != zero:
            return root(c0, c1)
        if c0 != zero:
            return None
    # excluded by the lemma; reported rather than guessed
    raise SearchExhausted("constraint minors vanished identically")


def _on_common_field(t1, t2):
    """t1 and t2 over their common field; they must lie on one curve."""
    if t1.curve != t2.curve:
        raise ValueError("the triples live on different curves")
    if t1.field != t2.field:
        field = common_field(t1.field, t2.field)
        t1, t2 = t1.embedded(field), t2.embedded(field)
    return t1, t2


def same_class(t1, t2, extension=2):
    """The relation between the divisor classes of t1 and t2.

    ``extension`` names the search domain reported with the verdict (the
    extension of that relative degree over the triples' common field, or
    the rationals themselves), which is built only when it is read.
    Verdicts and witnesses do not depend on it: the matching reduction
    parameter always lies in the triples' own field (see
    :func:`_parameter`), so witnesses come out over that field.
    """
    t1, t2 = _on_common_field(t1, t2)
    field = t1.field
    if field.p is None and field.m > 1:
        raise RationalsUnsupported(
            "the class search takes triples over QQ or a finite field")
    r1, r2 = t1._raw_forms(), t2._raw_forms()
    if _gram_upper(field, *r1, 2) != _gram_upper(field, *r2, 2):
        return ClassRelation(KIND_DISTINCT, field=field, extension=extension)
    witness, conj_witness = (None if record is None else _witness_from(record)
                             for record in _records(field, r1, r2))
    if witness is not None and conj_witness is not None:
        kind = KIND_BOTH
    elif witness is not None:
        kind = KIND_EQUAL
    elif conj_witness is not None:
        kind = KIND_CONJ
    else:
        kind = KIND_DISTINCT
    return ClassRelation(kind, witness, conj_witness, field, extension)


def recover_transform(t1, t2):
    """A verified orthogonal matrix A with act(A, t1) = t2.

    Requires gram(t1) = gram(t2) exactly.  The result is the proper
    witness of t1 onto t2 when there is one, and otherwise the flip times
    the proper witness of t1 onto conj(t2); either way it lies over the
    triples' common field, and in rank 3 it is the unique such matrix.
    """
    t1, t2 = _on_common_field(t1, t2)
    field = t1.field
    r1, r2 = t1._raw_forms(), t2._raw_forms()
    if _gram_upper(field, *r1, 2) != _gram_upper(field, *r2, 2):
        raise GramMismatch("the triples have different Gram matrices")
    records = _records(field, r1, r2)
    record = next(records)
    if record is not None:
        return _witness_from(record)
    record = next(records)
    if record is None:
        # excluded: the Gram matrix is a complete invariant of the full orbit
        raise SearchExhausted("equal Gram matrices but neither orbit matched")
    return _witness_from(record, flip=True)


def orbit_oracle(t1, t2):
    """Exhaustive classification over the full enumerated proper group.

    Independent of the reduction search: every group element is applied
    directly.  Only for small finite fields.
    """
    t1, t2 = _on_common_field(t1, t2)
    field = t1.field
    group = enumerate_special_orthogonal(field)
    r1, r2 = t1._raw_forms(), t2._raw_forms()
    key2 = _canonical_forms(field, *r2)[0]
    key2c = _canonical_forms(field, *_conjugate(field, r2))[0]
    equal = False
    conj = False
    for m in group:
        rows = [field.values(row) for row in m.rows]
        key = _canonical_forms(field, *_mat_mul_raw(field, rows, r1))[0]
        if key == key2:
            equal = True
        if key == key2c:
            conj = True
        if equal and conj:
            break
    if equal and conj:
        return KIND_BOTH
    if equal:
        return KIND_EQUAL
    if conj:
        return KIND_CONJ
    return KIND_DISTINCT
