"""Deciding the relation between the divisor classes of two triples.

Two triples on one curve represent equal divisor classes exactly when a
proper orthogonal matrix carries one to the other.  The decision follows
the constructive route: the reduction move (u + a^2 v - 2 a w, v, w - a v)
is tried at the one parameter that can match, then the plain swap
(v, u, -w); both are repeated against the conjugate of the target.  The
verdict is one of

    equal | equal-and-self-conjugate | conjugate-only | distinct

and each positive verdict carries an explicit proper witness matrix that
is verified once (orthogonality and exact action) before it is returned.
Every class decision, here and in :mod:`picforms.galois`, goes through
one private entry, :func:`_records`: the match record of t1 onto t2, and
then, only when asked, that of t1 onto conj(t2).

``recover_transform`` builds the constructive orbit statement for the
full orthogonal group from the same two records: equal Gram matrices put
t2 in the orthogonal orbit of t1, and the improper flip (u, v, w) ->
(u, v, -w) sends a class to its conjugate, so t2 is the image of t1
under a proper witness or under the flip times one onto conj(t2).

A moved triple (u, v, w) matches t2 = (u2, v2, w2) when their
scale-and-shift normal forms agree: with k the top index of u2, c = u_k,
b = w_k, c2 = u2_k and b2 = w2_k, iff c != 0, c2 u - c u2 = 0 and
c2 (w - w2) - (b - b2) u2 = 0, since on one curve u and w fix
v = (w^2 - F) / u.  Each condition is one vector-kernel call on the
forms of t1 and t2 with the move written out, and the second runs only
when the first holds; no moved triple, normal form or inverse is
computed.  The reduction parameter is the root of the first
non-constant minor of these conditions, all of degree <= 1 in it (the
lemma at :func:`_parameter`), so it lies in the triples' own field over
QQ and GF(q) alike.  A match record holds (c, b) and (c2, b2); the
witness is assembled from it only when it is returned, over that field
too, and the search domain named by ``same_class(..., extension=...)``
is reported with the verdict but cannot change it.

``same_class`` takes two shortcuts.  A match forces equal Gram matrices
and the records decide completely, so one Gram entry, S_02, serves only
to turn most unrelated pairs away early (``recover_transform``, which
reports a mismatch, compares the entries with j >= i + 2, the whole
invariant on one curve; see :func:`picforms.quadform._gram_upper`).  And
when the first three columns of t1 have a nonzero determinant, only the
identity fixes t1, so after a proper A onto t2 the one matrix onto
conj(t2) is flip . A, which is improper: the conjugate search is skipped.

Values are raw from start to finish: every decision reads each triple's
raw coefficient lists once (``Triple._raw_forms``) and runs on the
field's sum-of-products kernel and its vector form; ``FieldElement``
values are built only for the witness matrices that are returned.

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
    _det_raw,
    _reduction_rows,
    _swap_rows,
    _wrap_rows,
    enumerate_special_orthogonal,
    reduction_matrix,
    swap_matrix,
)
from .quadform import _gram_upper
from .triples import _canonical_forms, act

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


# -- the match search, on raw values ----------------------------------------------

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


def _conjugate(field, forms):
    """The raw forms of conj(t), (u, v, -w)."""
    u, v, w = forms
    return u, v, field._raw_comb((field._raw_neg(field._one.value),), (w,))


def _match(field, t1, t2, k):
    """The match record of a proper move carrying the raw forms t1 onto
    t2's representation orbit, or None.

    The record is (field, move, t1, t2, c, b, c2, b2), with the raw move
    and the normal-form parameters that :func:`_witness_from` turns into a
    verified witness.  The only reduction parameter that can match comes
    from :func:`_parameter`; after it the plain swap is tried.  Each move
    is tested by the cross-multiplied conditions of the module docstring
    at k, the top index of U2, written out on the forms: the reduction's
    (u, w) is (U1 + a^2 V1 - 2 a W1, W1 - a V1) and the swap's (V1, -W1),
    whose w-condition is negated.
    """
    zero, one = field._zero.value, field._one.value
    dot, mul, add, neg = field._raw_dot, field._raw_mul, field._raw_add, field._raw_neg
    comb = field._raw_comb
    U1, V1, W1 = t1
    U2, _, W2 = t2
    c2, b2 = U2[k], W2[k]
    nil = [zero] * len(U1)
    a = _parameter(field, t1, t2)
    if a is not None:
        # the reduced u and w at k
        a2, two_a = mul(a, a), add(a, a)
        c = dot((one, a2), (U1[k], V1[k]), (two_a,), (W1[k],))
        b = dot((one,), (W1[k],), (a,), (V1[k],))
        ca = neg(mul(c2, a))
        if (c != zero
                and comb((c2, mul(c2, a2), add(ca, ca), neg(c)), (U1, V1, W1, U2)) == nil
                and comb((c2, ca, field._raw_sub(b2, b), neg(c2)), (W1, V1, U2, W2)) == nil):
            return field, _reduction_rows(field, a), t1, t2, c, b, c2, b2
    c, b = V1[k], neg(W1[k])
    if (c != zero and comb((c2, neg(c)), (V1, U2)) == nil
            and comb((c2, field._raw_sub(b, b2), c2), (W1, U2, W2)) == nil):
        return field, _swap_rows(field), t1, t2, c, b, c2, b2
    return None


def _records(field, r1, r2):
    """The match records (or None) of the raw forms r1 onto r2 and then,
    computed only when asked for, onto conj(r2), which has the same U2."""
    zero = field._zero.value
    U2 = r2[0]
    k = len(U2) - 1
    while U2[k] == zero:
        k -= 1
    yield _match(field, r1, r2, k)
    yield _match(field, r1, _conjugate(field, r2), k)


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
    # twice S_02, 2 w0 w2 - u0 v2 - u2 v0, turns most unrelated pairs away
    s1, s2 = (field._raw_dot((w[0], w[0]), (w[2], w[2]), (u[0], u[2]), (v[2], v[0]))
              for u, v, w in (r1, r2))
    if s1 != s2:
        return ClassRelation(KIND_DISTINCT, field=field, extension=extension)
    records = _records(field, r1, r2)
    record = next(records)
    witness = None if record is None else _witness_from(record)
    # rank 3 leaves no proper matrix onto conj(t2) once one goes onto t2
    rank3 = witness is not None and _det_raw(field, [f[:3] for f in r1]) != field._zero.value
    record = None if rank3 else next(records)
    conj_witness = None if record is None else _witness_from(record)
    if witness is None:
        kind = KIND_DISTINCT if conj_witness is None else KIND_CONJ
    else:
        kind = KIND_EQUAL if conj_witness is None else KIND_BOTH
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
