"""Deciding the relation between the divisor classes of two triples.

Two triples on one curve represent equal divisor classes exactly when a
proper orthogonal matrix carries one to the other.  The decision follows
the constructive route: the reduction move (u + a^2 v - 2 a w, v, w - a v)
is tried at the one parameter that can match, then the plain swap
(v, u, -w); both are repeated against the conjugate of the target.  The
verdict is one of

    equal | equal-and-self-conjugate | conjugate-only | distinct

and each positive verdict carries an explicit proper witness matrix that
is verified once (orthogonality, determinant, action) before it is returned.
Every class decision, here and in :mod:`picforms.galois`, goes through
one private entry, :func:`_records`: the match record of t1 onto t2 and
that of t1 onto conj(t2), each searched only when asked for.

``recover_transform`` builds the constructive orbit statement for the
full orthogonal group from the same two records: equal Gram matrices put
t2 in the orthogonal orbit of t1, and the improper flip (u, v, w) ->
(u, v, -w) sends a class to its conjugate, so t2 is the image of t1
under a proper witness or under the flip times one onto conj(t2).

A moved triple (u, v, w) matches t2 = (u2, v2, w2) when their
scale-and-shift normal forms agree: with k the top index of u2, c = u_k,
b = w_k, c2 = u2_k and b2 = w2_k, iff c != 0, c2 u - c u2 = 0 and
c2 (w - w2) - (b - b2) u2 = 0, since on one curve u and w fix
v = (w^2 - F) / u.  Each condition is one pass over the forms of t1 and
t2 with the move written out, and the second runs only
when the first holds; no moved triple or normal form is computed.  The
reduction parameter is the root a = -c0 / c1 of the first non-constant
minor c0 + c1 a of these conditions, all of degree <= 1 in it (the lemma
at :func:`_parameter`), so it lies in the triples' own field over QQ and
GF(q) alike, and the search domain named by
``same_class(..., extension=...)`` is reported with the verdict but
cannot change it.

The decision is division-free.  The parameter stays the pair (c0, c1),
and the move is the reduction matrix homogenised by s = c1^2, rows
(s, c0^2, 2 c0 c1), (0, s, 0) and (0, c0 c1, s) (the swap has s = 1);
the conditions are tested on s (u, w).  A match record holds s, the
moved c, d = b - s b2 and c2, and :func:`_witness_from` writes the
witness out in closed form as e R, e = s^2 c c2, only when it is
returned.  One inverse of e turns it into R.

Over QQ both triples are first multiplied by one common denominator D.
The action is linear, so this changes neither the verdict nor the
witness, and the whole decision runs on the integer kernel
:data:`picforms.fields.ZZ` (the GF(p) sums without the reduction mod p):
no ``Fraction`` is built until the returned entries (e R)_ij / e, which
are checked exactly beforehand, through (e R)^T Omega (e R) = e^2 Omega,
det(e R) = e^3 and (e R) t1 = e t2.

``same_class`` takes two shortcuts.  A match forces equal Gram matrices
and the records decide completely, so one Gram entry, twice S_02, serves
only to turn most unrelated pairs away early (``recover_transform``,
which reports a mismatch, compares twice the entries with j >= i + 2,
the whole invariant on one curve; see
:func:`picforms.quadform._twice_gram`).  And the sign rule picks the
searches before any runs.  Let delta be the determinant of the first
three columns of a triple's coefficient matrix T; act(R, t) has matrix
R T, so delta(R t) = det R delta(t).  A proper witness onto t2 needs
delta2 = delta1, and one onto conj(t2), whose delta is -delta2, needs
delta2 = -delta1.  So the direct search runs only when delta2 = delta1,
and the conjugate one only when delta2 = -delta1.  If delta1 != 0 the
two exclude each other; delta1 = delta2 = 0 runs both, and any other
delta2 neither ("distinct": with delta1 = 0 != delta2 no witness can
exist, since delta(R t1) = det R * 0).
Over QQ one D clears both triples, so both minors scale by D^3.
``recover_transform`` does the same.

Values are raw from start to finish: every decision reads each triple's
raw coefficient lists once (``Triple._raw_forms``).  On GF(p) and the
integers the search (:func:`_match_int`, :func:`_parameter_int`) and
the certificate (:func:`_certify_int`) run in inline int arithmetic,
reduced mod p over GF(p) and exact over the integers; over GF(p^m),
m >= 2, they run on the field's sum-of-products kernel and its vector
form.  ``FieldElement`` values are built only for the witnesses returned.

``orbit_oracle`` is the independent brute-force check: it exhausts the
full enumerated proper group over a small field.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import GramMismatch, RationalsUnsupported, SearchExhausted, WitnessRejected
from .fields import QQ, ZZ, Field, FieldElement, _cleared, common_field, embed
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
from .quadform import _twice_gram
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

    In the record (kernel, move, t1, t2, s, c, d, c2) of :func:`_match`,
    the move is s times a proper matrix M, (c, b) are the normal-form
    parameters of move . t1, c2 and b2 those of t2, and d = b - s b2.
    Canonicalising applies shift(b) scale(1/c), and shifts compose
    additively, so the witness is
    R = scale(c2) shift(b / s - b2) scale(s / c) . M.  Written out,
    e R = undo . move with e = s^2 c c2 and

        undo = ((s^2 c2^2, 0, 0), (d^2, c^2, -2 d c), (-d s c2, 0, s c c2)),

    with no division.  Int-valued kernels, GF(p) and the integers, take
    :func:`_certify_int`; GF(p^m), m >= 2, takes :func:`_certify_vector`.
    """
    if type(record[4]) is int:
        return _certify_int(record, flip)
    return _certify_vector(record, flip)


def _det3(rows, p):
    """The determinant of a 3x3 matrix of ints, reduced mod p unless p is None."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    d = a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)
    return d % p if p else d


def _certify_int(record, flip=False):
    """:func:`_witness_from` on GF(p) or the integer kernel, in inline int
    arithmetic, reduced mod p over GF(p) and exact over the integers.

    A = e R is checked for e != 0, A^T Omega A = e^2 Omega (six entries,
    the diagonal ones halved), det A = e^3 and A t1 = e t2, which over
    GF(p) is the check of R itself.  Each returned entry is A_ij / e: the
    residue A_ij e^-1 over GF(p), the rational A_ij / e over the integers.
    """
    kernel, move, t1, t2, s, c, d, c2 = record
    p, sc2 = kernel.p, s * c2
    x0, x1, x2, x3, x4, x5 = sc2 * sc2, d * d, c * c, -2 * d * c, -d * sc2, c * sc2
    e = x5 * s
    if p:
        x0, x1, x2, x3, x4, x5, e = x0 % p, x1 % p, x2 % p, x3 % p, x4 % p, x5 % p, e % p
    # A = undo . move, for undo = ((x0, 0, 0), (x1, x2, x3), (x4, 0, x5))
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = move
    rows = ((a0, a1, a2), (b0, b1, b2), (c0, c1, c2)) = (
        (x0 * m00, x0 * m01, x0 * m02),
        (x1 * m00 + x2 * m10 + x3 * m20, x1 * m01 + x2 * m11 + x3 * m21,
         x1 * m02 + x2 * m12 + x3 * m22),
        (x4 * m00 + x5 * m20, x4 * m01 + x5 * m21, x4 * m02 + x5 * m22))
    checks = [a0 * b0 - c0 * c0, a1 * b1 - c1 * c1, c2 * c2 - a2 * b2 - e * e,
              2 * c0 * c1 - a0 * b1 - a1 * b0 + e * e, 2 * c0 * c2 - a0 * b2 - a2 * b0,
              2 * c1 * c2 - a1 * b2 - a2 * b1, _det3(rows, None) - e * e * e]
    if not e or any([x % p for x in checks] if p else checks):
        raise WitnessRejected("the assembled witness is not proper")
    # the rows of A t1 - e t2, interleaved by column
    diff = [x for u, v, w, u2, v2, w2 in zip(*t1, *t2) for x in (
        a0 * u + a1 * v + a2 * w - e * u2, b0 * u + b1 * v + b2 * w - e * v2,
        c0 * u + c1 * v + c2 * w - e * w2)]
    if any([x % p for x in diff] if p else diff):
        raise WitnessRejected("the assembled witness does not carry t1 onto t2")
    if flip:
        rows = rows[0], rows[1], (-c0, -c1, -c2)
    field, ei = (kernel, pow(e, -1, p)) if p else (QQ, None)
    return OrthogonalMatrix._trusted(tuple([tuple([
        FieldElement(field, x * ei % p if p else Fraction(x, e)) for x in row]) for row in rows]),
        field, not flip)


def _certify_vector(record, flip=False):
    """:func:`_witness_from` on a field's vector kernel: with e != 0, R is
    (undo / e) . move, checked for R^T Omega R = Omega, det R = 1, R t1 = t2."""
    field, move, t1, t2, s, c, d, c2 = record
    mul, neg, comb = field._raw_mul, field._raw_neg, field._raw_comb
    sc2 = mul(s, c2)
    e = mul(mul(c, sc2), s)
    if e == field._zero.value:
        raise WitnessRejected("the assembled witness is not proper")
    ei = field._raw_inv(e)
    x0, x1, x2, x3, x4, x5 = [mul(x, ei) for x in (
        mul(sc2, sc2), mul(d, d), mul(c, c), neg(mul(field._raw_add(d, d), c)),
        neg(mul(d, sc2)), mul(c, sc2))]
    m0, _, m2 = move
    rows = (comb((x0,), (m0,)), comb((x1, x2, x3), move), comb((x4, x5), (m0, m2)))
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

    The record is (kernel, move, t1, t2, s, c, d, c2), with the raw move
    scaled by s and the normal-form data that :func:`_witness_from` turns
    into a verified witness.  The only reduction parameter that can match,
    -c0 / c1, comes from :func:`_parameter`; the move is the reduction
    homogenised by s = c1^2, with rows (s, c0^2, 2 c0 c1), (0, s, 0) and
    (0, c0 c1, s).  After it the plain swap is tried, with s = 1.  Each
    move is tested by the cross-multiplied conditions of the module
    docstring at k, the top index of U2, written out on the forms: for the
    moved (u', w') = s (u, w), with c' = u'_k and d = w'_k - s b2, they
    read c2 u' - c' U2 = 0 and c2 (w' - s W2) - d U2 = 0.  The swap's
    (u', w') is (V1, -W1), and its w-condition is negated.  Int-valued
    kernels, GF(p) and the integers, search in :func:`_match_int`, and
    GF(p^m), m >= 2, in :func:`_match_vector`; both give the same record.
    """
    if type(t2[0][k]) is int:
        return _match_int(field, t1, t2, k)
    return _match_vector(field, t1, t2, k)


def _match_vector(field, t1, t2, k):
    """:func:`_match` on a field's vector kernel."""
    zero, one = field._zero.value, field._one.value
    dot, mul, neg, comb = field._raw_dot, field._raw_mul, field._raw_neg, field._raw_comb
    U1, V1, W1 = t1
    U2, _, W2 = t2
    c2, b2 = U2[k], W2[k]
    nil = [zero] * len(U1)
    pair = _parameter(field, t1, t2)
    if pair is not None:
        c0, c1 = pair
        s, c0c0, c0c1 = mul(c1, c1), mul(c0, c0), mul(c0, c1)
        c0c1x2 = field._raw_add(c0c1, c0c1)
        c = dot((s, c0c0, c0c1x2), (U1[k], V1[k], W1[k]), (), ())
        if c != zero:
            c2s = mul(c2, s)
            d = dot((c0c1, s), (V1[k], W1[k]), (s,), (b2,))
            if (comb((c2s, mul(c2, c0c0), mul(c2, c0c1x2), neg(c)), (U1, V1, W1, U2)) == nil
                    and comb((mul(c2, c0c1), c2s, neg(c2s), neg(d)), (V1, W1, W2, U2)) == nil):
                return field, _reduction_rows(field, c0, c1), t1, t2, s, c, d, c2
    c, d = V1[k], neg(field._raw_add(W1[k], b2))
    if (c != zero and comb((c2, neg(c)), (V1, U2)) == nil
            and comb((c2, d, c2), (W1, U2, W2)) == nil):
        return field, _swap_rows(field), t1, t2, one, c, d, c2
    return None


def _match_int(kernel, t1, t2, k):
    """:func:`_match_vector` in inline int arithmetic: each condition reduced
    mod p over GF(p), and exact over the integer kernel (p None)."""
    p, (U1, V1, W1), (U2, _, W2) = kernel.p, t1, t2
    c2, b2 = U2[k], W2[k]
    pair = _parameter_int(p, t1, t2)
    if pair is not None:
        c0, c1 = pair
        s, c0c0, c0c1, c0c1x2 = c1 * c1, c0 * c0, c0 * c1, 2 * c0 * c1
        c = s * U1[k] + c0c0 * V1[k] + c0c1x2 * W1[k]
        d = c0c1 * V1[k] + s * (W1[k] - b2)
        if p:
            s, c, d = s % p, c % p, d % p
        if c:
            c2s, x1, x2, x3 = c2 * s, c2 * c0c0, c2 * c0c1x2, c2 * c0c1
            conds = [c2s * u + x1 * v + x2 * w - c * u2 for u, v, w, u2 in zip(U1, V1, W1, U2)]
            if not any([x % p for x in conds] if p else conds):
                conds = [x3 * v + c2s * (w - w2) - d * u2 for v, w, w2, u2 in zip(V1, W1, W2, U2)]
                if not any([x % p for x in conds] if p else conds):
                    return kernel, _reduction_rows(kernel, c0, c1), t1, t2, s, c, d, c2
    c, d = V1[k], -(W1[k] + b2) % p if p else -(W1[k] + b2)
    if c:
        conds = [c2 * v - c * u2 for v, u2 in zip(V1, U2)]
        if not any([x % p for x in conds] if p else conds):
            conds = [c2 * (w + w2) + d * u2 for w, w2, u2 in zip(W1, W2, U2)]
            if not any([x % p for x in conds] if p else conds):
                return kernel, _swap_rows(kernel), t1, t2, 1, c, d, c2
    return None


def _records(field, r1, r2, direct=True, conj=True):
    """The match records (or None) of the raw forms r1 onto r2 and then onto
    conj(r2), which has the same U2; each search runs only when asked for."""
    zero = field._zero.value
    U2 = r2[0]
    k = len(U2) - 1
    while U2[k] == zero:
        k -= 1
    yield _match(field, r1, r2, k) if direct else None
    yield _match(field, r1, _conjugate(field, r2), k) if conj else None


def _searches(kernel, r1, r2):
    """(direct, conj): whether the searches of :func:`_records` onto t2
    and onto conj(t2) can match, by the sign rule of the module docstring."""
    d1, d2 = [_det3([f[:3] for f in r], kernel.p) if type(r[0][0]) is int
              else _det_raw(kernel, [f[:3] for f in r]) for r in (r1, r2)]
    return d2 == d1, d2 == kernel._raw_neg(d1)


def _parameter(field, t1, t2):
    """The one reduction parameter a = -c0 / c1 that can carry the raw
    forms t1 onto t2's representation orbit, as the raw pair (c0, c1) with
    c1 != 0, or None when no parameter can.  No inverse is taken.

    A match needs U1 + a^2 V1 - 2 a W1 and W1 - a V1 - W2 to be multiples
    of U2.  For an index k with U2_k != 0, a form f is a multiple of U2
    iff its n - 1 minors f_i U2_k - f_k U2_i (i != k) vanish, so these
    minors are the whole constraint.  The first minor with a nonzero
    a-coefficient c1 gives the candidate, the root of c0 + c1 a; a nonzero
    constant minor rules every parameter out.

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

    This is the body on a field's vector kernel; :func:`_parameter_int`
    computes the same pair on GF(p) and the integer kernel.
    """
    dot = field._raw_dot
    zero = field._zero.value
    U1, V1, W1 = t1
    U2, _, W2 = t2
    k = next(i for i, x in enumerate(U2) if x != zero)
    uk = U2[k]
    others = [i for i in range(len(U2)) if i != k]
    dk = field._raw_sub(W1[k], W2[k])
    for i in others:
        c0 = dot((W1[i],), (uk,), (W2[i], dk), (uk, U2[i]))
        c1 = dot((V1[k],), (U2[i],), (V1[i],), (uk,))
        if c1 != zero:
            return c0, c1
        if c0 != zero:
            return None
    for i in others:
        c0 = dot((U1[i],), (uk,), (U1[k],), (U2[i],))
        c1 = dot((W1[k], W1[k]), (U2[i], U2[i]), (W1[i], W1[i]), (uk, uk))
        if c1 != zero:
            return c0, c1
        if c0 != zero:
            return None
    # excluded by the lemma; reported rather than guessed
    raise SearchExhausted("constraint minors vanished identically")


def _parameter_int(p, t1, t2):
    """:func:`_parameter` in inline int arithmetic: each minor reduced mod
    p over GF(p), and exact over the integer kernel (p None)."""
    (U1, V1, W1), (U2, _, W2) = t1, t2
    k = 0
    while not U2[k]:
        k += 1
    uk, dk = U2[k], W1[k] - W2[k]
    others = [i for i in range(len(U2)) if i != k]
    for i in others:
        c0, c1 = (W1[i] - W2[i]) * uk - dk * U2[i], V1[k] * U2[i] - V1[i] * uk
        if p:
            c0, c1 = c0 % p, c1 % p
        if c1:
            return c0, c1
        if c0:
            return None
    for i in others:
        c0, c1 = U1[i] * uk - U1[k] * U2[i], 2 * (W1[k] * U2[i] - W1[i] * uk)
        if p:
            c0, c1 = c0 % p, c1 % p
        if c1:
            return c0, c1
        if c0:
            return None
    raise SearchExhausted("constraint minors vanished identically")


def _on_common_field(t1, t2):
    """t1 and t2 over their common field; they must lie on one curve."""
    if t1.curve != t2.curve:
        raise ValueError("the triples live on different curves")
    if t1.field != t2.field:
        field = common_field(t1.field, t2.field)
        t1, t2 = t1.embedded(field), t2.embedded(field)
    return t1, t2


def _decision_forms(t1, t2):
    """(kernel, r1, r2): the kernel and raw forms the class decision runs
    on.  Over QQ that is the integer kernel, on the forms of t1 and t2
    times one common denominator D; the action is linear, so scaling both
    triples by D changes neither the verdict nor the witness.  Any other
    field decides on its own kernel and raw forms."""
    field = t1.field
    r1, r2 = t1._raw_forms(), t2._raw_forms()
    if field is not QQ:
        return field, r1, r2
    _, forms = _cleared(r1 + r2)
    return ZZ, forms[:3], forms[3:]


def same_class(t1, t2, extension=2):
    """The relation between the divisor classes of t1 and t2.

    ``extension`` names the search domain reported with the verdict (the
    extension of that relative degree over the triples' common field, or
    the rationals themselves), which is built only when it is read.
    Verdicts and witnesses do not depend on it: the matching reduction
    parameter always lies in the triples' own field (see
    :func:`_parameter`), so witnesses come out over that field.  It must
    be an ``int`` >= 1, not a ``bool``; anything else raises ValueError
    before any work is done.
    """
    if type(extension) is not int or extension < 1:
        raise ValueError("extension degree must be an int >= 1, got %r" % (extension,))
    t1, t2 = _on_common_field(t1, t2)
    field = t1.field
    if field.p is None and field.m > 1:
        raise RationalsUnsupported(
            "the class search takes triples over QQ or a finite field")
    kernel, r1, r2 = _decision_forms(t1, t2)
    # twice S_02, 2 w0 w2 - u0 v2 - u2 v0, turns most unrelated pairs away
    s1, s2 = (kernel._raw_dot((w[0], w[0]), (w[2], w[2]), (u[0], u[2]), (v[2], v[0]))
              for u, v, w in (r1, r2))
    if s1 != s2:
        return ClassRelation(KIND_DISTINCT, field=field, extension=extension)
    witness, conj_witness = [None if record is None else _witness_from(record)
                             for record in _records(kernel, r1, r2, *_searches(kernel, r1, r2))]
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
    kernel, r1, r2 = _decision_forms(t1, t2)
    if _twice_gram(kernel, *r1, 2) != _twice_gram(kernel, *r2, 2):
        raise GramMismatch("the triples have different Gram matrices")
    records = _records(kernel, r1, r2, *_searches(kernel, r1, r2))
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
