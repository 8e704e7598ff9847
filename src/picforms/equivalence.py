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

The matching conditions are polynomial constraints in the parameter.
Their gcd has degree <= 1 (the lemma at :func:`_constraint_gcd`), so the
one candidate parameter lies in the triples' own field, over QQ and
GF(q) alike, and witnesses come out over that field.  The search domain
named by ``same_class(..., extension=...)`` is reported with the verdict
but cannot change it.

``orbit_oracle`` is the independent brute-force check: it exhausts the
full enumerated proper group over a small field.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateResult, SearchExhausted
from .fields import Field, common_field, embed
from .ortho import (
    OrthogonalMatrix,
    classify,
    enumerate_special_orthogonal,
    reduction_matrix,
    swap_matrix,
)
from .poly import Polynomial, gcd as poly_gcd
from .quadform import gram
from .triples import (
    _canonical_forms,
    _mix_forms,
    act,
    canonicalize,
    canonicalize_with_matrix,
    conjugate,
)

KIND_EQUAL = "equal"
KIND_BOTH = "equal-and-self-conjugate"
KIND_CONJ = "conjugate-only"
KIND_DISTINCT = "distinct"


@dataclass(frozen=True)
class ClassRelation:
    kind: str
    witness: OrthogonalMatrix = None
    conjugate_witness: OrthogonalMatrix = None
    search_domain: Field = None


def reduction_step(t, a):
    """act(reduction_matrix(a), t); raises DegenerateResult when u vanishes."""
    field = t.field
    a = field.elem(a) if not hasattr(a, "field") else embed(a, field)
    u2 = _reduced_u(t.u, t.v, t.w, a)
    if not any(u2):
        raise DegenerateResult("reduction parameter makes u vanish")
    return act(reduction_matrix(a), t)


def swap_step(t):
    """act(swap_matrix, t) = (v, u, -w)."""
    return act(swap_matrix(t.field), t)


# -- the parameter solver -------------------------------------------------------

def _reduced_u(u, v, w, a):
    a2 = a * a
    a_2 = a + a
    return tuple(ui + a2 * vi - a_2 * wi for ui, vi, wi in zip(u, v, w))


def _reduced_forms(u, v, w, a):
    return (_reduced_u(u, v, w, a), v, tuple(wi - a * vi for vi, wi in zip(v, w)))


def _witness_from(move, t1, t2):
    """Assemble B2^{-1} @ B' @ move and verify, once, that it is proper and
    maps t1 to t2 exactly."""
    _, b_move = canonicalize_with_matrix(act(move, t1))
    _, b2 = canonicalize_with_matrix(t2)
    witness = b2.inverse() @ (b_move @ move)
    assert classify(witness.rows, witness.field) == "proper"
    assert act(witness, t1) == t2
    return witness


def _search_equal(t1, t2):
    """A proper witness carrying t1 onto t2's representation orbit, or None.

    The only reduction parameter that can match is the root of the
    constraint gcd, which has degree <= 1 (see :func:`_constraint_gcd`);
    after it the plain swap is tried.
    """
    u1, v1, w1 = t1.u, t1.v, t1.w
    key2 = _canonical_forms(t2.u, t2.v, t2.w)[0]
    g = _constraint_gcd(t1, t2)
    if g.degree == 1:
        a = -g[0] / g[1]
        if _canonical_forms(*_reduced_forms(u1, v1, w1, a))[0] == key2:
            return _witness_from(reduction_matrix(a), t1, t2)
    swapped = (v1, u1, tuple(-x for x in w1))
    if _canonical_forms(*swapped)[0] == key2:
        return _witness_from(swap_matrix(t1.field), t1, t2)
    return None


def _constraint_polys(t1, t2):
    """Polynomials in the reduction parameter whose common roots are the
    only parameters that can match t2's representation orbit."""
    field = t1.field
    U1 = t1.u
    V1 = t1.v
    W1 = t1.w
    U2 = t2.u
    W2 = t2.w
    n = len(U1)
    out = []
    # proportionality of U1 + a^2 V1 - 2 a W1 with U2: all 2x2 minors vanish
    cu = [(U1[i], -(W1[i] + W1[i]), V1[i]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = tuple(cu[i][k] * U2[j] - cu[j][k] * U2[i] for k in range(3))
            out.append(Polynomial(field, coeffs))
    # W1 - a V1 - W2 must be a constant multiple of U2: linear minors
    cw = [(W1[i] - W2[i], -V1[i]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = tuple(cw[i][k] * U2[j] - cw[j][k] * U2[i] for k in range(2))
            out.append(Polynomial(field, coeffs))
    return [p for p in out if not p.is_zero]


def _constraint_gcd(t1, t2):
    """The gcd of the constraint polynomials; its degree is <= 1.

    Lemma.  The gcd g has degree 2 only if every linear minor vanishes,
    which gives V1 = lambda U2 and W1 - W2 = mu U2.  The a^2 term of the
    quadratic minor (i, j) is then lambda (U2_i U2_j - U2_j U2_i) = 0, so
    every quadratic minor has degree <= 1 and deg g <= 1.  If all minors
    vanished, U1, V1 and W1 would all be multiples of U2 (the a-term of
    the quadratic minors is -2 (W1_i U2_j - W1_j U2_i), and 2 is a unit in
    odd characteristic), and F = W1^2 - U1 V1 would be a constant times
    U2^2, which is not squarefree.  Hence the one possible parameter
    a = -g_0 / g_1 lies in the triples' own field, and no search domain
    beyond it can add a match.  (The reduced u never vanishes either: that
    would make F = (w - a v)^2.)
    """
    polys = _constraint_polys(t1, t2)
    if not polys:
        # excluded by the lemma; reported rather than guessed
        raise SearchExhausted("constraint polynomials vanished identically")
    g = polys[0]
    for p in polys[1:]:
        g = poly_gcd(g, p)
        if g.degree == 0:
            break
    return g


def search_domain_for(field, extension):
    """The field playing the role of the algebraic closure in a search."""
    if field.p is None:
        return field
    return field.extension(extension)


def same_class(t1, t2, extension=2):
    """The relation between the divisor classes of t1 and t2.

    ``extension`` names the search domain reported with the verdict (the
    extension of that relative degree over the triples' common field, or
    the rationals themselves).  Verdicts and witnesses do not depend on
    it: the matching reduction parameter always lies in the triples' own
    field (see :func:`_constraint_gcd`), so witnesses come out over that
    field.
    """
    if t1.curve != t2.curve:
        raise ValueError("the triples live on different curves")
    if t1.field != t2.field:
        field = common_field(t1.field, t2.field)
        t1, t2 = t1.embedded(field), t2.embedded(field)
    if t1.field.p is None and t1.field.m > 1:
        from .errors import RationalsUnsupported
        raise RationalsUnsupported(
            "the class search takes triples over QQ or a finite field")
    domain = search_domain_for(t1.field, extension)
    if gram(t1) != gram(t2):
        return ClassRelation(KIND_DISTINCT, search_domain=domain)
    witness = _search_equal(t1, t2)
    conj_witness = _search_equal(t1, conjugate(t2))
    if witness is not None and conj_witness is not None:
        kind = KIND_BOTH
    elif witness is not None:
        kind = KIND_EQUAL
    elif conj_witness is not None:
        kind = KIND_CONJ
    else:
        kind = KIND_DISTINCT
    return ClassRelation(kind, witness, conj_witness, domain)


def orbit_oracle(t1, t2):
    """Exhaustive classification over the full enumerated proper group.

    Independent of the reduction search: every group element is applied
    directly.  Only for small finite fields.
    """
    if t1.curve != t2.curve:
        raise ValueError("the triples live on different curves")
    if t1.field != t2.field:
        field = common_field(t1.field, t2.field)
        t1, t2 = t1.embedded(field), t2.embedded(field)
    group = enumerate_special_orthogonal(t1.field)
    c2 = canonicalize(t2)
    key2 = (c2.u, c2.v, c2.w)
    c2c = canonicalize(conjugate(t2))
    key2c = (c2c.u, c2c.v, c2c.w)
    forms = t1.forms()
    equal = False
    conj = False
    for m in group:
        key = _canonical_forms(*_mix_forms(m.rows, forms, t1.field))[0]
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
