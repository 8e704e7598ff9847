"""The quadratic-form invariant of a triple and a section of it.

``gram(t)`` is the symmetric (g+2) x (g+2) matrix of the quadratic form
w^2 - u*v built from a triple's coefficients; it is constant on orbits of
the full orthogonal group of the pairing, and substituting x_i = X^i maps
it back onto the curve polynomial.  Its rank equals the dimension of the
span of the three forms and is always 2 or 3 for a valid triple, the
radical being their common zero locus.

The invariant is complete on orbits of the full orthogonal group; the
matrix carrying one triple onto another with the same Gram matrix is
``equivalence.recover_transform``.

The entries come from one raw kernel, ``_twice_gram``: twice the entries
on and above a diagonal, with no 1/2, so it runs on the cleared integer
forms over QQ too.  ``gram`` halves and mirrors the upper triangle, the
Galois filter reads it unwrapped, and ``recover_transform`` compares the
entries two or more places off the diagonal, which decide the rest for
triples on one curve.  S maps onto the curve when its antidiagonal sums
(``_antidiagonal_sums``, wrapped by ``gram_to_poly``) equal the curve's
raw F.  The diagonal split behind ``decompose`` also eliminates on raw
values and wraps only the pieces it returns; ``decompose`` and
``in_curve_forms`` split S once, the number of pieces being the rank,
and ``rank_radical`` reduces S once (``linalg._kernel_basis``).  The
rank-3 section runs on raw values as well: S e is one vector-kernel
call, since S is symmetric, the isotropic vector comes from one
reduction of augmented rows and the orthogonal complement from
``_kernel_basis``; elements are built only where a square root is
adjoined and the result is embedded.  An isotropic hint of the wrong
length raises LengthMismatch whatever the rank.

``decompose`` is a computational section of the invariant: it rebuilds
some triple from a rank-2/3 form, splitting off squares and, in rank 3,
completing a hyperbolic pair; a square root may force the canonical
quadratic extension, and over the rationals the rank-3 case requires an
isotropic vector supplied by the caller.
"""

from __future__ import annotations

from .curves import check_form_length
from .errors import (
    BudgetExhausted,
    DecompositionRejected,
    NotCurveForm,
    RationalsNeedHint,
)
from .fields import FieldElement, adjoin_sqrt, embed
from .linalg import _kernel_basis, _row_reduce
from .poly import Polynomial
from .triples import make_triple

__all__ = [
    "GramForm", "gram", "gram_to_poly", "rank_radical", "in_curve_forms",
    "decompose",
]


class GramForm:
    """A symmetric matrix of field elements, hashable and comparable."""

    __slots__ = ("field", "entries")

    def __init__(self, entries, field=None):
        entries = tuple(tuple(row) for row in entries)
        if field is None:
            field = entries[0][0].field
        n = len(entries)
        for row in entries:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if entries[i][j] != entries[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        self.field = field
        self.entries = entries

    @classmethod
    def _trusted(cls, entries, field):
        # internal: for matrices that are square and symmetric by construction
        self = object.__new__(cls)
        self.field = field
        self.entries = entries
        return self

    @property
    def size(self):
        return len(self.entries)

    def embedded(self, field):
        # embedding is a ring map, so the image is symmetric again
        if field == self.field:
            return self
        return GramForm._trusted(
            tuple(tuple(embed(x, field) for x in row) for row in self.entries), field)

    def __eq__(self, other):
        return (isinstance(other, GramForm)
                and self.field == other.field and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        return "GramForm(%s)" % (self.entries,)


def gram(t):
    """Entry (i, j) is w_i w_j - (u_i v_j + u_j v_i)/2: the upper triangle
    of ``_twice_gram``, halved in one vector-kernel call and mirrored."""
    field = t.field
    n = len(t.u)
    twice = _twice_gram(field, *t._raw_forms())
    upper = iter(field._wrap(field._raw_comb((field._half,), (twice,))))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(upper)
    return GramForm._trusted(tuple(map(tuple, rows)), field)


def _twice_gram(field, u, v, w, offset=0):
    """Twice the Gram entries (i, j), j >= i + offset, of the raw forms
    (u, v, w), row by row: 2 w_i w_j - u_i v_j - v_i u_j.  Row i is one
    vector-kernel call, and there is no 1/2, so it runs on the integer
    kernel of :mod:`picforms.fields` as well.

    Offset 2 gives the band that is the whole invariant for triples on one
    curve.  Substituting x_i = X^i gives sum_(i+j=k) S_ij = F_k on every
    antidiagonal k, and the antidiagonal holds one entry, or one pair
    S_(i,i+1) = S_(i+1,i), with |i - j| <= 1; in odd characteristic it is
    fixed by F and the others.
    """
    comb, add, neg = field._raw_comb, field._raw_add, field._raw_neg
    out = []
    for i in range(len(v) - offset):
        j = i + offset
        out += comb((add(w[i], w[i]), neg(u[i]), neg(v[i])), (w[j:], v[j:], u[j:]))
    return out


def _antidiagonal_sums(field, rows):
    """The sums sum_(i+j=k) S_ij, k = 0 .. 2n - 2, of the raw rows of an
    n x n matrix: one vector-kernel call on the rows shifted by their index."""
    n = len(rows)
    zero = field._zero.value
    return field._raw_comb([field._one.value] * n, [
        [zero] * i + row + [zero] * (n - 1 - i) for i, row in enumerate(rows)])


def gram_to_poly(S):
    """Substitute x_i = X^i: the polynomial sum S_ij X^(i+j), degree <= 2(n-1)."""
    field = S.field
    rows = [field.values(row) for row in S.entries]
    return Polynomial(field, field._wrap(_antidiagonal_sums(field, rows)))


def rank_radical(S):
    """(rank, radical basis); rank + len(basis) = size, from one reduction."""
    field = S.field
    basis = _kernel_basis(field, [field.values(row) for row in S.entries], S.size)
    return S.size - len(basis), [field._wrap(vec) for vec in basis]


def in_curve_forms(S, curve):
    """True iff S maps onto the curve polynomial and has rank 2 or 3."""
    return _curve_pieces(S, curve) is not None


def _curve_pieces(S, curve):
    """The diagonal split of S when S maps onto the curve polynomial and
    has rank 2 or 3 (the number of pieces), else None."""
    if S.size != curve.genus + 2:
        return None
    field = S.field
    rows = [field.values(row) for row in S.entries]
    if _antidiagonal_sums(field, rows) != list(curve._raw_F(field)):
        return None
    pieces = _split_diagonal(field, rows)
    return pieces if len(pieces) in (2, 3) else None


# ---------------------------------------------------------------------------
# diagonal split-off

def _split_diagonal(field, entries):
    """Represent the form with the raw rows ``entries`` as
    sum alpha_i * ell_i(x)^2, reducing the rows to zero in place.

    Returns a list of (alpha_i, ell_i) with the ell_i linearly independent
    rows; its length is the rank.  Deterministic: the split vectors are
    the first basis vectors (or sums of two) with nonzero value.  Only the
    pieces are wrapped.
    """
    n = len(entries)
    zero = field._zero.value
    add, sub, mul = field._raw_add, field._raw_sub, field._raw_mul
    pieces = []
    while any(x != zero for row in entries for x in row):
        # the split vector e is e_i, or e_i + e_j when the diagonal vanishes;
        # sv = S e and alpha = e^T S e
        i = next((i for i in range(n) if entries[i][i] != zero), None)
        if i is not None:
            sv = [row[i] for row in entries]
            alpha = sv[i]
        else:
            i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                        if entries[i][j] != zero)
            sv = [add(row[i], row[j]) for row in entries]
            alpha = add(sv[i], sv[j])
        # char != 2: a nonzero symmetric matrix has a nonzero value
        inv = field._raw_inv(alpha)
        ell = [mul(x, inv) for x in sv]
        pieces.append((FieldElement(field, alpha), field._wrap(ell)))
        # subtract alpha ell ell^T, whose entry (i, j) is sv_i ell_j
        for row, si in zip(entries, sv):
            for j in range(n):
                row[j] = sub(row[j], mul(si, ell[j]))
    return pieces


# ---------------------------------------------------------------------------
# section of the invariant

def _normal_factors(field, pieces):
    """Independent forms (u, v) with S = -u v, possibly over a quadratic
    extension, from the two pieces of the diagonal split of S."""
    (alpha, l1), (beta, l2) = pieces
    want = -beta / alpha
    ext, s = adjoin_sqrt(field, want)
    l1 = tuple(embed(x, ext) for x in l1)
    l2 = tuple(embed(x, ext) for x in l2)
    alpha = embed(alpha, ext)
    u = tuple(a + s * b for a, b in zip(l1, l2))
    v = tuple(-alpha * a + alpha * s * b for a, b in zip(l1, l2))
    return u, v, ext


def decompose(S, curve, extension_budget=2, isotropic_hint=None):
    """Some triple t with gram(t) = S.

    Rank 2 returns (u, v, 0) from a splitting of the form; rank 3 finds an
    isotropic vector (base field first, then the quadratic extension as
    allowed by the budget), completes it to a hyperbolic pair plus an
    orthogonal complement, and reads off the w^2 - u*v shape.  Over the
    rationals the rank-3 search is replaced by the caller's hint.  The
    budget must be at least 1.  The returned triple's Gram matrix is
    checked against S once, and a mismatch raises DecompositionRejected.
    """
    if extension_budget < 1:
        raise ValueError("the extension budget must be >= 1, got %d" % extension_budget)
    pieces = _curve_pieces(S, curve)
    if pieces is None:
        raise NotCurveForm("not a rank-2/3 form mapping onto this curve")
    if isotropic_hint is not None:
        check_form_length(isotropic_hint, curve.genus)
    if len(pieces) == 2:
        u, v, ext = _normal_factors(S.field, pieces)
        if ext != S.field and extension_budget < 2:
            raise BudgetExhausted("rank-2 splitting needs a quadratic extension")
        zero = (ext.zero(),) * S.size
        t = make_triple(curve, u, v, zero, field=ext)
    else:
        t = _decompose_rank3(S, pieces, curve, extension_budget, isotropic_hint)
    if gram(t) != S.embedded(t.field):
        raise DecompositionRejected("the decomposed triple does not have the given Gram matrix")
    return t


def _find_isotropic(field, pieces):
    """A deterministic isotropic vector outside the radical, as raw values,
    or None.

    Works on the diagonalised form alpha l1^2 + alpha2 l2^2 + alpha3 l3^2:
    scan first the l3 = 0 plane, then l3 = 1 slices in canonical element
    order.  Over a finite field a ternary form always has such a vector.
    """
    (a1, l1), (a2, l2), (a3, l3) = pieces
    s = field.sqrt(-a2 / a1)
    if s is not None:
        coords = (s, field.one(), field.zero())
    else:
        coords = None
        if field.p is not None:
            for x in field.elements():
                val = -(a1 * x * x + a3) / a2
                y = field.sqrt(val)
                if y is not None:
                    coords = (x, y, field.one())
                    break
        if coords is None:
            return None
    # l_i . e = coords_i, from one reduction of the augmented rows; the free
    # coordinates are 0
    n = len(l1)
    rows, pivots = _row_reduce(
        field, [field.values((*l, c)) for l, c in zip((l1, l2, l3), coords)], n)
    assert len(pivots) == 3  # the three split forms are independent
    e = [field._zero.value] * n
    for row, pc in zip(rows, pivots):
        e[pc] = row[n]
    return e


def _decompose_rank3(S, pieces, curve, extension_budget, isotropic_hint):
    field = S.field
    n = S.size
    zero = field._zero.value
    mul, comb, dot = field._raw_mul, field._raw_comb, field._raw_dot
    rows = [field.values(row) for row in S.entries]
    # S is symmetric, so S e is the combination of its rows with e's entries
    if isotropic_hint is not None:
        e1 = field.values(isotropic_hint)
        se1 = comb(e1, rows)
        if dot(e1, se1, (), ()) != zero or all(x == zero for x in se1):
            raise NotCurveForm("hint is not an isotropic vector outside the radical")
    else:
        if field.p is None:
            raise RationalsNeedHint("supply an isotropic vector over the rationals")
        e1 = _find_isotropic(field, pieces)
        if e1 is None:
            raise BudgetExhausted("no isotropic vector found in the base field")
        se1 = comb(e1, rows)
    # the partner f = e_k / (S e1)_k, k the first index with B(e1, e_k) =
    # (S e1)_k != 0, has B(e1, f) = 1; e1 is outside the radical
    k = next(i for i, x in enumerate(se1) if x != zero)
    b_inv = field._raw_inv(se1[k])
    # make the partner isotropic: q(f + c e1) = q(f) + 2c, q(f) = S_kk / b^2
    c = field._raw_neg(mul(mul(mul(rows[k][k], b_inv), b_inv), field._half))
    e2 = [mul(c, y) for y in e1]
    e2[k] = field._raw_add(e2[k], b_inv)
    se2 = comb(e2, rows)
    # orthogonal complement of the hyperbolic plane, one vector outside the radical
    for cand in _kernel_basis(field, (se1, se2), n):
        se3 = comb(cand, rows)
        gamma = dot(cand, se3, (), ())
        if gamma != zero:
            break
    assert gamma != zero  # rank 3 leaves a one-dimensional anisotropic complement
    ext, s = adjoin_sqrt(field, FieldElement(field, gamma))
    if ext != field and extension_budget < 2:
        raise BudgetExhausted("the rank-3 section needs a quadratic extension")
    # q = 2 l1 l2 + gamma l3^2 in the dual coordinates of (e1, e2, e3):
    # l1 = S e2, l2 = S e1 and l3 = S e3 / gamma; make_triple embeds u and v
    g_inv = field._raw_inv(gamma)
    u = field._wrap([field._raw_neg(field._raw_add(x, x)) for x in se2])
    v = field._wrap(se1)
    w = [s * embed(FieldElement(field, mul(x, g_inv)), ext) for x in se3]
    return make_triple(curve, u, v, w, field=ext)
