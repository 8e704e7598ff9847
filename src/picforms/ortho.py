"""The 3x3 pairing matrix, its orthogonal group, generators, and enumeration.

The quadratic form w^2 - u*v on a column (u, v, w) is represented by the
symmetric matrix with rows (0, -1/2, 0), (-1/2, 0, 0), (0, 0, 1).  An
:class:`OrthogonalMatrix` is a validated element of the group preserving
that pairing; the determinant of any such matrix is +-1, and "proper"
means determinant +1.

Generator families
------------------

``scale_matrix(a)``       diag(a, 1/a, 1): rescales the vanishing
                          polynomial of a divisor representation.
``shift_matrix(b)``       shifts the interpolation polynomial by b times
                          the vanishing polynomial.  Together with the
                          scalings it generates the subgroup that fixes
                          every divisor representation.
``swap_shift_matrix(b)``  the second proper generator family: swap u and v
                          combined with a shift.
``reduction_matrix(a)``   the proper move realising the linear-equivalence
                          step (u + a^2 v - 2 a w, v, w - a v).
``swap_matrix(field)``    (u, v, w) -> (v, u, -w), proper.
``flip_matrix(field)``    (u, v, w) -> (u, v, -w), the improper involution
                          matching the +-Y involution on divisors.

The generators and the inverse (Omega^-1 A^T Omega, written out as
entries of A times 1, -2 or -1/2) are orthogonal by construction and are
built without re-running :func:`classify`; ``OrthogonalMatrix(rows)``
validates matrices that come from outside.  The class decision works on
raw rows: the reduction and swap moves come from ``_reduction_rows`` and
``_swap_rows`` (which ``reduction_matrix`` and ``swap_matrix`` wrap), and
its witness check over GF(p^m), m >= 2, calls ``_classify_raw``, the raw
entry point of :func:`classify`.

``enumerate_special_orthogonal`` closes the proper generator families
under multiplication over a small finite field; it serves as the
brute-force oracle for the equivalence decision.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import (
    FieldTooLarge,
    NotOrthogonal,
    RationalsUnsupported,
    ZeroScale,
)
from .fields import FieldElement, common_field, embed
from .linalg import _mat_mul_raw

_ENUMERATION_FIELD_LIMIT = 13
_ENUMERATION_ORDER_LIMIT = 5000


def pairing_matrix(field):
    """The symmetric matrix of w^2 - u*v in (u, v, w) coordinates."""
    zero, one = field.zero(), field.one()
    neg_half = field.elem(Fraction(-1, 2))
    return (
        (zero, neg_half, zero),
        (neg_half, zero, zero),
        (zero, zero, one),
    )


_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def classify(rows, field=None):
    """"proper", "improper", or "not-orthogonal" for a raw 3x3 matrix.

    The entries must lie in ``field`` (by default that of the first entry);
    one from another field raises DescriptorMismatch.  Each entry of
    A^T Omega A and each cofactor of the determinant is one sum-of-products
    kernel call on raw values; no inverse is taken.
    """
    if field is None:
        field = rows[0][0].field
    return _classify_raw(field, list(map(field.values, rows)))


def _classify_raw(field, rows):
    """:func:`classify` on the raw values of a 3x3 matrix over ``field``;
    the class decision certifies witnesses here only over GF(p^m), m >= 2
    (over GF(p) and QQ see :func:`picforms.equivalence._certify_int`)."""
    dot = field._raw_dot
    cols = tuple(zip(*rows))
    # twice the six distinct entries of A^T Omega A, (i, j) being
    # 2 c_i c_j - (a_i b_j + b_i a_j), against twice those of Omega
    lhs = []
    for i, j in _UPPER:
        x0, x1, x2 = cols[i]
        y0, y1, y2 = cols[j]
        lhs.append(dot((x2, x2), (y2, y2), (x0, x1), (y1, y0)))
    zero, one = field._zero.value, field._one.value
    if lhs != [zero, field._raw_neg(one), zero, zero, zero, field._raw_add(one, one)]:
        return "not-orthogonal"
    d = _det_raw(field, rows)
    if d == one:
        return "proper"
    assert d == field._raw_neg(one)  # A* Omega A = Omega forces det = +-1
    return "improper"


def _det_raw(field, rows):
    """The determinant of a raw 3x3 matrix, by cofactors along row 0."""
    dot = field._raw_dot
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    m0 = dot((b1,), (c2,), (b2,), (c1,))
    m1 = dot((b0,), (c2,), (b2,), (c0,))
    m2 = dot((b0,), (c1,), (b1,), (c0,))
    return dot((a0, a2), (m0, m2), (a1,), (m1,))


class OrthogonalMatrix:
    """A validated element of the pairing's orthogonal group."""

    __slots__ = ("field", "rows", "proper")

    def __init__(self, rows, field=None):
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("an orthogonal matrix is 3 x 3")
        if field is None:
            field = rows[0][0].field
        rows = tuple(tuple(field.elem(x) for x in r) for r in rows)
        kind = classify(rows, field)
        if kind == "not-orthogonal":
            raise NotOrthogonal("matrix does not preserve the pairing")
        self.field = field
        self.rows = rows
        self.proper = kind == "proper"

    @classmethod
    def _trusted(cls, rows, field, proper):
        # internal: for generators, products, inverses and embeddings, which
        # are orthogonal by construction
        self = object.__new__(cls)
        self.field = field
        self.rows = rows
        self.proper = proper
        return self

    def __matmul__(self, other):
        if not isinstance(other, OrthogonalMatrix):
            return NotImplemented
        field = common_field(self.field, other.field)
        values = field.values
        rows = _mat_mul_raw(field, list(map(values, self.embedded(field).rows)),
                            list(map(values, other.embedded(field).rows)))
        return _wrap_rows(field, rows, self.proper == other.proper)

    def inverse(self):
        # A^{-1} = Omega^{-1} A^T Omega, written out: Omega swaps the first
        # two coordinates and scales them by -1/2
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = self.rows
        field = self.field
        neg_half = FieldElement(field, field._raw_neg(field._half))
        inv = ((a11, a01, -(a21 + a21)),
               (a10, a00, -(a20 + a20)),
               (a12 * neg_half, a02 * neg_half, a22))
        return OrthogonalMatrix._trusted(inv, field, self.proper)

    def embedded(self, field):
        if field == self.field:
            return self
        return OrthogonalMatrix._trusted(
            tuple(tuple(embed(x, field) for x in row) for row in self.rows), field,
            self.proper)

    def __eq__(self, other):
        return (isinstance(other, OrthogonalMatrix)
                and self.field == other.field and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.rows))

    def sort_key(self):
        return tuple(x.sort_key() for row in self.rows for x in row)

    def __repr__(self):
        return "OrthogonalMatrix(%s)" % (self.rows,)


def _build(field, entries, proper=True):
    return OrthogonalMatrix._trusted(
        tuple(tuple(field.elem(x) for x in row) for row in entries), field, proper)


def scale_matrix(a):
    """diag(a, 1/a, 1); proper."""
    if not isinstance(a, FieldElement):
        raise TypeError("scale parameter must be a field element")
    if not a:
        raise ZeroScale("scale parameter must be nonzero")
    field = a.field
    zero, one = field.zero(), field.one()
    return OrthogonalMatrix._trusted(
        ((a, zero, zero), (zero, a.inverse(), zero), (zero, zero, one)), field, True)


def shift_matrix(b):
    """(u, v, w) -> (u, v + b^2 u - 2 b w, w - b u); proper."""
    field = b.field
    zero, one = field.zero(), field.one()
    return OrthogonalMatrix._trusted(
        ((one, zero, zero), (b * b, one, -(b + b)), (-b, zero, one)), field, True)


def swap_shift_matrix(b):
    """(u, v, w) -> (v, u + b^2 v + 2 b w, -b v - w); proper."""
    field = b.field
    zero, one = field.zero(), field.one()
    return OrthogonalMatrix._trusted(
        ((zero, one, zero), (one, b * b, b + b), (zero, -b, -one)), field, True)


def reduction_matrix(a):
    """(u, v, w) -> (u + a^2 v - 2 a w, v, w - a v); proper."""
    field = a.field
    return _wrap_rows(field, _reduction_rows(field, field._raw_neg(a.value), field._one.value),
                      True)


def _reduction_rows(field, c0, c1):
    """The raw rows of s reduction_matrix(-c0 / c1), s = c1^2: (s, c0^2,
    2 c0 c1), (0, s, 0) and (0, c0 c1, s), with no division; c1 = 1 gives
    reduction_matrix(-c0) itself."""
    mul = field._raw_mul
    s, c0c1 = mul(c1, c1), mul(c0, c1)
    zero = field._zero.value
    return ((s, mul(c0, c0), field._raw_add(c0c1, c0c1)),
            (zero, s, zero),
            (zero, c0c1, s))


def swap_matrix(field):
    """(u, v, w) -> (v, u, -w); proper."""
    return _wrap_rows(field, _swap_rows(field), True)


def _swap_rows(field):
    """The raw rows of swap_matrix(field)."""
    zero, one = field._zero.value, field._one.value
    return ((zero, one, zero), (one, zero, zero), (zero, zero, field._raw_neg(one)))


def _wrap_rows(field, rows, proper):
    # internal: raw rows of a matrix that is orthogonal by construction
    return OrthogonalMatrix._trusted(tuple(map(field._wrap, rows)), field, proper)


def flip_matrix(field):
    """(u, v, w) -> (u, v, -w); the improper involution."""
    return _build(field, ((1, 0, 0), (0, 1, 0), (0, 0, -1)), proper=False)


def identity_matrix(field):
    return _build(field, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def enumerate_special_orthogonal(field):
    """Every proper matrix over a small finite field, as a sorted tuple.

    Breadth-first closure of the scale and swap-shift families under
    left multiplication by generators.  Deterministic: the result is
    sorted by the canonical entry order.  Cached per field.
    """
    return _enumerate_cached(field)


@functools.lru_cache(maxsize=8)
def _enumerate_cached(field):
    if field.p is None:
        raise RationalsUnsupported("enumeration needs a finite field")
    if field.order > _ENUMERATION_FIELD_LIMIT:
        raise FieldTooLarge("enumeration is limited to fields with at most %d elements"
                            % _ENUMERATION_FIELD_LIMIT)
    gens = []
    for a in field.elements():
        if a:
            gens.append(scale_matrix(a))
        gens.append(swap_shift_matrix(a))
    seen = {}
    frontier = [identity_matrix(field)]
    seen[frontier[0].rows] = frontier[0]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = g @ m
                if prod.rows not in seen:
                    seen[prod.rows] = prod
                    nxt.append(prod)
                    if len(seen) > _ENUMERATION_ORDER_LIMIT:
                        raise FieldTooLarge("group closure exceeded %d elements"
                                            % _ENUMERATION_ORDER_LIMIT)
        frontier = nxt
    return tuple(sorted(seen.values(), key=OrthogonalMatrix.sort_key))
