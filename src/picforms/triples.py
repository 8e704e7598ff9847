"""Triples of linear forms representing degree-(g+1) divisors in general position.

A triple t = (u, v, w) of linear forms in g + 2 variables lies on the
curve when F = W^2 - U*V holds exactly for the degree <= g + 1
polynomials U, V, W matching the forms.  The divisor it represents is cut
out by U(X) = 0, Y = W(X); when deg U < g + 1 the remaining g + 1 - deg U
points sit at one of the two points at infinity, the one whose branch the
top coefficient of W selects.

Triples may live over an extension of the curve's base field; the curve
coefficients embed upward.  The u and v components must be nonzero
(otherwise F would be a square), while w = 0 is allowed and describes
divisors supported on Weierstrass points.

The identity, the group action and the shift of the normal form are sums
of products: the identity is one call of the field's kernel
(:meth:`picforms.fields.Field.dot`) per coefficient, and each new form of
the action or the normal form is one call of its vector form
(``Field._raw_comb``).  Every coefficient is normalised once, so a
rational coefficient is one ``Fraction`` in lowest terms.
``make_triple`` checks the identity coefficient by coefficient without
building polynomials.  Over QQ it checks it on integers: with D the least
common denominator of U, V, W and F, (DW)^2 - (DU)(DV) = D^2 F is one
product on the integer kernel ``fields.ZZ``, and no ``Fraction`` is built.
``act`` does not check it again: an orthogonal matrix keeps W^2 - U V.

A ``Triple`` holds ``FieldElement`` tuples.  The normal form has one
kernel on raw value lists, ``_canonical_forms``, which
``canonicalize``, ``canonicalize_with_matrix`` and the brute-force
oracle of ``picforms.equivalence`` call; the class decision itself
compares normal forms without computing them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import (
    check_form_length,
    embed_form,
    form_to_poly,
    infinity_points,
    poly_to_form,
)
from .errors import NotOnCurve, RationalsUnsupported, ZeroForm
from .fields import QQ, ZZ, FieldElement, _cleared, can_embed, common_field, embed
from .linalg import _mat_mul_raw
from .ortho import OrthogonalMatrix, scale_matrix, shift_matrix
from .poly import Polynomial, _product_coeffs, roots_in_field


class Triple:
    """A validated point of the form variety attached to a curve."""

    __slots__ = ("curve", "field", "u", "v", "w")

    def __init__(self, curve, field, u, v, w):
        self.curve = curve
        self.field = field
        self.u = u
        self.v = v
        self.w = w

    # -- polynomial views ---------------------------------------------------------

    def u_poly(self):
        return form_to_poly(self.u, self.field)

    def v_poly(self):
        return form_to_poly(self.v, self.field)

    def w_poly(self):
        return form_to_poly(self.w, self.field)

    def forms(self):
        return (self.u, self.v, self.w)

    def _raw_forms(self):
        """The raw values of (u, v, w), as three lists."""
        return ([x.value for x in self.u], [x.value for x in self.v],
                [x.value for x in self.w])

    def embedded(self, field):
        # embedding is a ring map fixing F, so the image satisfies the identity
        if field == self.field:
            return self
        return Triple(self.curve, field, embed_form(self.u, field),
                      embed_form(self.v, field), embed_form(self.w, field))

    def __eq__(self, other):
        return (isinstance(other, Triple)
                and self.curve == other.curve and self.field == other.field
                and self.u == other.u and self.v == other.v and self.w == other.w)

    def __hash__(self):
        return hash((self.field, self.u, self.v, self.w))

    def __repr__(self):
        return "Triple(U=%r, V=%r, W=%r)" % (self.u_poly(), self.v_poly(), self.w_poly())


def make_triple(curve, u, v, w, field=None):
    """Validate the identity F = W^2 - U*V and build the triple.

    The forms are sequences of g + 2 field elements (or ints/Fractions,
    coerced into `field`); their common field must contain the curve's.
    """
    genus = curve.genus
    if field is None:
        fields = [c.field for form in (u, v, w) for c in form if hasattr(c, "field")]
        field = curve.field
        for f in fields:
            field = common_field(field, f)
    if not can_embed(curve.field, field):
        raise NotOnCurve("the triple's field does not contain the curve's field")
    u = tuple(field.elem(c) if not hasattr(c, "field") else embed(c, field) for c in u)
    v = tuple(field.elem(c) if not hasattr(c, "field") else embed(c, field) for c in v)
    w = tuple(field.elem(c) if not hasattr(c, "field") else embed(c, field) for c in w)
    for form in (u, v, w):
        check_form_length(form, genus)
    if not any(u):
        raise ZeroForm("u = 0 would force F to be a square")
    if not any(v):
        raise ZeroForm("v = 0 would force F to be a square")
    # coefficient by coefficient: W^2 - U V has degree <= 2g + 2 = deg F
    ur, vr, wr = [c.value for c in u], [c.value for c in v], [c.value for c in w]
    fr = list(curve._raw_F(field))
    kernel = field
    if field is QQ:
        # times D^2: (DW)^2 - (DU)(DV) = D (DF), all on integers
        D, (ur, vr, wr, fr) = _cleared((ur, vr, wr, fr))
        fr = [D * x for x in fr]
        kernel = ZZ
    if _product_coeffs(kernel, wr, wr, ur, vr) != fr:
        raise NotOnCurve("W^2 - U*V != F")
    return Triple(curve, field, u, v, w)


def triple_from_polys(curve, U, V, W, field=None):
    """Convenience constructor from polynomials of degree <= g + 1."""
    if field is None:
        field = U.field
    genus = curve.genus
    return make_triple(curve,
                       poly_to_form(U.embedded(field), genus),
                       poly_to_form(V.embedded(field), genus),
                       poly_to_form(W.embedded(field), genus),
                       field=field)


def act(matrix, t):
    """Replace the column (u, v, w) by matrix @ (u, v, w).

    The matrix must be orthogonal for the pairing (a raw matrix is
    validated by ``OrthogonalMatrix``), and the image is built without
    re-validation: A^T Omega A = Omega gives W'^2 - U'V' = W^2 - UV = F
    coefficient by coefficient, and U' and V' cannot vanish, because a
    squarefree F is not a square.  The product is one ``_mat_mul_raw``
    call on the raw forms.
    """
    if not isinstance(matrix, OrthogonalMatrix):
        matrix = OrthogonalMatrix(matrix)
    field = common_field(matrix.field, t.field)
    rows = list(map(field.values, matrix.embedded(field).rows))
    new = _mat_mul_raw(field, rows, t.embedded(field)._raw_forms())
    return Triple(t.curve, field, *map(field._wrap, new))


def conjugate(t):
    """(u, v, -w): the +-Y involution on representations; an involution."""
    return Triple(t.curve, t.field, t.u, t.v, tuple(-c for c in t.w))


def canonicalize_with_matrix(t):
    """The canonical representative of t's representation orbit, with a witness.

    Normalisation: scale (u, v) so that U is monic, then shift w by the
    unique multiple of u that zeroes the coefficient of X^deg(U) in W.
    Returns (canonical, M) with M a product of scale and shift generators
    and act(M, t) equal to the canonical triple.  The scale and shift
    moves preserve the curve identity, so the result is built directly.
    """
    field = t.field
    forms, c, b = _canonical_forms(field, *t._raw_forms())
    m = shift_matrix(FieldElement(field, b)) @ scale_matrix(
        FieldElement(field, field._raw_inv(c)))
    return Triple(t.curve, field, *map(field._wrap, forms)), m


def _canonical_forms(field, u, v, w):
    """The scale-and-shift normal form of raw form lists over ``field``
    (no validation): ((u', v', w'), c, b), all raw.

    c is the top coefficient of u that the scaling divides out, and b the
    coefficient of w that the shift zeroes; u' = u / c, w' = w - b u' and
    v' = c v + b^2 u' - 2 b w, one vector-kernel call per new form.
    """
    zero, one = field._zero.value, field._one.value
    top = len(u) - 1
    while u[top] == zero:
        top -= 1
    c = u[top]
    comb = field._raw_comb
    nu = comb((field._raw_inv(c),), (u,)) if c != one else u
    b = w[top]
    if b != zero:
        b_2 = field._raw_neg(field._raw_add(b, b))
        v = comb((c, field._raw_mul(b, b), b_2), (v, nu, w))
        w = comb((one, field._raw_neg(b)), (w, nu))
    elif c != one:
        v = comb((c,), (v,))
    return (nu, v, w), c, b


def canonicalize(t):
    field = t.field
    forms, _, _ = _canonical_forms(field, *t._raw_forms())
    return Triple(t.curve, field, *map(field._wrap, forms))


@dataclass(frozen=True)
class DivisorData:
    """Divisor-level view of a triple: U(X) = 0, Y = W(X) plus the infinity part."""
    U_monic: Polynomial
    W_repr: Polynomial
    V_repr: Polynomial
    infinity_multiplicity: int
    infinity_sign: str            # "+", "-", or "none"


def divisor_data(t):
    canon = canonicalize(t)
    U = canon.u_poly()
    W = canon.w_poly()
    V = canon.v_poly()
    genus = t.curve.genus
    mult = genus + 1 - U.degree
    sign = "none"
    if mult > 0:
        # the identity forces W's top coefficient to square to F's leading one
        w_top = W[genus + 1]
        inf = infinity_points(t.curve)
        r_plus = embed(inf.roots[0], canon.field)
        if w_top * w_top != embed(inf.leading, canon.field):
            raise NotOnCurve("the top coefficient of W does not square to F's leading one")
        sign = "+" if w_top == r_plus else "-"
    return DivisorData(U, W, V, mult, sign)


@dataclass(frozen=True)
class SupportData:
    affine: tuple                  # ((x, y, multiplicity), ...) in canonical order
    infinity_sign: str
    infinity_multiplicity: int
    complete: bool
    field: object


def support(t, extension_degree=1):
    """The divisor's support over the named extension of the triple's field.

    Affine points are the roots x of U in that extension together with
    y = W(x); the infinity part comes from the canonical representative.
    ``complete`` records whether U split entirely.
    """
    if t.field.p is None:
        raise RationalsUnsupported("support enumeration needs a finite field")
    if extension_degree < 1:
        raise ValueError("extension degree must be >= 1")
    data = divisor_data(t)
    ext = t.field.extension(extension_degree)
    U = data.U_monic.embedded(ext)
    W = data.W_repr.embedded(ext)
    points = []
    found = 0
    for x, mult in roots_in_field(U):
        y = W(x)
        points.append((x, y, mult))
        found += mult
    complete = found == U.degree
    return SupportData(tuple(points), data.infinity_sign,
                       data.infinity_multiplicity, complete, ext)
