"""Hyperelliptic curve models Y^2 = F(X) and the linear-form correspondence.

A curve is an even-degree model: deg F = 2g + 2 with nonzero leading
coefficient and squarefree F over a field of characteristic != 2.  The
genus is always derived from the degree.  The two points at infinity are
described by the square roots of the leading coefficient, taken in the
base field when possible and in its canonical quadratic extension
otherwise.

Linear forms in the g + 2 variables x_0 .. x_{g+1} are plain tuples of
field elements; ``form_to_poly`` and ``poly_to_form`` realise the degree
<= g + 1 identification x_i <-> X^i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegreeTooHigh,
    LengthMismatch,
    NotSquarefree,
    WrongDegreeParity,
    ZeroLeadingCoefficient,
)
from .fields import Field, FieldElement, adjoin_sqrt, embed
from .poly import Polynomial, is_squarefree


class Curve:
    """Validated model Y^2 = F(X) with deg F = 2g + 2."""

    __slots__ = ("field", "F", "genus", "_F_values")

    def __init__(self, field, F, genus):
        self.field = field
        self.F = F
        self.genus = genus
        self._F_values = {}

    def __eq__(self, other):
        return self is other or (isinstance(other, Curve) and self.field == other.field
                                 and self._raw_F(self.field) == other._raw_F(other.field))

    def __hash__(self):
        return hash((self.field, self._raw_F(self.field)))

    def __repr__(self):
        return "Curve(genus %d, Y^2 = %r over %s)" % (self.genus, self.F, self.field.label())

    def embedded_F(self, field):
        return Polynomial._trusted(field, field._wrap(self._raw_F(field)))

    def _raw_F(self, field):
        """The raw coefficients of F over `field`, a field containing the
        curve's, as a tuple; computed once per field and kept on the curve."""
        F = self._F_values.get(field)
        if F is None:
            F = self._F_values[field] = tuple([embed(c, field).value for c in self.F.coeffs])
        return F


def make_curve(coeffs, field):
    """Build and validate a curve from coefficients, lowest degree first.

    Squarefreeness is :func:`picforms.poly.is_squarefree`: over QQ a gcd
    mod one prime certifies most squarefree F, and the exact gcd over QQ
    decides every other F, so a curve is rejected only on the exact answer.
    """
    if isinstance(coeffs, Polynomial):
        F = coeffs
    else:
        coeffs = tuple(coeffs)
        F = Polynomial(field, coeffs)
        if coeffs and F.degree != len(coeffs) - 1:
            raise ZeroLeadingCoefficient("stated leading coefficient vanishes")
    deg = F.degree
    if deg < 4 or deg % 2 != 0:
        raise WrongDegreeParity("deg F = %d; an even degree >= 4 is required" % deg)
    if not is_squarefree(F):
        raise NotSquarefree("F has a repeated root")
    return Curve(field, F, (deg - 2) // 2)


@dataclass(frozen=True)
class InfinityData:
    """The two points at infinity, described by +-sqrt of the leading coefficient.

    ``roots[0]`` is the canonical root (the "+" branch); ``field`` is the
    smallest field containing both roots.
    """
    leading: FieldElement
    sqrt_status: str          # "square-in-base" | "square-in-quadratic-extension"
    roots: tuple
    field: Field


def infinity_points(curve):
    lead = curve.F.leading()
    ext, r = adjoin_sqrt(curve.field, lead)
    status = "square-in-base" if ext is curve.field else "square-in-quadratic-extension"
    return InfinityData(lead, status, (r, -r), ext)


def form_to_poly(form, field=None):
    """The polynomial sum(form[i] * X^i); inverse of :func:`poly_to_form`."""
    if field is None:
        if not form:
            raise LengthMismatch("empty linear form")
        field = form[0].field
    return Polynomial(field, form)


def poly_to_form(f, genus):
    """The length g + 2 coefficient tuple of a polynomial of degree <= g + 1."""
    if f.degree > genus + 1:
        raise DegreeTooHigh("degree %d does not fit genus %d" % (f.degree, genus))
    return tuple(f[i] for i in range(genus + 2))


def check_form_length(form, genus):
    if len(form) != genus + 2:
        raise LengthMismatch("expected %d coefficients, got %d" % (genus + 2, len(form)))


def embed_form(form, field):
    return tuple(embed(c, field) for c in form)
