"""Exception hierarchy shared by all picforms modules."""


class AlgebraError(Exception):
    """Base class for every error raised by this package."""


# -- scalars and polynomials -------------------------------------------------

class DescriptorMismatch(AlgebraError):
    """Operands live in different (or incompatible) fields."""


class DivisionByZero(AlgebraError, ZeroDivisionError):
    """Division by the zero element or the zero polynomial."""


class NotFiniteField(AlgebraError):
    """A finite-field-only operation (Frobenius, enumeration) got a characteristic-zero input."""


class ZeroPolynomial(AlgebraError):
    """The zero polynomial is not admissible here."""


class LiftRejected(AlgebraError):
    """A Hensel-lifted square root failed its final check: W^2 != F modulo U^e."""


class RationalsUnsupported(AlgebraError):
    """This operation is defined for finite fields only."""


class FieldTooLarge(AlgebraError):
    """Exhaustive enumeration refused: the field exceeds the desk-scale budget."""


class CharacteristicTwo(AlgebraError):
    """Fields of characteristic 2 are outside the scope of the constructions."""


# -- curves and linear forms -------------------------------------------------

class NotSquarefree(AlgebraError):
    """The defining polynomial has a repeated root."""


class WrongDegreeParity(AlgebraError):
    """The defining polynomial must have even degree at least 4."""


class ZeroLeadingCoefficient(AlgebraError):
    """The stated leading coefficient vanishes."""


class LengthMismatch(AlgebraError):
    """A linear form does not have the expected number of coefficients."""


class DegreeTooHigh(AlgebraError):
    """The polynomial does not fit into a linear form of the requested size."""


# -- triples and the group action ---------------------------------------------

class NotOnCurve(AlgebraError):
    """The triple identity F = W^2 - U*V fails."""


class ZeroForm(AlgebraError):
    """The u or v component of a triple vanishes identically."""


class NotOrthogonal(AlgebraError):
    """The matrix does not preserve the triple pairing."""


class ZeroScale(AlgebraError):
    """A scaling generator needs a nonzero parameter."""


class WitnessRejected(AlgebraError):
    """An assembled witness failed its final check: it is not proper, or it does not carry one triple onto the other."""


class SearchExhausted(AlgebraError):
    """A search ran out without an answer: one the theory says must succeed
    found nothing (reported rather than guessed), or the sampler's bounded
    random search drew no triple, as on a curve with too few points."""


# -- quadratic forms ----------------------------------------------------------

class GramMismatch(AlgebraError):
    """The two triples do not share a Gram matrix."""


class DecompositionRejected(AlgebraError):
    """A decomposed triple failed its final check: its Gram matrix is not the form."""


class FactorizationNeedsExtension(AlgebraError):
    """Splitting the rank-2 form requires a quadratic extension that is not available here."""


class NotCurveForm(AlgebraError):
    """The symmetric matrix is not a rank-2/3 form mapping onto the curve polynomial."""


class BudgetExhausted(AlgebraError):
    """The extension-degree budget ran out before a decomposition was found."""


class RationalsNeedHint(AlgebraError):
    """Over the rationals an isotropic vector must be supplied by the caller."""


# -- Galois -------------------------------------------------------------------

class NotInAmbient(AlgebraError):
    """The object's entries do not live in the declared ambient field."""
