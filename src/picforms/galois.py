"""Frobenius action on triples and forms, rationality predicates, and the
search for classes whose invariant is rational while the class itself is not.

Rationality here always means: fixed by the Frobenius generator of the
ambient finite extension over its prime field.  The class predicate asks
whether the divisor class is fixed; the weaker mod-conjugation predicate
asks whether the Gram invariant is fixed, which by the double-cover
structure says the Frobenius preserves the unordered pair {class,
conjugate class}.

``find_caveat_example`` searches for the strict gap between the two:
triples whose invariant is Frobenius-fixed while the Frobenius sends the
class to its distinct conjugate.  Absence within a budget is a report,
not an error, and the seeded search is reproducible.

Both the class predicate and the search filter on the Gram test and then
decide on the frame of t that the equivalence module picks, against its
Frobenius image phi(t).  In rank 3 the sign rule decides alone: with
delta the frame's minor, phi(delta) = delta admits only a witness onto
phi(t) and phi(delta) = -delta only one onto conj(phi(t)), so a sample
with any other image is "not rational" and "not a hit" without a
witness.  In rank 2 a sample is never a hit: the reflection in the
frame's normal n fixes T and is improper, so a proper witness onto
conj(phi(t)) times it is one onto phi(t).  The witness behind a True or a
returned hit is built and checked once, and no other witness is built.
One helper checks the fields at every entry: the curve lies over the
base, and a triple's entries lie in the ambient; the search checks the
curve once, before it samples.  Like the class decision they read each triple's raw
values once: the Gram filter, the Frobenius image and the frame all run
on raw values, and an invariant entry is Frobenius-fixed exactly when it
lies in the prime field, the constants of the power basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotFiniteField, NotInAmbient
from .fields import GF, Field, can_embed
from .equivalence import _conjugate, _frame, _signs, _witness, _witnesses
from .quadform import GramForm, _twice_gram
from .sampling import random_triple
from .triples import Triple


@dataclass(frozen=True)
class GaloisContext:
    """An ambient finite field together with its prime base field."""
    base: Field
    ambient: Field


def galois_context(ambient):
    if ambient.p is None:
        raise NotFiniteField("a Galois context needs a finite ambient field")
    return GaloisContext(GF(ambient.p), ambient)


def galois_image(obj, ctx):
    """Entrywise Frobenius image of a triple or Gram form over the ambient.

    The image is built without re-validation: the curve is defined over
    the base field, so the Frobenius fixes F, and as a ring automorphism
    it carries W^2 - U V = F and the symmetry of a Gram form over.
    """
    if isinstance(obj, Triple):
        _check_fields(ctx, obj.curve, obj.field)
        field = obj.field
        return Triple(obj.curve, field,
                      *map(field._wrap, _frobenius_forms(field, obj._raw_forms())))
    if isinstance(obj, GramForm):
        if obj.field != ctx.ambient:
            raise NotInAmbient("form entries are not in the ambient field")
        return GramForm._trusted(
            tuple(tuple(c.frobenius() for c in row) for row in obj.entries), obj.field)
    raise TypeError("galois_image acts on triples and Gram forms")


def _check_fields(ctx, curve, field=None):
    """NotInAmbient unless the curve lies over the base and, when given,
    `field` is the ambient: then the Frobenius of ctx fixes the curve and
    acts on entries in `field`."""
    if field is not None and field != ctx.ambient:
        raise NotInAmbient("triple entries are not in the ambient field")
    if not can_embed(curve.field, ctx.base):
        raise NotInAmbient("the curve must be defined over the base field")


def _frobenius_forms(field, forms):
    """The entrywise Frobenius image of raw forms."""
    frob = field._raw_frobenius
    return tuple([frob(x) for x in form] for form in forms)


def _gram_fixed(field, forms):
    """True iff the Gram invariant of the raw forms is Frobenius-fixed.

    An element is fixed iff it lies in the prime field, the constants of
    the power basis, so only the other coordinates are read; they vanish
    for twice the entry exactly when they do for the entry.
    """
    if field.m == 1:
        return True
    return not any(any(x[1:]) for x in _twice_gram(field, *forms))


def class_rational_mod_conj(t, ctx):
    """True iff the Gram invariant is Frobenius-fixed (all entries in the base)."""
    _check_fields(ctx, t.curve, t.field)
    return _gram_fixed(t.field, t._raw_forms())


def class_rational(t, ctx):
    """True iff the divisor class is Frobenius-fixed.

    One generator check suffices: the Galois group of the ambient over the
    base is cyclic, and a class fixed by the generator is fixed by all of
    it.  The Gram test filters first (gram(phi t) = phi(gram t), so equal
    classes need a Frobenius-fixed invariant); then the witness onto phi(t)
    is built over the ambient field itself, only when the sign rule admits
    it, and checked once.
    """
    _check_fields(ctx, t.curve, t.field)
    field = t.field
    forms = t._raw_forms()
    if not _gram_fixed(field, forms):
        return False
    return next(_witnesses(field, forms, _frobenius_forms(field, forms))) is not None


@dataclass(frozen=True)
class CaveatResult:
    """Outcome of the search for a rational invariant with a non-rational class."""
    found: bool
    triple: Triple
    searched: int
    budget: int
    seed: int


def find_caveat_example(curve, ctx, budget, seed):
    """Search for t with a Frobenius-fixed Gram invariant whose class moves
    to its conjugate.

    Samples up to `budget` random triples over the ambient field with the
    seeded generator; the first hit (in enumeration order) is returned, so
    the outcome is a deterministic function of (curve, ambient, budget,
    seed).  A sample is a hit when its Frobenius image is the image of a
    proper witness onto its conjugate and of none onto itself: in rank 3
    the sign rule picks the candidates, and a rank-2 sample is never a hit
    (module docstring).  Only the witness behind the returned hit is built
    and checked.  A miss is reported with the searched count.  The
    budget must be at least 1, and the curve must lie over the base field
    (``NotInAmbient`` otherwise, whatever the budget).
    """
    import random
    if budget < 1:
        raise ValueError("the search budget must be >= 1, got %d" % budget)
    _check_fields(ctx, curve)
    rng = random.Random(seed)
    field = ctx.ambient
    for i in range(budget):
        t = random_triple(curve, field, rng)
        forms = t._raw_forms()
        if not _gram_fixed(field, forms):
            continue
        frame = _frame(field, forms)
        if len(frame[0]) == 2:
            # the reflection in n fixes T and is improper, so a witness onto
            # conj(phi t) gives one onto phi t: never a hit
            continue
        image = _frobenius_forms(field, forms)
        if _signs(field, frame, image) == (False, True) and \
                _witness(field, frame, forms, _conjugate(field, image)) is not None:
            return CaveatResult(True, t, i + 1, budget, seed)
    return CaveatResult(False, None, budget, budget, seed)
