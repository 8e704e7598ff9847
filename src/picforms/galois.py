"""Frobenius action on triples and forms, rationality predicates, and the
search for classes whose invariant is rational while the class itself is not.

Rationality here always means: fixed by the Frobenius generator of the
ambient finite extension over its prime field.  The class predicate asks
whether the divisor class is fixed (decided constructively through the
equivalence search); the weaker mod-conjugation predicate asks whether
the Gram invariant is fixed, which by the double-cover structure says the
Frobenius preserves the unordered pair {class, conjugate class}.

``find_caveat_example`` searches for the strict gap between the two:
triples whose invariant is Frobenius-fixed while the Frobenius sends the
class to its distinct conjugate.  Absence within a budget is a report,
not an error, and the seeded search is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotFiniteField, NotInAmbient
from .fields import GF, Field, can_embed
from .quadform import GramForm, gram
from .equivalence import KIND_BOTH, KIND_CONJ, KIND_EQUAL, same_class
from .sampling import random_triple
from .triples import Triple, make_triple


@dataclass(frozen=True)
class GaloisContext:
    """An ambient finite field together with its prime base field."""
    base: Field
    ambient: Field

    @property
    def relative_degree(self):
        return self.ambient.m // self.base.m


def galois_context(ambient):
    if ambient.p is None:
        raise NotFiniteField("a Galois context needs a finite ambient field")
    return GaloisContext(GF(ambient.p), ambient)


def galois_image(obj, ctx):
    """Entrywise Frobenius image of a triple or Gram form over the ambient."""
    if isinstance(obj, Triple):
        if obj.field != ctx.ambient:
            raise NotInAmbient("triple entries are not in the ambient field")
        if not can_embed(obj.curve.field, ctx.base):
            raise NotInAmbient("the curve must be defined over the base field")
        return make_triple(obj.curve,
                           tuple(c.frobenius() for c in obj.u),
                           tuple(c.frobenius() for c in obj.v),
                           tuple(c.frobenius() for c in obj.w),
                           field=obj.field)
    if isinstance(obj, GramForm):
        if obj.field != ctx.ambient:
            raise NotInAmbient("form entries are not in the ambient field")
        return GramForm(tuple(tuple(c.frobenius() for c in row) for row in obj.entries),
                        obj.field)
    raise TypeError("galois_image acts on triples and Gram forms")


def class_rational_mod_conj(t, ctx):
    """True iff the Gram invariant is Frobenius-fixed (all entries in the base)."""
    if t.field != ctx.ambient:
        raise NotInAmbient("triple entries are not in the ambient field")
    S = gram(t)
    return all(c.frobenius() == c for row in S.entries for c in row)


def class_rational(t, ctx):
    """True iff the divisor class is Frobenius-fixed.

    One generator check suffices: the Galois group of the ambient over the
    base is cyclic, and a class fixed by the generator is fixed by all of
    it.  The equivalence search runs over the ambient field itself.
    """
    image = galois_image(t, ctx)
    rel = same_class(t, image, extension=1)
    return rel.kind in (KIND_EQUAL, KIND_BOTH)


@dataclass(frozen=True)
class CaveatResult:
    """Outcome of the search for a rational invariant with a non-rational class."""
    found: bool
    triple: Triple
    searched: int
    budget: int
    seed: int


def find_caveat_example(curve, ctx, budget, seed, rng_factory=None):
    """Search for t with a Frobenius-fixed Gram invariant whose class moves
    to its conjugate.

    Samples up to `budget` random triples over the ambient field with the
    seeded generator; the first hit (in enumeration order) is returned, so
    the outcome is a deterministic function of (curve, ambient, budget,
    seed).  A miss is reported with the searched count.  The budget must
    be at least 1.
    """
    import random
    if budget < 1:
        raise ValueError("the search budget must be >= 1, got %d" % budget)
    rng = random.Random(seed) if rng_factory is None else rng_factory(seed)
    for i in range(budget):
        t = random_triple(curve, ctx.ambient, rng)
        if not class_rational_mod_conj(t, ctx):
            continue
        rel = same_class(t, galois_image(t, ctx), extension=1)
        if rel.kind == KIND_CONJ:
            return CaveatResult(True, t, i + 1, budget, seed)
    return CaveatResult(False, None, budget, budget, seed)
