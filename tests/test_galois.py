import random

import pytest

from picforms.errors import NotFiniteField, NotInAmbient
from picforms.fields import GF, QQ
from picforms.quadform import gram
from picforms.sampling import random_proper_word, random_triple
from picforms.equivalence import KIND_DISTINCT, same_class
from picforms.galois import (
    class_rational,
    class_rational_mod_conj,
    find_caveat_example,
    galois_context,
    galois_image,
)
from picforms.triples import act, canonicalize

F5 = GF(5)
F25 = GF(5, 2)


@pytest.fixture(scope="module")
def ctx():
    return galois_context(F25)


def test_context_requires_finite():
    with pytest.raises(NotFiniteField):
        galois_context(QQ)


def test_base_triple_fixed(curve_f5b, ctx):
    rng = random.Random(50)
    t = random_triple(curve_f5b, F5, rng).embedded(F25)
    assert galois_image(t, ctx) == t


def test_frobenius_order(curve_f5b, ctx):
    rng = random.Random(51)
    t = random_triple(curve_f5b, F25, rng)
    assert galois_image(galois_image(t, ctx), ctx) == t


def test_equivariance(curve_f5b, ctx):
    rng = random.Random(52)
    for _ in range(60):
        t = random_triple(curve_f5b, F25, rng)
        gi = galois_image(t, ctx)
        assert gram(gi) == galois_image(gram(t), ctx)
        assert canonicalize(gi) == galois_image(canonicalize(t), ctx)


def test_ambient_mismatch(curve_f5b, ctx):
    rng = random.Random(53)
    t = random_triple(curve_f5b, F5, rng)
    with pytest.raises(NotInAmbient):
        galois_image(t, ctx)


def test_rational_gram_with_irrational_entries(curve_f5b, ctx):
    # the invariant's fiber is one orthogonal orbit: moving a base triple by
    # an ambient word keeps the Gram matrix in the base field
    rng = random.Random(54)
    found = False
    for _ in range(40):
        t0 = random_triple(curve_f5b, F5, rng).embedded(F25)
        t = act(random_proper_word(F25, rng), t0)
        assert class_rational_mod_conj(t, ctx)
        assert class_rational(t, ctx)
        if any(c.frobenius() != c for form in t.forms() for c in form):
            found = True
    assert found


def test_irrational_gram_detected(curve_f5b, ctx):
    rng = random.Random(55)
    found = False
    for _ in range(200):
        t = random_triple(curve_f5b, F25, rng)
        if any(c.frobenius() != c for row in gram(t).entries for c in row):
            assert not class_rational_mod_conj(t, ctx)
            assert not class_rational(t, ctx)
            found = True
            break
    assert found


def test_rational_implies_mod_conj(curve_f5a, curve_f5b, ctx):
    rng = random.Random(56)
    for curve in (curve_f5a, curve_f5b):
        for _ in range(50):
            t = random_triple(curve, F25, rng)
            if class_rational(t, ctx):
                assert class_rational_mod_conj(t, ctx)


def test_mod_conj_iff_frobenius_keeps_pair(curve_f5a, curve_f5b, ctx):
    rng = random.Random(57)
    for curve in (curve_f5a, curve_f5b):
        for _ in range(50):
            t = random_triple(curve, F25, rng)
            rel = same_class(t, galois_image(t, ctx), extension=1)
            assert class_rational_mod_conj(t, ctx) == (rel.kind != KIND_DISTINCT)


def test_rationality_invariant_under_base_words(curve_f5b, ctx):
    rng = random.Random(58)
    for _ in range(20):
        t = random_triple(curve_f5b, F25, rng)
        m = random_proper_word(F5, rng).embedded(F25)
        t2 = act(m, t)
        assert class_rational(t, ctx) == class_rational(t2, ctx)
        assert class_rational_mod_conj(t, ctx) == class_rational_mod_conj(t2, ctx)


def test_caveat_found_example_verifies(curve_f5b, ctx):
    res = find_caveat_example(curve_f5b, ctx, budget=300, seed=1)
    assert res.found
    t = res.triple
    assert class_rational_mod_conj(t, ctx)
    assert not class_rational(t, ctx)
    rel = same_class(t, galois_image(t, ctx), extension=1)
    assert rel.kind == "conjugate-only"


def test_caveat_deterministic(curve_f5b, ctx):
    r1 = find_caveat_example(curve_f5b, ctx, budget=50, seed=9)
    r2 = find_caveat_example(curve_f5b, ctx, budget=50, seed=9)
    assert r1.found == r2.found and r1.searched == r2.searched
    assert r1.triple == r2.triple


def test_caveat_budget_zero(curve_f5b, ctx):
    # an empty or negative budget is an input error, not a zero-sample report
    for budget in (0, -3):
        with pytest.raises(ValueError):
            find_caveat_example(curve_f5b, ctx, budget=budget, seed=3)
