import json
import os
import random

import pytest

from conftest import count_calls, seeded_curve

from picforms import equivalence, serialize, triples
from picforms.errors import NotFiniteField, NotInAmbient
from picforms.fields import GF, QQ
from picforms.poly import Polynomial
from picforms.quadform import gram
from picforms.sampling import random_proper_word, random_triple
from picforms.equivalence import KIND_BOTH, KIND_CONJ, KIND_DISTINCT, KIND_EQUAL, same_class
from picforms.galois import (
    class_rational,
    class_rational_mod_conj,
    find_caveat_example,
    galois_context,
    galois_image,
)
from picforms.triples import act, canonicalize, make_triple

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


# -- reference oracles for the Galois predicates --------------------------------

AMBIENTS = [GF(3, 2), GF(5, 2), GF(7, 2), GF(7, 3)]


def _galois_cases():
    for ambient in AMBIENTS:
        for genus in (1, 2):
            for seed in (0, 1):
                yield ambient, seeded_curve(GF(ambient.p), genus, 100 * genus + seed)


def _reference_kind(t, ctx):
    # the class decision with both witnesses built and verified
    return same_class(t, galois_image(t, ctx), extension=1).kind


def _reference_search(curve, ctx, budget, seed):
    rng = random.Random(seed)
    for i in range(budget):
        t = random_triple(curve, ctx.ambient, rng)
        if _reference_kind(t, ctx) == KIND_CONJ:
            return True, i + 1, t
    return False, budget, None


def test_class_rational_matches_reference():
    verdicts = set()
    for ambient, curve in _galois_cases():
        ctx = galois_context(ambient)
        rng = random.Random(ambient.order + curve.genus)
        for _ in range(40):
            t = random_triple(curve, ambient, rng)
            kind = _reference_kind(t, ctx)
            assert class_rational(t, ctx) == (kind in (KIND_EQUAL, KIND_BOTH))
            verdicts.add(kind)
    assert len(verdicts) == 4


def test_caveat_search_matches_reference():
    outcomes = set()
    for ambient, curve in _galois_cases():
        ctx = galois_context(ambient)
        for budget in (1, 30):
            for seed in (1, 2, 3):
                res = find_caveat_example(curve, ctx, budget, seed)
                want = _reference_search(curve, ctx, budget, seed)
                assert (res.found, res.searched, res.triple) == want
                outcomes.add(res.found)
    assert outcomes == {True, False}


def test_constructed_triples_pass_validation():
    # random_triple, galois_image and Triple.embedded build their triples
    # without make_triple; re-validating each must return the same triple
    for ambient, curve in _galois_cases():
        ctx = galois_context(ambient)
        bigger = ambient.extension(2)
        rng = random.Random(ambient.order * curve.genus)
        for _ in range(15):
            base = random_triple(curve, ctx.base, rng)
            t = random_triple(curve, ambient, rng)
            for out in (base, t, galois_image(t, ctx), base.embedded(ambient),
                        t.embedded(bigger)):
                assert make_triple(out.curve, out.u, out.v, out.w, field=out.field) == out


# -- work done by the class decisions -------------------------------------------

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def _fixture_search(p, coeffs):
    with open(os.path.join(FIXTURES, "caveat_search.json")) as fh:
        fixture = json.load(fh)
    for entry in fixture["results"]:
        curve = serialize.curve_from_json(entry["curve"])
        if curve.field.p == p and curve.F == Polynomial(curve.field, coeffs):
            ctx = galois_context(serialize.field_from_json(entry["ambient"]))
            return curve, ctx, fixture["budget"], fixture["seed"], entry
    raise AssertionError("fixture curve not found")


def _gram_passes(curve, ctx, samples, seed):
    """How many of the caveat search's first `samples` draws pass the Gram
    filter: the samples it picks a frame for."""
    rng = random.Random(seed)
    return sum(class_rational_mod_conj(random_triple(curve, ctx.ambient, rng), ctx)
               for _ in range(samples))


def test_caveat_hit_builds_one_witness(monkeypatch):
    curve, ctx, budget, seed, entry = _fixture_search(3, [2, 0, 0, 0, 1])
    expected = _gram_passes(curve, ctx, entry["searched"], seed)
    frames = count_calls(monkeypatch, equivalence, "_frame")
    witnesses = count_calls(monkeypatch, equivalence, "_witness")
    validations = count_calls(monkeypatch, triples, "make_triple")
    res = find_caveat_example(curve, ctx, budget, seed)
    assert res.found and res.searched == entry["searched"]
    assert len(frames) == expected
    assert len(witnesses) == 1
    assert len(validations) == 0


def test_caveat_miss_builds_no_witness(monkeypatch):
    # the sign rule or rank 2 turns every sample away before any witness
    curve, ctx, _, seed, _ = _fixture_search(5, [4, 0, 0, 0, 1])
    expected = _gram_passes(curve, ctx, 1000, seed)
    frames = count_calls(monkeypatch, equivalence, "_frame")
    witnesses = count_calls(monkeypatch, equivalence, "_witness")
    res = find_caveat_example(curve, ctx, 1000, seed)
    assert not res.found and res.searched == 1000
    assert len(frames) == expected > 0
    assert len(witnesses) == 0


def test_class_rational_builds_at_most_one_witness(monkeypatch, curve_f5a, curve_f5b, ctx):
    # one frame per triple that passes the Gram filter, none otherwise, and
    # a witness exactly behind a True
    frames = count_calls(monkeypatch, equivalence, "_frame")
    witnesses = count_calls(monkeypatch, equivalence, "_witness")
    rng = random.Random(59)
    seen = set()
    filtered = set()
    for curve in (curve_f5a, curve_f5b):
        for _ in range(60):
            t = random_triple(curve, F25, rng)
            passes = class_rational_mod_conj(t, ctx)
            before, frames_before = len(witnesses), len(frames)
            verdict = class_rational(t, ctx)
            assert len(witnesses) - before == int(verdict)
            assert len(frames) - frames_before == int(passes)
            seen.add(verdict)
            filtered.add(passes)
    assert seen == {True, False}
    assert filtered == {True, False}
