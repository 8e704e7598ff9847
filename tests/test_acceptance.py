"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Each criterion prints one "PASS criterion N (...s): summary" line (visible
with pytest -s) and asserts its runtime bound.  Random data is drawn from
fixed seeds, so the whole suite is reproducible bit for bit.
"""

import json
import os
import random
import time

from conftest import element_row_reduce, rational_triples

from picforms import serialize
from picforms.cli import run_command
from picforms.fields import GF, QQ
from picforms.poly import Polynomial
from picforms.quadform import decompose, gram, rank_radical
from picforms.sampling import (
    random_b_word,
    random_orthogonal_word,
    random_proper_word,
    random_triple,
)
from picforms.equivalence import (
    KIND_BOTH,
    KIND_CONJ,
    KIND_EQUAL,
    orbit_oracle,
    recover_transform,
    reduction_step,
    same_class,
)
from picforms.galois import (
    class_rational,
    class_rational_mod_conj,
    find_caveat_example,
    galois_context,
    galois_image,
)
from picforms.ortho import enumerate_special_orthogonal
from picforms.triples import act, canonicalize, canonicalize_with_matrix, conjugate

F5 = GF(5)
F7 = GF(7)
F25 = GF(5, 2)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _report(number, limit, start, summary):
    elapsed = time.time() - start
    assert elapsed < limit, "criterion %d exceeded its %.0fs budget: %.1fs" % (
        number, limit, elapsed)
    print("PASS criterion %d (%.2fs): %s" % (number, elapsed, summary))


def _four_curve_samples(curve_q, curve_f5a, curve_f5b, curve_f7, seed, per_curve,
                        improper_mix=True):
    """(triple, word) pairs across the four acceptance curves."""
    rng = random.Random(seed)
    pairs = []
    for curve in (curve_f5a, curve_f5b, curve_f7):
        field = curve.field
        for _ in range(per_curve):
            t = random_triple(curve, field, rng)
            improper = improper_mix and bool(rng.randrange(2))
            pairs.append((t, random_orthogonal_word(field, rng, improper=improper)))
    for t in rational_triples(curve_q, rng, per_curve):
        improper = improper_mix and bool(rng.randrange(2))
        pairs.append((t, random_orthogonal_word(QQ, rng, improper=improper)))
    return pairs


def test_criterion_01_identity_preserved(curve_q, curve_f5a, curve_f5b, curve_f7):
    start = time.time()
    pairs = _four_curve_samples(curve_q, curve_f5a, curve_f5b, curve_f7, 101, 125)
    assert len(pairs) == 500
    for t, word in pairs:
        image = act(word, t)
        W, U, V = image.w_poly(), image.u_poly(), image.v_poly()
        assert W * W - U * V == t.curve.embedded_F(image.field)
    _report(1, 10, start, "orbit identity W^2 - U*V = F on 500 samples, 4 curves")


def test_criterion_02_gram_invariance(curve_q, curve_f5a, curve_f5b, curve_f7):
    start = time.time()
    pairs = _four_curve_samples(curve_q, curve_f5a, curve_f5b, curve_f7, 101, 125)
    for t, word in pairs:
        assert gram(act(word, t)) == gram(t)
    _report(2, 10, start, "Gram matrix unchanged entrywise on the same 500 samples")


def test_criterion_03_canonical_form_invariance(curve_q, curve_f5a, curve_f5b, curve_f7):
    start = time.time()
    rng = random.Random(303)
    triples = []
    for curve in (curve_f5a, curve_f5b, curve_f7):
        triples += [random_triple(curve, curve.field, rng) for _ in range(75)]
    triples += rational_triples(curve_q, rng, 75)
    assert len(triples) == 300
    for t in triples:
        beta = random_b_word(t.field, rng)
        canon, matrix = canonicalize_with_matrix(t)
        assert canonicalize(act(beta, t)) == canon
        assert act(matrix, t) == canon and matrix.proper
    _report(3, 5, start, "canonical form is a representation-orbit invariant, "
                         "300 random words, witnessed")


def test_criterion_04_class_round_trip(curve_f5a, curve_f7):
    start = time.time()
    rng = random.Random(404)
    for curve, count in ((curve_f5a, 100), (curve_f7, 100)):
        field = curve.field
        for _ in range(count):
            t = random_triple(curve, field, rng)
            m = random_proper_word(field, rng)
            rel = same_class(t, act(m, t))
            assert rel.kind in (KIND_EQUAL, KIND_BOTH)
            w = rel.witness
            assert w.proper
            assert canonicalize(act(w, t.embedded(w.field))) == \
                canonicalize(act(m, t).embedded(w.field))
    for curve, count in ((curve_f5a, 100), (curve_f7, 100)):
        field = curve.field
        for _ in range(count):
            t = random_triple(curve, field, rng)
            m = random_orthogonal_word(field, rng, improper=True)
            rel = same_class(t, act(m, t))
            assert rel.kind in (KIND_CONJ, KIND_BOTH)
            w = rel.conjugate_witness
            assert w.proper
            assert canonicalize(act(w, t.embedded(w.field))) == \
                canonicalize(conjugate(act(m, t)).embedded(w.field))
    _report(4, 60, start, "proper words give equal classes, improper words conjugate "
                          "classes, 400 verified witnesses over GF(5) and GF(7)")


def test_criterion_05_oracle_equivalence(curve_f5a):
    start = time.time()
    group = enumerate_special_orthogonal(F5)
    assert len(group) == 5 ** 3 - 5
    rng = random.Random(505)
    triples = [random_triple(curve_f5a, F5, rng) for _ in range(30)]
    checked = 0
    for i in range(len(triples)):
        for j in range(i + 1, len(triples)):
            assert same_class(triples[i], triples[j]).kind == \
                orbit_oracle(triples[i], triples[j])
            checked += 1
    assert checked == 435
    _report(5, 120, start, "search agrees with the exhaustive 120-element oracle "
                           "on all 435 pairs")


def test_criterion_06_rank_law(curve_q, curve_f5a, curve_f5b, curve_f7):
    start = time.time()
    rng = random.Random(606)
    triples = []
    for curve in (curve_f5a, curve_f5b, curve_f7):
        triples += [random_triple(curve, curve.field, rng) for _ in range(125)]
    triples += rational_triples(curve_q, rng, 125)
    assert len(triples) == 500
    for t in triples:
        r = rank_radical(gram(t))[0]
        assert r == len(element_row_reduce((t.u, t.v, t.w), len(t.u))[1])
        assert r >= 2
    _report(6, 10, start, "rank of the invariant equals dim span{u,v,w} and is >= 2, "
                          "500 samples")


def test_criterion_07_recovery(curve_f5a, curve_f5b):
    start = time.time()
    rng = random.Random(707)
    rank2_hits = 0
    for i in range(200):
        curve = curve_f5a if i % 2 else curve_f5b
        t = random_triple(curve, F5, rng)
        m = random_orthogonal_word(F5, rng, improper=bool(rng.randrange(2)))
        t2 = act(m, t)
        A = recover_transform(t, t2)
        common = A.field
        assert act(A, t.embedded(common)) == t2.embedded(common)
        if rank_radical(gram(t))[0] == 3:
            assert A == m
        else:
            rank2_hits += 1
    assert rank2_hits >= 50
    _report(7, 30, start, "transition matrix recovered from the match records and "
                          "verified on 200 pairs (%d of rank 2)" % rank2_hits)


def test_criterion_08_section(curve_f5a, curve_f5b):
    start = time.time()
    rng = random.Random(808)
    for i in range(200):
        curve = curve_f5a if i % 2 else curve_f5b
        t = random_triple(curve, F5, rng)
        S = gram(t)
        t2 = decompose(S, curve)
        assert gram(t2) == S.embedded(t2.field)
    _report(8, 30, start, "decompose is a section of the invariant on 200 samples")


def test_criterion_09_rationality_criterion(curve_f5a, curve_f5b):
    start = time.time()
    ctx = galois_context(F25)
    rng = random.Random(909)
    for i in range(100):
        curve = curve_f5a if i % 2 else curve_f5b
        t = random_triple(curve, F25, rng)
        fixed_gram = class_rational_mod_conj(t, ctx)
        rel = same_class(t, galois_image(t, ctx), extension=1)
        assert fixed_gram == (rel.kind != "distinct")
        if class_rational(t, ctx):
            assert fixed_gram
    _report(9, 60, start, "Gram fixed by Frobenius iff the class pair is preserved; "
                          "class rationality implies it; 100 samples over GF(25)")


def test_criterion_10_worked_fixture(curve_q, triple_a, triple_b, tmp_path):
    start = time.time()
    step = reduction_step(triple_b, 1)
    assert step.u_poly() == Polynomial(QQ, (-2,))
    assert step.v_poly() == Polynomial(QQ, (-1, 0, -1))
    assert step.w_poly() == Polynomial(QQ, (1, 0, 1))
    assert canonicalize(step) == triple_a
    rel = same_class(triple_a, triple_b)
    assert rel.kind == KIND_BOTH

    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    argv = [
        "class-relation",
        "--curve", write("c.json", serialize.curve_to_json(curve_q)),
        "--t1", write("t1.json", serialize.triple_to_json(triple_a, with_field=False)),
        "--t2", write("t2.json", serialize.triple_to_json(triple_b, with_field=False)),
    ]
    code1, payload1 = run_command(argv)
    code2, payload2 = run_command(argv)
    assert code1 == code2 == 0
    bytes1, bytes2 = serialize.dumps(payload1), serialize.dumps(payload2)
    assert bytes1 == bytes2
    with open(os.path.join(FIXTURES, "class_relation_worked.json")) as fh:
        assert bytes1 == fh.read()
    _report(10, 1, start, "worked reduction chain reproduces exactly with "
                          "byte-stable witness output")


def test_criterion_11_caveat_search():
    start = time.time()
    with open(os.path.join(FIXTURES, "caveat_search.json")) as fh:
        fixture = json.load(fh)
    assert len(fixture["results"]) >= 3
    for entry in fixture["results"]:
        curve = serialize.curve_from_json(entry["curve"])
        ambient = serialize.field_from_json(entry["ambient"])
        ctx = galois_context(ambient)
        res = find_caveat_example(curve, ctx, fixture["budget"], fixture["seed"])
        assert res.found == entry["found"]
        assert res.searched == entry["searched"]
        if res.found:
            expected = serialize.triple_from_json(curve, entry["triple"])
            assert res.triple == expected
            assert class_rational_mod_conj(res.triple, ctx)
            rel = same_class(res.triple, galois_image(res.triple, ctx), extension=1)
            assert rel.kind == KIND_CONJ
    found = sum(1 for e in fixture["results"] if e["found"])
    _report(11, 120, start, "deterministic caveat search over %d curves "
                            "(%d witnesses, %d structured not-found reports)" % (
                                len(fixture["results"]), found,
                                len(fixture["results"]) - found))
