import json
import os
import random

import pytest

from conftest import count_calls, element_row_reduce, load_tool, seeded_curve

from picforms import linalg, quadform, serialize
from picforms.curves import make_curve
from picforms.equivalence import recover_transform
from picforms.errors import GramMismatch, LengthMismatch, NotCurveForm, RationalsNeedHint
from picforms.fields import GF, QQ, rational_extension
from picforms.ortho import (
    classify,
    flip_matrix,
    scale_matrix,
    shift_matrix,
    swap_shift_matrix,
)
from picforms.poly import Polynomial
from picforms.quadform import (
    GramForm,
    decompose,
    gram,
    gram_to_poly,
    in_curve_forms,
    rank_radical,
)
from picforms.sampling import random_orthogonal_word, random_triple
from picforms.triples import act, conjugate, make_triple

F5 = GF(5)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _gram(field, entries):
    return GramForm(tuple(tuple(field.elem(x) for x in row) for row in entries), field)


def test_gram_examples(curve_q, triple_a, triple_b):
    expect = _gram(QQ, ((-1, 0, 0), (0, 0, 0), (0, 0, 1)))
    assert gram(triple_a) == expect
    assert gram(triple_b) == expect
    c5 = make_curve([2, 0, 4, 0, 1], F5)
    t5 = make_triple(c5, (1, 0, 1), (3, 0, 4), (0, 1, 0))
    assert gram(t5) == _gram(F5, ((2, 0, 4), (0, 1, 0), (4, 0, 1)))


def test_gram_to_poly_examples(curve_q, triple_a):
    assert gram_to_poly(gram(triple_a)) == curve_q.F
    S5 = _gram(F5, ((2, 0, 4), (0, 1, 0), (4, 0, 1)))
    assert gram_to_poly(S5) == Polynomial(F5, (2, 0, 4, 0, 1))
    zero = _gram(QQ, ((0, 0, 0), (0, 0, 0), (0, 0, 0)))
    assert gram_to_poly(zero).is_zero


def test_rank_radical_examples(triple_a):
    r, basis = rank_radical(gram(triple_a))
    assert r == 2
    assert basis == [(QQ.zero(), QQ.one(), QQ.zero())]
    S5 = _gram(F5, ((2, 0, 4), (0, 1, 0), (4, 0, 1)))
    assert rank_radical(S5) == (3, [])
    zero = _gram(QQ, ((0, 0, 0), (0, 0, 0), (0, 0, 0)))
    assert rank_radical(zero)[0] == 0


def test_in_curve_forms(curve_q, triple_a):
    assert in_curve_forms(gram(triple_a), curve_q)
    c5 = make_curve([2, 0, 4, 0, 1], F5)
    S = _gram(F5, ((4, 0, 0), (0, 0, 0), (0, 0, 1)))  # image is X^4 - 1, not F
    assert not in_curve_forms(S, c5)
    rank1 = _gram(QQ, ((0, 0, 0), (0, 0, 0), (0, 0, 1)))  # rank bound
    assert not in_curve_forms(rank1, curve_q)


def test_gram_symmetry_validated():
    with pytest.raises(ValueError):
        _gram(QQ, ((0, 1, 0), (0, 0, 0), (0, 0, 1)))


def test_gram_invariance_under_action(curve_f5a, curve_f5b):
    rng = random.Random(21)
    for curve in (curve_f5a, curve_f5b):
        for _ in range(60):
            t = random_triple(curve, F5, rng)
            m = random_orthogonal_word(F5, rng, improper=bool(rng.randrange(2)))
            assert gram(act(m, t)) == gram(t)
            assert gram(conjugate(t)) == gram(t)


def test_rank_equals_span_dimension(curve_f5a, curve_f5b):
    rng = random.Random(22)
    for curve in (curve_f5a, curve_f5b):
        for _ in range(60):
            t = random_triple(curve, F5, rng)
            r, basis = rank_radical(gram(t))
            assert r == len(element_row_reduce((t.u, t.v, t.w), curve.genus + 2)[1])
            assert r >= 2
            assert r + len(basis) == curve.genus + 2
            assert gram_to_poly(gram(t)) == curve.F


def test_radical_is_common_zero_locus(curve_f5b):
    rng = random.Random(23)
    for _ in range(30):
        t = random_triple(curve_f5b, F5, rng)
        S = gram(t)
        _, basis = rank_radical(S)
        for vec in basis:
            for form in (t.u, t.v, t.w):
                assert not F5.dot(F5.values(form), F5.values(vec))


def test_recover_rank2_worked(curve_q, triple_a, triple_b):
    A = recover_transform(triple_a, triple_b)
    assert act(A, triple_a) == triple_b


def test_recover_identity_pair(curve_q, triple_a):
    A = recover_transform(triple_a, triple_a)
    assert act(A, triple_a) == triple_a


def test_recover_rank3_returns_word_exactly(curve_f5b):
    rng = random.Random(24)
    c5 = curve_f5b
    found = 0
    while found < 30:
        t = random_triple(c5, F5, rng)
        if rank_radical(gram(t))[0] != 3:
            continue
        found += 1
        m = random_orthogonal_word(F5, rng, improper=bool(rng.randrange(2)))
        t2 = act(m, t)
        A = recover_transform(t, t2)
        assert A == m
        # uniqueness: a second call gives the identical matrix
        assert recover_transform(t, t2) == A


def test_recover_rank2_random(curve_f5a):
    rng = random.Random(25)
    exercised = 0
    while exercised < 25:
        t = random_triple(curve_f5a, F5, rng)
        if rank_radical(gram(t))[0] != 2:
            continue
        exercised += 1
        m = random_orthogonal_word(F5, rng, improper=bool(rng.randrange(2)))
        t2 = act(m, t)
        A = recover_transform(t, t2)
        common = A.field
        assert act(A, t.embedded(common)) == t2.embedded(common)


def test_recover_conjugate_is_improper_rank3(curve_f5b):
    rng = random.Random(26)
    while True:
        t = random_triple(curve_f5b, F5, rng)
        if rank_radical(gram(t))[0] == 3:
            break
    A = recover_transform(t, conjugate(t))
    assert not A.proper
    assert A == flip_matrix(F5)


def _rank3_rational_triple(curve_q):
    # divisor (1, 0) + infinity^+: U = X - 1, W = X^2 - X, V = -2X^2 - X - 1
    return make_triple(curve_q, (-1, 1, 0), (-1, -1, -2), (0, -1, 1))


def test_recover_gram_mismatch(curve_q, triple_a):
    t3 = _rank3_rational_triple(curve_q)
    assert gram(t3) != gram(triple_a)
    with pytest.raises(GramMismatch):
        recover_transform(triple_a, t3)


def test_recover_independent_equal_gram_pairs():
    # pairs drawn independently whose Gram matrices happen to agree, not
    # built from a word: the theorem alone says they lie in one orbit
    ranks, proper = set(), set()
    for field in (GF(5), GF(7), GF(5, 2)):
        for genus in (1, 2):
            curve = seeded_curve(GF(field.p), genus, 80 + genus)
            rng = random.Random(81)
            first = {}
            pairs = 0
            while pairs < 40:
                t = random_triple(curve, field, rng)
                t1 = first.setdefault(gram(t), t)
                if t1 == t:
                    continue
                pairs += 1
                A = recover_transform(t1, t)
                assert A.field == field
                assert act(A, t1) == t
                assert (classify(A.rows) == "proper") == A.proper
                ranks.add(rank_radical(gram(t))[0])
                proper.add(A.proper)
    assert ranks == {2, 3} and proper == {True, False}


def test_recover_over_rational_quadratic_extension(curve_q, triple_a):
    # QQ(sqrt 2): the rank-2 form need not split over the field, and the
    # result still lies over it
    K = rational_extension((-2, 0, 1))
    r2 = K.elem((0, 1))
    m = (shift_matrix(r2) @ scale_matrix(r2 + K.one()) @ swap_shift_matrix(r2)
         @ flip_matrix(K))
    t = triple_a.embedded(K)
    assert rank_radical(gram(t))[0] == 2
    A = recover_transform(t, act(m, t))
    assert A.field == K
    assert act(A, t) == act(m, t)
    t = _rank3_rational_triple(curve_q).embedded(K)
    assert rank_radical(gram(t))[0] == 3
    assert recover_transform(t, act(m, t)) == m


def test_decompose_worked_rank2(curve_q, triple_a):
    S = gram(triple_a)
    t = decompose(S, curve_q)
    assert t.w_poly().is_zero
    assert -t.u_poly() * t.v_poly() == curve_q.F
    assert gram(t) == S


def test_decompose_rank3(curve_f5b):
    S = _gram(F5, ((2, 0, 4), (0, 1, 0), (4, 0, 1)))
    t = decompose(S, curve_f5b)
    assert gram(t) == S.embedded(t.field)


def test_decompose_section_random(curve_f5a, curve_f5b):
    rng = random.Random(27)
    for curve in (curve_f5a, curve_f5b):
        for _ in range(40):
            t = random_triple(curve, F5, rng)
            S = gram(t)
            t2 = decompose(S, curve)
            assert gram(t2) == S.embedded(t2.field)


def test_decompose_not_curve_form(curve_q):
    S = _gram(QQ, ((1, 0, 0), (0, 0, 0), (0, 0, 1)))  # maps to X^4 + 1 != F
    with pytest.raises(NotCurveForm):
        decompose(S, curve_q)


def test_decompose_rank2_quadratic_extension():
    # S = x0^2 + 2*x2^2 maps onto 2X^4 + 1; the splitting needs sqrt(-2)
    c = make_curve([1, 0, 0, 0, 2], F5)
    S = _gram(F5, ((1, 0, 0), (0, 0, 0), (0, 0, 2)))
    t = decompose(S, c)
    assert t.field == GF(5, 2)
    assert gram(t) == S.embedded(t.field)


def test_decompose_rationals_need_hint(curve_q):
    t = _rank3_rational_triple(curve_q)
    S = gram(t)
    assert rank_radical(S)[0] == 3
    with pytest.raises(RationalsNeedHint):
        decompose(S, curve_q)
    # u(1,1,1) = 0 makes (1, 1, 1) an isotropic vector for w^2 - u*v
    hint = (QQ.one(), QQ.one(), QQ.one())
    values = QQ.values(hint)
    s_hint = [QQ.dot(QQ.values(row), values) for row in S.entries]
    assert not QQ.dot(values, QQ.values(s_hint))
    t2 = decompose(S, curve_q, isotropic_hint=hint)
    assert gram(t2) == S.embedded(t2.field)


def test_decompose_rejects_a_hint_of_the_wrong_length(curve_q):
    # the hint's length is checked before its entries are read, whatever the
    # rank: the rank-2 form diag(-1, 0, 1) needs no hint, but one of three
    # entries is accepted and any other length is an input error
    rank2 = _gram(QQ, ((-1, 0, 0), (0, 0, 0), (0, 0, 1)))
    assert rank_radical(rank2)[0] == 2
    assert gram(decompose(rank2, curve_q, isotropic_hint=(QQ.one(),) * 3)) == rank2
    for S in (gram(_rank3_rational_triple(curve_q)), rank2):
        for n in (2, 4, 5):
            with pytest.raises(LengthMismatch):
                decompose(S, curve_q, isotropic_hint=(QQ.one(),) * n)


def _section_cases(curve_q, triple_a):
    """(S, curve, hint): rank 2 over QQ, rank 2 needing sqrt(-2), rank 3
    searched over GF(5), and rank 3 from a hint over QQ."""
    one = QQ.one()
    return [
        (gram(triple_a), curve_q, None),
        (_gram(F5, ((1, 0, 0), (0, 0, 0), (0, 0, 2))), make_curve([1, 0, 0, 0, 2], F5), None),
        (_gram(F5, ((2, 0, 4), (0, 1, 0), (4, 0, 1))), make_curve([2, 0, 4, 0, 1], F5), None),
        (gram(_rank3_rational_triple(curve_q)), curve_q, (one, one, one)),
    ]


def _count_during_decompose(monkeypatch, case, module, name):
    S, curve, hint = case
    calls = count_calls(monkeypatch, module, name)
    t = decompose(S, curve, isotropic_hint=hint)
    monkeypatch.undo()
    assert gram(t) == S.embedded(t.field)
    return len(calls)


def test_decompose_splits_the_form_once(monkeypatch, curve_q, triple_a):
    # the split both checks the rank and feeds the section
    for case in _section_cases(curve_q, triple_a):
        assert _count_during_decompose(monkeypatch, case, quadform, "_split_diagonal") == 1


def test_decompose_takes_no_rank(curve_q, triple_a):
    # the rank is the number of pieces of the split, and linalg has no rank
    assert not hasattr(linalg, "rank")
    for S, curve, _ in _section_cases(curve_q, triple_a):
        assert len(quadform._curve_pieces(S, curve)) == rank_radical(S)[0]


def _outside_sweep_cases():
    """(label, curve, S, hint) over fields the section sweep leaves out:
    rank 2 and rank 3 over GF(5^3) and GF(2^61 - 1), drawn as the sweep
    draws them (every second rank-3 form with a hint), and forms over
    QQ(sqrt 2) whose section exists there, some with irrational entries."""
    sweep = load_tool("section_sweep.py")
    rng = random.Random(5)
    for field in (GF(5, 3), GF(2 ** 61 - 1)):
        for genus in (1, 2):
            for rank in (2, 3):
                for i in range(5):
                    curve, t = sweep._triple(field, genus, rank, rng)
                    hint = sweep._hint(t) if rank == 3 and i % 2 else None
                    yield "%s/g%d/r%d" % (field.label(), genus, rank), curve, gram(t), hint
    K = rational_extension((-2, 0, 1))
    zero, one, r2 = K.zero(), K.one(), K.elem((0, 1))
    # (X - 1)(X - sqrt 2), -(X + 1)(X + sqrt 2), 0 on (X^2 - 1)(X^2 - 2)
    u = (r2, -one - r2, one)
    v = (-r2, -one - r2, -one)
    curve = make_curve(-(Polynomial(K, u) * Polynomial(K, v)), K)
    yield "K/r2", curve, gram(make_triple(curve, u, v, (zero,) * 3, field=K)), None
    curve_q = make_curve([-1, 0, 0, 0, 1], QQ)
    t = _rank3_rational_triple(curve_q).embedded(K)
    yield "K/r3", curve_q, gram(t), (one, one, one)
    for u, v, w in (((-r2, one, zero), (-one, -one, K.elem(-2)), (zero, -r2, one)),
                    ((-r2, one, zero), (r2, one, one), (zero, -r2, one)),
                    ((one, r2, zero), (r2, zero, one), (zero, one, r2))):
        W = Polynomial(K, w)
        curve = make_curve(W * W - Polynomial(K, u) * Polynomial(K, v), K)
        t = make_triple(curve, u, v, w, field=K)
        yield "K/r3", curve, gram(t), sweep._hint(t)


def _outside_sweep_rows():
    rows = []
    for label, curve, S, hint in _outside_sweep_cases():
        rank, radical = rank_radical(S)
        rows.append({
            "case": label,
            "hint": hint and serialize.scalars_to_json(hint),
            "rank": rank,
            "radical": [serialize.scalars_to_json(v) for v in radical],
            "triple": serialize.triple_to_json(decompose(S, curve, isotropic_hint=hint)),
        })
    return rows


def test_decompose_pinned_outside_the_sweep_fields():
    # ranks, radicals and sections over GF(5^3), GF(2^61 - 1) and QQ(sqrt 2),
    # as the elementwise section computed them
    with open(os.path.join(ROOT, "tests", "fixtures", "decompose_outside_sweep.json")) as fh:
        assert _outside_sweep_rows() == json.load(fh)
