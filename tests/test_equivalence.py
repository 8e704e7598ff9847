import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import count_calls, det, load_tool, rational_triples, seeded_curve

from picforms import equivalence
from picforms.curves import make_curve
from picforms.errors import RationalsUnsupported, WitnessRejected
from picforms.fields import GF, QQ, ZZ, FieldElement
from picforms.linalg import _mat_mul_raw
from picforms.poly import Polynomial, gcd as poly_gcd, is_squarefree
from picforms.quadform import _twice_gram, gram, rank_radical
from picforms.sampling import random_orthogonal_word, random_proper_word, random_triple
from picforms.equivalence import (
    KIND_BOTH,
    KIND_CONJ,
    KIND_DISTINCT,
    KIND_EQUAL,
    _parameter,
    orbit_oracle,
    reduction_step,
    same_class,
    swap_step,
)
from picforms.triples import act, canonicalize, conjugate, make_triple

F5 = GF(5)


def test_reduction_step_worked(curve_q, triple_a, triple_b):
    t = reduction_step(triple_b, 1)
    assert t.u_poly() == Polynomial(QQ, (-2,))
    assert t.v_poly() == Polynomial(QQ, (-1, 0, -1))
    assert t.w_poly() == Polynomial(QQ, (1, 0, 1))
    assert canonicalize(t) == triple_a


def test_reduction_step_zero_is_identity(curve_q, triple_b):
    assert reduction_step(triple_b, 0) == triple_b


def test_reduction_never_degenerates_on_valid_triples(curve_f5b):
    # u' = 0 would force F = (w - a v)^2, impossible for squarefree F, so
    # every parameter gives a valid triple (act -> make_triple raises
    # ZeroForm on a vanishing form).
    rng = random.Random(31)
    for _ in range(60):
        t = random_triple(curve_f5b, F5, rng)
        for a in F5.elements():
            t2 = reduction_step(t, a)
            assert gram(t2) == gram(t)


def test_swap_step_examples(curve_q, triple_a, curve_f5b):
    s = swap_step(triple_a)
    assert s.u_poly() == Polynomial(QQ, (1,))
    assert s.w_poly() == Polynomial(QQ, (0, 0, -1))
    assert swap_step(s) == triple_a
    t5 = make_triple(curve_f5b, (1, 0, 1), (3, 0, 4), (0, 1, 0))
    s5 = swap_step(t5)
    assert s5.u_poly() == Polynomial(F5, (3, 0, 4))
    assert s5.v_poly() == Polynomial(F5, (1, 0, 1))
    assert s5.w_poly() == Polynomial(F5, (0, 4))


def test_same_class_worked_fixture(curve_q, triple_a, triple_b):
    rel = same_class(triple_a, triple_b)
    assert rel.kind == KIND_BOTH
    assert act(rel.witness, triple_a) == triple_b
    assert rel.witness.proper
    assert act(rel.conjugate_witness, triple_a) == conjugate(triple_b)
    assert rel.search_domain == QQ


def test_same_class_self(curve_q, triple_a, triple_b):
    # rank-2 classes are self-conjugate
    assert same_class(triple_a, triple_a).kind == KIND_BOTH
    assert same_class(triple_b, triple_b).kind == KIND_BOTH


def test_same_class_rational_rank3_conjugate(curve_q):
    t3 = make_triple(curve_q, (-1, 1, 0), (-1, -1, -2), (0, -1, 1))
    assert rank_radical(gram(t3))[0] == 3
    rel_self = same_class(t3, t3)
    assert rel_self.kind == KIND_EQUAL
    rel = same_class(t3, conjugate(t3))
    assert rel.kind == KIND_CONJ
    assert act(rel.conjugate_witness, t3) == conjugate(conjugate(t3))


def test_same_class_distinct_gram(curve_q, triple_a):
    t3 = make_triple(curve_q, (-1, 1, 0), (-1, -1, -2), (0, -1, 1))
    assert same_class(triple_a, t3).kind == KIND_DISTINCT


def test_same_class_proper_action(curve_f5a, curve_f5b):
    rng = random.Random(32)
    for curve in (curve_f5a, curve_f5b):
        for _ in range(25):
            t = random_triple(curve, F5, rng)
            m = random_proper_word(F5, rng)
            rel = same_class(t, act(m, t))
            assert rel.kind in (KIND_EQUAL, KIND_BOTH)
            wit = rel.witness
            assert wit.proper
            assert canonicalize(act(wit, t.embedded(wit.field))) == \
                canonicalize(act(m, t).embedded(wit.field))


def test_same_class_improper_action(curve_f5a, curve_f5b):
    rng = random.Random(33)
    for curve in (curve_f5a, curve_f5b):
        for _ in range(25):
            t = random_triple(curve, F5, rng)
            m = random_orthogonal_word(F5, rng, improper=True)
            rel = same_class(t, act(m, t))
            assert rel.kind in (KIND_CONJ, KIND_BOTH)
            assert rel.conjugate_witness is not None


def test_same_class_symmetric(curve_f5b):
    rng = random.Random(34)
    for _ in range(15):
        t1 = random_triple(curve_f5b, F5, rng)
        t2 = random_triple(curve_f5b, F5, rng)
        assert same_class(t1, t2).kind == same_class(t2, t1).kind


def test_same_class_invariant_under_proper_replacement(curve_f5b):
    rng = random.Random(35)
    for _ in range(15):
        t1 = random_triple(curve_f5b, F5, rng)
        t2 = random_triple(curve_f5b, F5, rng)
        m = random_proper_word(F5, rng)
        assert same_class(act(m, t1), t2).kind == same_class(t1, t2).kind


def test_oracle_agreement_sample(curve_f5a):
    rng = random.Random(36)
    ts = [random_triple(curve_f5a, F5, rng) for _ in range(8)]
    for i in range(len(ts)):
        for j in range(i, len(ts)):
            assert same_class(ts[i], ts[j]).kind == orbit_oracle(ts[i], ts[j])


def test_oracle_distinct_gram(curve_f5a):
    rng = random.Random(37)
    while True:
        t1 = random_triple(curve_f5a, F5, rng)
        t2 = random_triple(curve_f5a, F5, rng)
        if gram(t1) != gram(t2):
            break
    assert orbit_oracle(t1, t2) == KIND_DISTINCT
    assert same_class(t1, t2).kind == KIND_DISTINCT


def _minor(t):
    """The determinant of t's first three columns, as an element."""
    return det([f[:3] for f in (t.u, t.v, t.w)], t.field)


def test_first_three_column_minor_picks_the_searches(monkeypatch, curve_q, triple_a, triple_b,
                                                     curve_f5b, curve_f7):
    # R t1 = t2 multiplies the minor of the first three columns by det R, so
    # with d1 = minor(t1) != 0 only the direct search runs when d2 = d1, only
    # the conjugate one when d2 = -d1, and neither otherwise; d1 = 0 runs both
    calls = count_calls(monkeypatch, equivalence, "_match")
    t3 = make_triple(curve_q, (-1, 1, 0), (-1, -1, -2), (0, -1, 1))
    rng = random.Random(44)
    field = curve_f7.field
    distinct = flat = None
    while distinct is None or flat is None:
        t1, t2 = random_triple(curve_f7, field, rng), random_triple(curve_f7, field, rng)
        d1, d2 = _minor(t1), _minor(t2)
        if d1 and d2 not in (d1, -d1) and gram(t1).entries[0][2] == gram(t2).entries[0][2]:
            distinct = t1, t2
        if not d1 and flat is None:
            flat = t1, act(random_proper_word(field, rng), t1)
    assert not _minor(flat[1]) and rank_radical(gram(flat[0]))[0] == 3
    # d1 = 0 for the worked triples (rank 2) and for flat (rank 3)
    for (t1, t2), kind, searches in (((triple_a, triple_b), KIND_BOTH, 2), (flat, KIND_EQUAL, 2),
                                     ((t3, t3), KIND_EQUAL, 1), (distinct, KIND_DISTINCT, 0),
                                     ((t3, conjugate(t3)), KIND_CONJ, 1)):
        del calls[:]
        assert same_class(t1, t2).kind == kind
        assert len(calls) == searches
    assert orbit_oracle(*distinct) == KIND_DISTINCT and orbit_oracle(*flat) == KIND_EQUAL
    for curve in (curve_f5b, curve_f7):
        field = curve.field
        single = 0
        for k in range(12):
            t1 = random_triple(curve, field, rng)
            t2 = act(random_orthogonal_word(field, rng, improper=k % 2 == 1), t1)
            del calls[:]
            assert same_class(t1, t2).kind == orbit_oracle(t1, t2)
            assert len(calls) == (1 if _minor(t1) else 2)
            single += len(calls) == 1
        assert 0 < single


def test_equal_s02_and_different_gram_is_distinct(curve_f7):
    # same_class compares only the Gram entry S_02 before it searches; in
    # genus 1 that entry is the whole invariant, so the curves have genus 2
    rng = random.Random(45)
    for curve in (seeded_curve(F5, 2, 45), curve_f7):
        field = curve.field
        found = 0
        for _ in range(300):
            t1, t2 = random_triple(curve, field, rng), random_triple(curve, field, rng)
            g1, g2 = gram(t1), gram(t2)
            if g1.entries[0][2] == g2.entries[0][2] and g1 != g2:
                found += 1
                assert same_class(t1, t2).kind == orbit_oracle(t1, t2) == KIND_DISTINCT
        assert found >= 5


def _gram_views_agree(t1, t2):
    """Whether t1 and t2 have equal Gram matrices, after checking that the
    full matrix, its band j >= i + 2 and the class decision all agree."""
    field = t1.field
    band1, band2 = (_twice_gram(field, *t._raw_forms(), 2) for t in (t1, t2))
    equal = gram(t1) == gram(t2)
    assert (band1 == band2) == equal == (same_class(t1, t2).kind != KIND_DISTINCT)
    return equal


def test_gram_equality_iff_not_distinct(curve_f5a):
    rng = random.Random(38)
    ts = [random_triple(curve_f5a, F5, rng) for _ in range(12)]
    for i in range(len(ts)):
        for j in range(len(ts)):
            kind = orbit_oracle(ts[i], ts[j])
            assert (gram(ts[i]) != gram(ts[j])) == (kind == KIND_DISTINCT)
            _gram_views_agree(ts[i], ts[j])
    # genus 2 over GF(7^2) and genus 3 over GF(3): independent draws and
    # their images under proper and improper words
    for field, genus, seed in ((GF(7, 2), 2, 41), (GF(3), 3, 42)):
        curve = _squarefree_curve(field, genus, seed)
        ts = []
        for k in range(6):
            t = random_triple(curve, field, rng)
            ts += [t, act(random_orthogonal_word(field, rng, improper=k % 2 == 1), t)]
        equal = sum(_gram_views_agree(t1, t2) for t1 in ts for t2 in ts)
        assert len(ts) <= equal < len(ts) ** 2


def test_rational_triples_same_vs_distinct(curve_q):
    rng = random.Random(39)
    ts = rational_triples(curve_q, rng, 10)
    for t in ts:
        m = random_proper_word(QQ, rng)
        rel = same_class(t, act(m, t))
        assert rel.kind in (KIND_EQUAL, KIND_BOTH)
        assert act(rel.witness, t) == act(m, t)


def test_same_class_rejects_qq_extension_inputs(curve_q, triple_a):
    from picforms.fields import rational_extension
    ext = rational_extension((-2, 0, 1))
    lifted = triple_a.embedded(ext)
    with pytest.raises(RationalsUnsupported):
        same_class(lifted, lifted)


@pytest.mark.parametrize("extension", [0, -1, 2.5, "2", True, None])
def test_same_class_checks_extension_first(monkeypatch, curve_q, triple_a, curve_f5b, extension):
    # rejected before any work, over GF(5) and over QQ, where the search
    # domain is QQ itself and never looks at the degree
    t = random_triple(curve_f5b, F5, random.Random(60))
    forms = count_calls(monkeypatch, equivalence, "_decision_forms")
    for t1 in (t, triple_a):
        with pytest.raises(ValueError, match="extension degree must be an int >= 1"):
            same_class(t1, t1, extension=extension)
    assert forms == []
    assert same_class(t, t, extension=1).extension == 1


def test_witness_deterministic(curve_f5b):
    rng = random.Random(40)
    t1 = random_triple(curve_f5b, F5, rng)
    m = random_proper_word(F5, rng)
    t2 = act(m, t1)
    r1 = same_class(t1, t2)
    r2 = same_class(t1, t2)
    assert r1.witness == r2.witness
    assert r1.kind == r2.kind


def _squarefree_curve(field, genus, seed):
    rng = random.Random(seed)
    while True:
        coeffs = [rng.randrange(field.p) for _ in range(2 * genus + 2)] + [1]
        F = Polynomial(field, coeffs)
        if is_squarefree(F):
            return make_curve(F, field)


def _seeded_pairs(curve, field, rng, n):
    """Pairs related by a proper word, by an improper word, and independent."""
    out = []
    for i in range(n):
        t1 = random_triple(curve, field, rng)
        if i % 3 == 2:
            t2 = random_triple(curve, field, rng)
        else:
            t2 = act(random_orthogonal_word(field, rng, improper=i % 3 == 1), t1)
        out.append((t1, t2))
    return out


def _constraint_gcd(t1, t2):
    """Reference oracle: the gcd of all O(n^2) minors of U1 + a^2 V1 - 2 a W1
    and of W1 - a V1 - W2 against U2, as polynomials in the parameter a."""
    field = t1.field
    U1, V1, W1, U2, W2 = t1.u, t1.v, t1.w, t2.u, t2.w
    n = len(U1)
    quadratic = [(U1[i], -(W1[i] + W1[i]), V1[i]) for i in range(n)]
    linear = [(W1[i] - W2[i], -V1[i]) for i in range(n)]
    g = None
    for cs in (quadratic, linear):
        for i in range(n):
            for j in range(i + 1, n):
                p = Polynomial(field, tuple(x * U2[j] - y * U2[i]
                                            for x, y in zip(cs[i], cs[j])))
                if not p.is_zero:
                    g = p if g is None else poly_gcd(g, p)
    return g


def test_constraint_gcd_degree_at_most_one(curve_q):
    rng = random.Random(41)
    pairs = []
    for base, field, genus in ((GF(7), GF(7), 2), (GF(13), GF(13), 1),
                               (F5, GF(5, 2), 1), (GF(7), GF(7), 3)):
        curve = _squarefree_curve(base, genus, base.p + genus)
        pairs += _seeded_pairs(curve, field, rng, 24)
    ts = rational_triples(curve_q, rng, 12)
    pairs += [(ts[i], ts[j]) for i in range(len(ts)) for j in range(i, len(ts))]
    for t1, t2 in pairs:
        for target in (t2, conjugate(t2)):
            g = _constraint_gcd(t1, target)
            assert g.degree <= 1
            field = t1.field
            pair = _parameter(field, t1._raw_forms(), target._raw_forms())
            a = None
            if pair is not None:
                c0, c1 = (FieldElement(field, c) for c in pair)
                a = -c0 / c1
            if g.degree == 1:
                assert a == -g[0] / g[1]
            else:
                assert a is None or \
                    canonicalize(reduction_step(t1, a)) != canonicalize(target)


def test_verdict_independent_of_extension_and_oracle_gf13():
    field = GF(13)
    curve = _squarefree_curve(field, 2, 2026)
    rng = random.Random(42)
    pairs = _seeded_pairs(curve, field, rng, 12)
    pairs += [(t1, t1) for t1, _ in pairs[:3]]
    for t1, t2 in pairs:
        rels = [same_class(t1, t2, extension=e) for e in (1, 2, 3)]
        assert len({(r.kind, r.witness, r.conjugate_witness) for r in rels}) == 1
        assert [r.search_domain for r in rels] == [field, GF(13, 2), GF(13, 3)]
        assert rels[0].kind == orbit_oracle(t1, t2)


def test_witness_over_triples_field(curve_f5b):
    rng = random.Random(43)
    for _ in range(10):
        t = random_triple(curve_f5b, F5, rng)
        m = random_orthogonal_word(F5, rng, improper=bool(rng.randrange(2)))
        rel = same_class(t, act(m, t), extension=3)
        for wit in (rel.witness, rel.conjugate_witness):
            assert wit is None or wit.field is F5


_WRONG_MOVE = """
import json, random, sys
sys.path.insert(0, %r)
from picforms import equivalence
from picforms.errors import WitnessRejected
from picforms.fields import GF, QQ, ZZ
from picforms.curves import make_curve
from picforms.galois import class_rational, find_caveat_example, galois_context
from picforms.sampling import random_proper_word, random_triple
from picforms.triples import act, make_triple

field = GF(7)
curve = make_curve([3, 1, 0, 2, 0, 1, 1], field)
rng = random.Random(5)
t1 = random_triple(curve, field, rng)
t2 = act(random_proper_word(field, rng), t1)
ctx = galois_context(GF(7, 2))
rational = t1.embedded(ctx.ambient)
ctx3 = galois_context(GF(3, 2))
curve3 = make_curve([2, 0, 0, 0, 1], GF(3))
curve_q = make_curve([-1, 0, 0, 0, 1], QQ)
q1 = make_triple(curve_q, (-1, 1, 0), (-1, -1, -2), (0, -1, 1))
q2 = act(random_proper_word(QQ, rng), q1)
checks = [
    lambda: equivalence.same_class(t1, t2),
    lambda: class_rational(rational, ctx),
    lambda: find_caveat_example(curve3, ctx3, 10000, 20260810),
    lambda: equivalence.recover_transform(t1, t2),
    # over QQ both run on the integer kernel
    lambda: equivalence.same_class(q1, q2),
    lambda: equivalence.recover_transform(q1, q2),
]
# integer matrices, valid on every kernel: scale(-1) (proper, but not the
# move that matched), the flip (improper) and diag(1, 2, 1) (not orthogonal)
WRONG = (((-1, 0, 0), (0, -1, 0), (0, 0, 1)),
         ((1, 0, 0), (0, 1, 0), (0, 0, -1)),
         ((1, 0, 0), (0, 2, 0), (0, 0, 1)))


def wrong_move(matrix):
    # a wrong move in the convention of the real ones: s times a matrix over
    # the kernel, with s = c1^2 for the reduction (kernel, c0, c1) and s = 1
    # for the swap (kernel)
    def rows(kernel, c0=None, c1=None):
        lift = (lambda n: n) if kernel is ZZ else (lambda n: kernel.elem(n).value)
        s = kernel._one.value if c1 is None else kernel._raw_mul(c1, c1)
        return tuple([kernel._raw_mul(s, lift(x)) for x in row] for row in matrix)
    return rows


out = [__debug__]
for check in checks:
    for matrix in WRONG:
        equivalence._reduction_rows = equivalence._swap_rows = wrong_move(matrix)
        try:
            check()
            out.append("accepted")
        except WitnessRejected as exc:
            out.append(str(exc))
print(json.dumps(out))
"""


def test_witness_check_survives_optimize():
    # under python -O every assert vanishes; the witness check must not, on
    # same_class, on a rational class, on a found caveat and on recovery over
    # GF(7), GF(7^2) and GF(3^2), and on same_class and recovery over QQ
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run([sys.executable, "-O", "-c", _WRONG_MOVE % os.path.join(root, "src")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [False] + [
        "the assembled witness does not carry t1 onto t2",
        "the assembled witness is not proper",
        "the assembled witness is not proper",
    ] * 6


_WRONG_DECOMPOSITION = """
import json, os, random, sys, tempfile
sys.path.insert(0, %r)
from picforms import cli, quadform, serialize
from picforms.errors import DecompositionRejected
from picforms.fields import GF
from picforms.curves import make_curve
from picforms.sampling import random_triple

field = GF(7)
curve = make_curve([3, 1, 0, 2, 0, 1, 1], field)
rng = random.Random(3)
t = random_triple(curve, field, rng)
S = quadform.gram(t)
other = random_triple(curve, field, rng)
while quadform.gram(other) == S:
    other = random_triple(curve, field, rng)
# every branch of decompose builds its triple through make_triple
quadform.make_triple = lambda *args, **kwargs: other
out = [__debug__]
try:
    quadform.decompose(S, curve)
    out.append("accepted")
except DecompositionRejected as exc:
    out.append(str(exc))
with tempfile.TemporaryDirectory() as tmp:
    paths = []
    for name, doc in (("c", serialize.curve_to_json(curve)), ("f", serialize.gram_to_json(S))):
        paths.append(os.path.join(tmp, name + ".json"))
        with open(paths[-1], "w") as fh:
            json.dump(doc, fh)
    code, payload = cli.run_command(
        ["form-decompose", "--curve", paths[0], "--form", paths[1]])
out += [code, payload["error"]["kind"]]
print(json.dumps(out))
"""


def test_decompose_check_survives_optimize():
    # the one check on the triple that decompose returns is not an assert
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_DECOMPOSITION % os.path.join(root, "src")],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        False, "the decomposed triple does not have the given Gram matrix",
        2, "DecompositionRejected"]



# -- the two witness certificates against each other ------------------------------

def _certified(certify, record, flip):
    """(rows, proper) of the certified witness, or the rejection's message."""
    try:
        wit = certify(record, flip)
    except WitnessRejected as exc:
        return str(exc)
    return wit.rows, wit.proper


def _tampered(record):
    """The record with d + 1, with c2 + 1, and with move entry (1, 1) + 1."""
    kernel, move, d, c2 = record[0], record[1], record[6], record[7]
    one = kernel._one.value
    bumped = tuple(tuple(kernel._raw_add(x, one) if (i, j) == (1, 1) else x
                         for j, x in enumerate(row)) for i, row in enumerate(move))
    return [record[:6] + (kernel._raw_add(d, one), c2),
            record[:7] + (kernel._raw_add(c2, one),),
            (kernel, bumped) + record[2:]]


def _over_rationals(record):
    """A record of the integer kernel as the same record over QQ."""
    _, move, t1, t2, *scalars = record
    lists = lambda rows: tuple([Fraction(x) for x in row] for row in rows)
    return (QQ, lists(move), lists(t1), lists(t2)) + tuple(map(Fraction, scalars))


def _differential_pairs():
    """The (t1, t2) pairs: over GF(7), GF(13), GF(10007) and GF(2^61 - 1)
    in genus 1-3, seeded triples moved by proper and improper words, then
    the 240 pairs of the QQ sweep."""
    rng = random.Random(2028)
    out = []
    for p in (7, 13, 10007, 2 ** 61 - 1):
        field = GF(p)
        for genus in (1, 2, 3):
            curve = seeded_curve(field, genus, 2028 + genus)
            for _ in range(6):
                t1 = random_triple(curve, field, rng)
                out += [(t1, act(random_orthogonal_word(field, rng, improper=i % 2 == 1), t1))
                        for i in range(28)]
    out += [(t1, t2) for _, _, t1, t2 in load_tool("qq_sweep.py").pairs(1)]
    return out


def test_integer_and_vector_certificates_agree():
    # the integer path against the vector path on every match record, the
    # vector path running over the field itself, or over QQ for the integer
    # kernel; then on each record tampered three ways, where both reject
    pairs = _differential_pairs()
    assert len(pairs) >= 2000 + 240
    counts = {"direct": 0, "conjugate": 0, "both": 0, "zz": 0}
    for t1, t2 in pairs:
        kernel, r1, r2 = equivalence._decision_forms(t1, t2)
        records = list(equivalence._records(kernel, r1, r2))
        for flip, record in enumerate(records):
            if record is None:
                continue
            counts["conjugate" if flip else "direct"] += 1
            counts["zz"] += kernel is ZZ
            for i, rec in enumerate([record] + _tampered(record)):
                field, vec = (QQ, _over_rationals(rec)) if kernel is ZZ else (kernel, rec)
                got = _certified(equivalence._certify_int, rec, bool(flip))
                assert got == _certified(equivalence._certify_vector, vec, bool(flip))
                if i == 0:
                    assert got[0][0][0].field is field and got[1] is not bool(flip)
                else:
                    assert got in ("the assembled witness is not proper",
                                   "the assembled witness does not carry t1 onto t2")
        counts["both"] += None not in records
    assert min(counts.values()) > 0, counts


# the identity with one column changed so that exactly one check fails: with
# b = 2, column 0 set to (1, b, 0), column 1 to (b, 1, 0), column 0 to
# (1, b^2, b) and column 1 to (b^2, 1, b) break the entries (0, 0), (1, 1),
# (0, 2) and (1, 2) of A^T Omega A, and the flip breaks the determinant
_ONE_CHECK_BROKEN = (((1, 0, 0), (2, 1, 0), (0, 0, 1)),
                     ((1, 2, 0), (0, 1, 0), (0, 0, 1)),
                     ((1, 0, 0), (4, 1, 0), (2, 0, 1)),
                     ((1, 4, 0), (0, 1, 0), (0, 2, 1)),
                     ((1, 0, 0), (0, 1, 0), (0, 0, -1)))


@pytest.mark.parametrize("kernel", [GF(7), ZZ], ids=["GF7", "ZZ"])
def test_certificates_reject_each_broken_check(kernel):
    # with s = c = c2 = 1 and d = 0, undo is the identity and e = 1, so the
    # certificate checks the move itself; t2 is its image of t1
    lift = (lambda n: n) if kernel is ZZ else (lambda n: kernel.elem(n).value)
    t1 = tuple([lift(x) for x in f] for f in ((1, 0, 0), (1, 0, 0), (0, 0, 1)))
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for matrix in (identity,) + _ONE_CHECK_BROKEN:
        move = tuple([lift(x) for x in row] for row in matrix)
        record = (kernel, move, t1, _mat_mul_raw(kernel, move, t1), 1, 1, 0, 1)
        vec = _over_rationals(record) if kernel is ZZ else record
        got = [_certified(certify, rec, False) for certify, rec in
               ((equivalence._certify_int, record), (equivalence._certify_vector, vec))]
        if matrix is identity:
            assert got[0] == got[1] and got[0][1] is True
        else:
            assert got == ["the assembled witness is not proper"] * 2


# -- the two search bodies against each other ----------------------------------

def _independent_pairs():
    """Independent draws over the fields of :func:`_differential_pairs`,
    genus 1-3; over GF(7) and GF(13) only those with equal S_02, the pairs
    that same_class searches."""
    rng = random.Random(2029)
    out = []
    for p in (7, 13, 10007, 2 ** 61 - 1):
        field = GF(p)
        for genus in (1, 2, 3):
            curve = seeded_curve(field, genus, 2029 + genus)
            kept = 0
            while kept < 12:
                t1, t2 = random_triple(curve, field, rng), random_triple(curve, field, rng)
                if p > 13 or gram(t1).entries[0][2] == gram(t2).entries[0][2]:
                    out.append((t1, t2))
                    kept += 1
    return out


def test_integer_and_vector_searches_agree():
    # for t2 and conj(t2), the int body and the vector body give the same
    # parameter pair and the same match record, None included; the vector
    # body runs on the integer kernel itself for the QQ-sweep pairs
    pairs = _differential_pairs() + _independent_pairs()
    assert len(pairs) >= 2000 + 240
    counts = {"direct": 0, "conjugate": 0, "none": 0, "no-parameter": 0, "zz": 0}
    for t1, t2 in pairs:
        kernel, r1, r2 = equivalence._decision_forms(t1, t2)
        k = max(i for i, x in enumerate(r2[0]) if x)
        for flip, target in enumerate((r2, equivalence._conjugate(kernel, r2))):
            pair = equivalence._parameter_int(kernel.p, r1, target)
            assert pair == _parameter(kernel, r1, target)
            record = equivalence._match_int(kernel, r1, target, k)
            assert record == equivalence._match_vector(kernel, r1, target, k)
            assert record == equivalence._match(kernel, r1, target, k)
            counts["none" if record is None else "conjugate" if flip else "direct"] += 1
            counts["no-parameter"] += pair is None
            counts["zz"] += kernel is ZZ and record is not None
    assert min(counts.values()) > 0, counts


# -- the sign rule against the oracle ---------------------------------------------

# the curves are drawn from seeds whose sampled triples include zero minors:
# on some genus-1 curves the sampler never draws one
@pytest.mark.parametrize("p,genus,seed", [(7, 1, 2033), (7, 2, 2032), (13, 1, 2031),
                                          (13, 2, 2031)])
def test_sign_rule_agrees_with_the_oracle(p, genus, seed):
    # proper and improper images, whose first triple has a zero or a nonzero
    # minor, and independent pairs with equal S_02; in genus 2 some of these
    # have d2 = +-d1 != 0, so the one search the rule picks runs and fails
    field = GF(p)
    curve = seeded_curve(field, genus, seed)
    rng = random.Random(seed)
    ts = [random_triple(curve, field, rng) for _ in range(20)]
    flat = [t for t in (random_triple(curve, field, rng) for _ in range(300)) if not _minor(t)]
    assert len(flat) >= 4
    seen = set()
    for t1 in ts + flat[:4]:
        for improper in (False, True):
            t2 = act(random_orthogonal_word(field, rng, improper=improper), t1)
            kind = same_class(t1, t2).kind
            assert kind == orbit_oracle(t1, t2)
            seen.add((kind, bool(_minor(t1))))
    assert {(KIND_CONJ, True), (KIND_EQUAL, True)} <= seen
    # in genus 1, d1 = 0 means rank 2, a class equal to its conjugate
    flat_kinds = {(KIND_BOTH, False)} if genus == 1 else {(KIND_CONJ, False), (KIND_EQUAL, False)}
    assert flat_kinds <= seen
    failed = equal_s02 = 0
    while equal_s02 < 16:
        t1, t2 = random_triple(curve, field, rng), random_triple(curve, field, rng)
        if gram(t1).entries[0][2] != gram(t2).entries[0][2]:
            continue
        equal_s02 += 1
        kind = same_class(t1, t2).kind
        assert kind == orbit_oracle(t1, t2)
        d1, d2 = _minor(t1), _minor(t2)
        failed += kind == KIND_DISTINCT and bool(d1) and d2 in (d1, -d1)
    # in genus 1, S_02 is the whole Gram matrix on one curve, so none is distinct
    assert failed > 0 if genus == 2 else failed == 0


def test_same_class_compares_curves_on_raw_values(monkeypatch):
    # two equal curves built apart: the curve check compares their raw F
    # and builds or compares no polynomial
    field = GF(7)
    coeffs = [3, 1, 0, 2, 0, 1, 1]
    c1, c2 = make_curve(coeffs, field), make_curve(coeffs, field)
    assert c1 is not c2 and c1 == c2 and hash(c1) == hash(c2)
    assert c1 != make_curve([4] + coeffs[1:], field)
    rng = random.Random(46)
    t1 = random_triple(c1, field, rng)
    t2 = make_triple(c2, t1.u, t1.v, tuple(-x for x in t1.w))
    calls = []
    eq = Polynomial.__eq__
    monkeypatch.setattr(Polynomial, "__eq__", lambda a, b: calls.append(1) or eq(a, b))
    assert same_class(t1, t2).kind in (KIND_CONJ, KIND_BOTH)
    assert calls == []
    assert c1.F == c2.F and calls == [1]
