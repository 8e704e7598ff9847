import json
import os
import random
import subprocess
import sys

import pytest

from conftest import count_calls, extension_word, rational_triples

from picforms import linalg, triples
from picforms.curves import make_curve
from picforms.errors import NotOnCurve, NotOrthogonal, RationalsUnsupported, ZeroForm
from picforms.fields import GF, QQ, adjoin_sqrt, embed
from picforms.ortho import flip_matrix, identity_matrix, swap_matrix
from picforms.poly import Polynomial
from picforms.sampling import random_b_word, random_orthogonal_word, random_triple
from picforms.triples import (
    act,
    canonicalize,
    canonicalize_with_matrix,
    conjugate,
    divisor_data,
    make_triple,
    support,
    triple_from_polys,
)

F5 = GF(5)


def test_make_triple_examples(curve_q, triple_a, triple_b):
    assert triple_a.u_poly() == Polynomial(QQ, (1,))
    assert triple_b.w_poly().is_zero
    c5 = make_curve([2, 0, 4, 0, 1], F5)
    t = make_triple(c5, (1, 0, 1), (3, 0, 4), (0, 1, 0))
    assert t.v_poly() == Polynomial(F5, (3, 0, 4))


def test_make_triple_errors(curve_q):
    with pytest.raises(NotOnCurve):
        make_triple(curve_q, (1, 0, 0), (1, 0, 0), (0, 0, 2))
    with pytest.raises(ZeroForm):
        make_triple(curve_q, (0, 0, 0), (1, 0, 0), (0, 0, 1))
    with pytest.raises(ZeroForm):
        make_triple(curve_q, (1, 0, 0), (0, 0, 0), (0, 0, 1))


def test_canonicalize_worked_example(curve_q, triple_a):
    t = make_triple(curve_q, (-2, 0, 0), (-1, 0, -1), (1, 0, 1))
    canon, matrix = canonicalize_with_matrix(t)
    assert canon == triple_a
    assert matrix.proper
    assert act(matrix, t) == canon


def test_canonicalize_fixed_points(curve_q, triple_a, triple_b):
    assert canonicalize(triple_a) == triple_a
    assert canonicalize(triple_b) == triple_b


def test_canonicalize_idempotent_and_invariant(curve_f5a, curve_f5b):
    rng = random.Random(3)
    for curve in (curve_f5a, curve_f5b):
        for _ in range(60):
            t = random_triple(curve, F5, rng)
            canon, matrix = canonicalize_with_matrix(t)
            assert canonicalize(canon) == canon
            assert act(matrix, t) == canon
            beta = random_b_word(F5, rng)
            assert canonicalize(act(beta, t)) == canon
            # canonical shape: monic U, zeroed coefficient of X^deg(U) in W
            U, W = canon.u_poly(), canon.w_poly()
            assert U.leading() == F5.one()
            assert not W[U.degree]


def test_conjugate(curve_q, triple_a, triple_b):
    c = conjugate(triple_a)
    assert c.w_poly() == Polynomial(QQ, (0, 0, -1))
    assert conjugate(triple_b) == triple_b
    rng = random.Random(8)
    for t in rational_triples(curve_q, rng, 100):
        assert conjugate(conjugate(t)) == t


def test_divisor_data_examples(curve_q, triple_a, triple_b):
    d = divisor_data(triple_a)
    assert d.U_monic == Polynomial(QQ, (1,))
    assert d.infinity_multiplicity == 2
    assert d.infinity_sign == "+"
    d2 = divisor_data(triple_b)
    assert d2.U_monic == Polynomial(QQ, (-1, 0, 1))
    assert d2.infinity_multiplicity == 0
    assert d2.infinity_sign == "none"
    c5 = make_curve([2, 0, 4, 0, 1], F5)
    d3 = divisor_data(make_triple(c5, (1, 0, 1), (3, 0, 4), (0, 1, 0)))
    assert d3.U_monic == Polynomial(F5, (1, 0, 1))
    assert d3.infinity_multiplicity == 0


def test_divisor_points_satisfy_curve(curve_f5b):
    rng = random.Random(5)
    for _ in range(40):
        t = random_triple(curve_f5b, F5, rng)
        sup = support(t, 2)
        F = curve_f5b.embedded_F(sup.field)
        for x, y, mult in sup.affine:
            assert y * y == F(x)
            assert mult >= 1
        deg = divisor_data(t).U_monic.degree
        assert sup.complete == (sum(m for _, _, m in sup.affine) == deg)


def test_support_examples(curve_f5a):
    t = make_triple(curve_f5a, (-1, 0, 1), (-1, 0, -1), (0, 0, 0))
    sup = support(t, 1)
    assert [(x, y, m) for x, y, m in sup.affine] == \
        [(F5.elem(1), F5.zero(), 1), (F5.elem(4), F5.zero(), 1)]
    assert sup.complete and sup.infinity_multiplicity == 0

    t_inf = make_triple(curve_f5a, (1, 0, 0), (1, 0, 0), (0, 0, 1))
    sup2 = support(t_inf, 1)
    assert sup2.affine == ()
    assert sup2.infinity_sign == "+" and sup2.infinity_multiplicity == 2

    # U = X^2 + 3 irreducible over GF(5): incomplete without an extension
    t_irr = triple_from_polys(curve_f5a,
                              Polynomial(F5, (3, 0, 1)),
                              Polynomial(F5, (2, 0, 4)),
                              Polynomial(F5, (0, 2)))
    sup3 = support(t_irr, 1)
    assert sup3.affine == () and not sup3.complete
    sup4 = support(t_irr, 2)
    assert sup4.complete and len(sup4.affine) == 2


def test_support_rejects_rationals(triple_a):
    with pytest.raises(RationalsUnsupported):
        support(triple_a, 1)


def test_act_examples(curve_q, triple_a):
    assert act(identity_matrix(QQ), triple_a) == triple_a
    assert act(flip_matrix(QQ), triple_a) == conjugate(triple_a)
    swapped = act(swap_matrix(QQ), triple_a)
    assert swapped.w_poly() == Polynomial(QQ, (0, 0, -1))


def test_act_preserves_identity_random(curve_f5a, curve_f5b):
    rng = random.Random(12)
    for curve in (curve_f5a, curve_f5b):
        for _ in range(60):
            t = random_triple(curve, F5, rng)
            m = random_orthogonal_word(F5, rng, improper=bool(rng.randrange(2)))
            out = act(m, t)  # built without re-validation; checked here on polynomials
            W, U, V = out.w_poly(), out.u_poly(), out.v_poly()
            assert W * W - U * V == curve.F


def _act_cases(curve_q, curve_f5b):
    """(word, triple) pairs, proper and improper, over QQ, GF(5), GF(5^2) and
    QQ(sqrt 2), and GF(5) words on GF(5^2) triples."""
    rng = random.Random(2022)
    K, root = adjoin_sqrt(QQ, QQ.elem(2))
    F25 = GF(5, 2)
    cases = []
    for improper in (False, True) * 6:
        t = rational_triples(curve_q, rng, 1)[0]
        cases.append((random_orthogonal_word(QQ, rng, improper=improper), t))
        cases.append((extension_word(root, rng, improper=improper), t))
        cases.append((extension_word(root, rng, improper=improper),
                      act(extension_word(root, rng), t)))
        for field in (F5, F25):
            cases.append((random_orthogonal_word(field, rng, improper=improper),
                          random_triple(curve_f5b, field, rng)))
        cases.append((random_orthogonal_word(F5, rng, improper=improper),
                      random_triple(curve_f5b, F25, rng)))
    assert {t.field for _, t in cases} == {QQ, K, F5, F25}
    return cases


def test_act_builds_the_image_without_revalidation(monkeypatch, curve_q, curve_f5b):
    cases = _act_cases(curve_q, curve_f5b)
    validations = count_calls(monkeypatch, triples, "make_triple")
    products = count_calls(monkeypatch, linalg, "_mat_mul_raw")
    images = [act(m, t) for m, t in cases]
    assert validations == [] and len(products) == len(cases)
    for (m, t), out in zip(cases, images):
        assert out.field is (t.field if m.field in (QQ, F5) else m.field)
        assert out == make_triple(out.curve, *out.forms(), field=out.field)
        assert act(m.inverse(), out) == t.embedded(out.field)


def test_act_validates_a_raw_matrix(curve_q, triple_a):
    swap = ((0, 1, 0), (1, 0, 0), (0, 0, -1))
    assert act(tuple(tuple(map(QQ.elem, row)) for row in swap), triple_a) == act(
        swap_matrix(QQ), triple_a)
    with pytest.raises(NotOrthogonal):
        act(((QQ.elem(2), QQ.zero(), QQ.zero()), (QQ.zero(), QQ.one(), QQ.zero()),
             (QQ.zero(), QQ.zero(), QQ.one())), triple_a)


def test_act_compatibility(curve_f5b):
    rng = random.Random(13)
    for _ in range(60):
        t = random_triple(curve_f5b, F5, rng)
        a = random_orthogonal_word(F5, rng, improper=bool(rng.randrange(2)))
        b = random_orthogonal_word(F5, rng, improper=bool(rng.randrange(2)))
        assert act(a @ b, t) == act(a, act(b, t))


def test_triple_over_extension(curve_f5b):
    rng = random.Random(14)
    F25 = GF(5, 2)
    t = random_triple(curve_f5b, F25, rng)
    assert t.field == F25
    W, U, V = t.w_poly(), t.u_poly(), t.v_poly()
    assert W * W - U * V == curve_f5b.embedded_F(F25)
    base = random_triple(curve_f5b, F5, rng)
    lifted = base.embedded(F25)
    assert lifted.field == F25
    assert lifted.u == tuple(embed(c, F25) for c in base.u)


_BAD_TOP = """
import json, sys
sys.path.insert(0, %r)
from picforms.curves import make_curve
from picforms.errors import NotOnCurve
from picforms.fields import QQ
from picforms.triples import Triple, divisor_data

# built directly, past make_triple's check: deg U = 0 < g + 1 and W's top
# coefficient 2 does not square to F's leading coefficient 1
curve = make_curve([-1, 0, 0, 0, 1], QQ)
t = Triple(curve, QQ, QQ._wrap([1, 0, 0]), QQ._wrap([1, 0, 0]), QQ._wrap([0, 0, 2]))
out = [__debug__]
try:
    divisor_data(t)
    out.append("accepted")
except NotOnCurve as exc:
    out.append(str(exc))
print(json.dumps(out))
"""


def test_divisor_data_check_survives_optimize():
    # under python -O every assert vanishes; the check on W's top
    # coefficient must not
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run([sys.executable, "-O", "-c", _BAD_TOP % os.path.join(root, "src")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        False, "the top coefficient of W does not square to F's leading one"]
