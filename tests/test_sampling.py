"""The raw-value sampler: closed points, exhaustion, and the Hensel check."""

import itertools
import json
import os
import random
import subprocess
import sys

import pytest

from conftest import seeded_curve

from picforms.curves import make_curve
from picforms.errors import SearchExhausted
from picforms.fields import GF
from picforms.poly import Polynomial, _product_coeffs, gcd
from picforms.sampling import _random_closed_point, random_triple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _irreducible(U):
    """Rabin's test over GF(q): X^(q^d) = X mod U, and X^(q^(d/r)) - X is
    prime to U for the primes r | d (d <= 4 here)."""
    field, d = U.field, U.degree
    x = Polynomial.x(field)

    def powmod(h, e):
        out = Polynomial.one(field)
        for bit in bin(e)[2:]:
            out = out * out % U
            if bit == "1":
                out = out * h % U
        return out

    def frobenius_power(k):
        h = x
        for _ in range(k):
            h = powmod(h, field.order)
        return h

    return (frobenius_power(d) == x % U
            and all(gcd(frobenius_power(d // r) - x, U).degree == 0
                    for r in (2, 3) if d % r == 0))


@pytest.mark.parametrize("field,base", [(GF(7), GF(7)), (GF(101), GF(101)),
                                        (GF(5, 2), GF(5)), (GF(3, 3), GF(3))])
def test_closed_points_are_closed_points(field, base):
    # U_i is monic irreducible of degree d over the field, and W_i has
    # degree below d with W_i^2 = F (mod U_i)
    rng = random.Random(3)
    curve = seeded_curve(base, 2, 7)
    F = curve.F.embedded(field)
    for d in (1, 2, 3, 4):
        for _ in range(10):
            U_raw, W_raw, y_zero = _random_closed_point(field, rng, d, curve)
            U = Polynomial(field, field._wrap(U_raw))
            W = Polynomial(field, field._wrap(W_raw))
            assert U.coeffs == field._wrap(U_raw) and W.coeffs == field._wrap(W_raw)
            assert U.degree == d and U.leading() == field.one() and _irreducible(U)
            assert W.degree < d and ((W * W - F) % U).is_zero
            assert y_zero == W.is_zero


def test_sampler_exhaustion_is_a_search_error():
    # Y^2 = 2X^4 + X^3 + 2X over GF(3) carries no triple at all: no forms
    # (u, v, w) of length 3 have W^2 - U V = F, so every draw fails
    field = GF(3)
    F = [0, 2, 0, 1, 2]
    forms = list(itertools.product(range(3), repeat=3))
    assert not any(_product_coeffs(field, w, w, u, v) == F
                   for u in forms for v in forms for w in forms)
    with pytest.raises(SearchExhausted, match="too few points"):
        random_triple(make_curve(F, field), field, random.Random(0))


_WRONG_LIFT = """
import json, random, sys
sys.path.insert(0, %r)
from picforms import sampling
from picforms.curves import make_curve
from picforms.errors import LiftRejected
from picforms.fields import GF
from picforms.sampling import random_triple

field = GF(101)
curve = make_curve([3, 1, 0, 2, 0, 1, 5, 0, 1], field)
right = sampling._invert_mod_coeffs


def wrong(field, a, m):
    # twice the inverse: the lifted W then has W^2 = 4 F, not F, mod U^2
    return [field._raw_add(c, c) for c in right(field, a, m)]


sampling._invert_mod_coeffs = wrong
rng = random.Random(1)
out = [__debug__]
try:
    for _ in range(200):
        random_triple(curve, field, rng)
    out.append("accepted")
except LiftRejected as exc:
    out.append(str(exc))
print(json.dumps(out))
"""


def test_hensel_check_survives_optimize():
    # under python -O every assert vanishes; the check of a lifted square
    # root must not, and a wrong lift must not reach a triple
    done = subprocess.run([sys.executable, "-O", "-c", _WRONG_LIFT % os.path.join(ROOT, "src")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [False, "lifted W^2 - F is not divisible by U^2"]
