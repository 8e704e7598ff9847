"""Large-field gates.

Square roots, moduli, roots and subfield coordinates are polylogarithmic
in the field order, so sampling and deciding over GF(2^61 - 1) or
GF(1000033) take well under a second.  Each gate runs in a fresh
interpreter and times itself from after the imports, so the first
construction of every field it needs is counted.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
P61 = 2 ** 61 - 1
P20 = 1000033

_PRELUDE = """
import json, random, sys, time
sys.path.insert(0, %r)
from picforms.curves import make_curve
from picforms.equivalence import same_class
from picforms.fields import GF
from picforms.poly import Polynomial, is_squarefree
from picforms.sampling import random_orthogonal_word, random_triple
from picforms.triples import act

def seeded_curve(field, genus, rng):
    while True:
        F = Polynomial(field, [rng.randrange(field.p) for _ in range(2 * genus + 2)] + [1])
        if is_squarefree(F):
            return make_curve(F, field)

start = time.perf_counter()
"""


def _gate(body):
    """Run `body` after the imports in a fresh interpreter; it sets `out`.
    Returns (seconds, out)."""
    code = (_PRELUDE % SRC + body
            + "\nprint(json.dumps([time.perf_counter() - start, out]))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    seconds, out = json.loads(done.stdout.splitlines()[-1])
    return seconds, out


@pytest.mark.parametrize("p,genus", [(P61, 1), (P61, 2), (P61, 3), (P20, 1), (P20, 2), (P20, 3)])
def test_random_triple_draws_large_prime(p, genus):
    seconds, out = _gate("""
field = GF(%d)
rng = random.Random(%d)
curve = seeded_curve(field, %d, rng)
draws = [random_triple(curve, field, rng) for _ in range(100)]
out = [len(draws), len({(t.u, t.v, t.w) for t in draws})]
""" % (p, genus, genus))
    assert out[0] == 100 and out[1] > 90
    assert seconds < 1.0


@pytest.mark.parametrize("p,genus", [(P61, 2), (P20, 3)])
def test_same_class_large_prime(p, genus):
    seconds, out = _gate("""
field = GF(%d)
rng = random.Random(%d)
curve = seeded_curve(field, %d, rng)
t1 = random_triple(curve, field, rng)
t2 = act(random_orthogonal_word(field, rng), t1)
rel = same_class(t1, t2, extension=2)
out = [rel.kind, act(rel.witness, t1) == t2]
""" % (p, genus, genus))
    assert out == ["equal", True]
    assert seconds < 1.0


def test_gf_1031_cubed():
    # 1031 = 2 (mod 3): every binomial X^3 + c is reducible, so the modulus
    # walk tests about a thousand candidates
    seconds, out = _gate("out = list(GF(1031, 3).modulus)")
    assert out == [4, 1, 0, 1]
    assert seconds < 1.0


@pytest.mark.parametrize("p,m,modulus", [
    (100019, 3, [9, 1, 0, 1]),
    (1000003, 4, [1, 1, 0, 0, 1]),
    (P61, 4, [1, 1, 0, 0, 1]),
])
def test_no_binomial_walk(p, m, modulus):
    # p = 2 (mod 3) or p = 3 (mod 4): no binomial X^m + c is irreducible,
    # and the closed-form test skips all p of them
    seconds, out = _gate("out = list(GF(%d, %d).modulus)" % (p, m))
    assert out == modulus
    assert seconds < 1.0
