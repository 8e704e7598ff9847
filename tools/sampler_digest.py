"""Seeded ``random_triple`` draws, one JSON line each, then the rng state.

Run it against two checkouts and compare the outputs to check that a
change to the sampler keeps every triple and every random number it uses:

    PYTHONPATH=<checkout>/src python tools/sampler_digest.py --seed 1 | sha256sum

``tests/fixtures/sampler_draws_seed1.sha256`` pins that digest for
seed 1.  The 1000 draws cover curves over GF(7), GF(101), GF(1000033)
and GF(2^61 - 1) in genus 1-3, with triples over GF(7^2), GF(101),
GF(1000033^2) and GF(2^61 - 1).  Each configuration has a monic curve
and one whose leading coefficient is not a square, so draws with and
without points at infinity both occur; draws alternate between the two
curves.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from picforms import serialize
from picforms.curves import make_curve
from picforms.fields import GF
from picforms.poly import Polynomial, is_squarefree
from picforms.sampling import random_triple

P61 = 2 ** 61 - 1
P20 = 1000033

# (base field, triple field, genus, draws)
CONFIGS = (
    (GF(7), GF(7, 2), 1, 100),
    (GF(7), GF(7, 2), 2, 100),
    (GF(7), GF(7, 2), 3, 100),
    (GF(101), GF(101), 1, 100),
    (GF(101), GF(101), 2, 100),
    (GF(101), GF(101), 3, 100),
    (GF(P20), GF(P20, 2), 1, 60),
    (GF(P20), GF(P20, 2), 2, 60),
    (GF(P20), GF(P20, 2), 3, 40),
    (GF(P61), GF(P61), 1, 100),
    (GF(P61), GF(P61), 2, 80),
    (GF(P61), GF(P61), 3, 60),
)


def _curve(field, genus, rng, square_lead):
    p = field.p
    while True:
        lead = 1 + rng.randrange(p - 1)
        if square_lead:
            lead = lead * lead % p
        elif field.sqrt(lead) is not None:
            continue
        F = Polynomial(field, [rng.randrange(p) for _ in range(2 * genus + 2)] + [lead])
        if is_squarefree(F):
            return make_curve(F, field)


def lines(seed):
    """Yield one JSON line per draw, then one with the final rng state."""
    rng = random.Random(seed)
    for base, field, genus, count in CONFIGS:
        label = "%s/%s/g%d" % (base.label(), field.label(), genus)
        curves = [_curve(base, genus, rng, square_lead) for square_lead in (True, False)]
        for i in range(count):
            t = random_triple(curves[i % 2], field, rng)
            row = {"config": label, "n": i, "triple": serialize.triple_to_json(t, False)}
            yield json.dumps(row, sort_keys=True)
    yield json.dumps({"rng_state": rng.getstate()[1]})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    for line in lines(args.seed):
        sys.stdout.write(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
