"""Seeded sweep of ``same_class`` verdicts, one JSON line per pair.

Run it against two checkouts and compare the outputs to check that a
change keeps every verdict, witness, conjugate witness and search domain:

    PYTHONPATH=<checkout>/src python tools/class_sweep.py --seed 1 > sweep.jsonl

The pairs cover GF(5), GF(7) and GF(13) in genus 1-3, triples over GF(25)
on curves over GF(5), and the rationals, with ``extension`` cycling through
1, 2 and 3.  Each second triple is the first moved by a proper word, by an
improper word, or an independent draw.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from picforms import serialize
from picforms.curves import make_curve
from picforms.equivalence import same_class
from picforms.fields import GF, QQ
from picforms.poly import Polynomial, is_squarefree
from picforms.sampling import random_orthogonal_word, random_triple
from picforms.triples import act, make_triple

# (base field, triple field, genus, pairs)
CONFIGS = (
    (GF(5), GF(5), 1, 300),
    (GF(5), GF(5), 2, 200),
    (GF(5), GF(5), 3, 200),
    (GF(7), GF(7), 1, 200),
    (GF(7), GF(7), 2, 200),
    (GF(7), GF(7), 3, 200),
    (GF(13), GF(13), 1, 200),
    (GF(13), GF(13), 2, 200),
    (GF(5), GF(5, 2), 1, 300),
    (QQ, QQ, 1, 300),
)


def _curve(field, genus, rng):
    p = field.p
    while True:
        coeffs = [rng.randrange(p) for _ in range(2 * genus + 2)] + [rng.randrange(1, p)]
        F = Polynomial(field, coeffs)
        if is_squarefree(F):
            return make_curve(F, field)


def _rational_seeds():
    curve = make_curve([-1, 0, 0, 0, 1], QQ)
    seeds = (
        make_triple(curve, (1, 0, 0), (1, 0, 0), (0, 0, 1)),
        make_triple(curve, (-1, 0, 1), (-1, 0, -1), (0, 0, 0)),
        make_triple(curve, (-1, 1, 0), (-1, -1, -2), (0, -1, 1)),
    )
    return seeds


def pairs(seed):
    """Yield (label, extension, t1, t2) for every pair of the sweep."""
    rng = random.Random(seed)
    for base, field, genus, count in CONFIGS:
        label = "%s/%s/g%d" % (base.label(), field.label(), genus)
        if base.p is None:
            seeds = _rational_seeds()

            def draw():
                return act(random_orthogonal_word(QQ, rng, improper=False),
                           seeds[rng.randrange(len(seeds))])
        else:
            curve = _curve(base, genus, rng)

            def draw():
                return random_triple(curve, field, rng)
        for i in range(count):
            ext = 1 + i % 3
            t1 = draw()
            mode = (i // 3) % 3
            if mode == 2:
                t2 = draw()
            else:
                t2 = act(random_orthogonal_word(field, rng, improper=mode == 1), t1)
            yield label, ext, t1, t2


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    out = sys.stdout
    for n, (label, ext, t1, t2) in enumerate(pairs(args.seed)):
        rel = same_class(t1, t2, extension=ext)
        row = {
            "n": n,
            "config": label,
            "extension": ext,
            "kind": rel.kind,
            "search_domain": serialize.field_to_json(rel.search_domain),
            "witness": rel.witness and serialize.matrix_to_json(rel.witness),
            "conjugate_witness": (rel.conjugate_witness
                                  and serialize.matrix_to_json(rel.conjugate_witness)),
        }
        out.write(json.dumps(row, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
