"""Seeded sweep of the class decision over QQ, one JSON line per pair.

Run it against two checkouts and compare the outputs to check that a
change keeps every rational verdict and witness:

    PYTHONPATH=<checkout>/src python tools/qq_sweep.py --seed 1 | sha256sum

``tests/fixtures/qq_sweep_seed1.sha256`` pins that digest for seed 1.
Each line holds the ``same_class`` verdict, witness and conjugate
witness of a pair, and the matrix that ``recover_transform`` returns
(or the kind of error it raises).

The curves are over QQ, in genus 1 and 2:

* ``X^4 - 1`` with the three rational triples of the worked example;
* ``F = W0^2 - U0 V0`` with U0 and V0 split into linear factors over the
  integers, so that F takes square values at those 2g + 2 points; the
  seed triples interpolate +-W0 at g + 1 of them;
* ``F = W^2 - U V`` with V = alpha U + beta W, whose triples (U, V, +-W)
  have Gram rank 2, and with random U, V, W (rank 3).

Random integer forms are kept only when F is squarefree of degree
2g + 2.  Each pair moves a seed triple by a random proper word, and then
moves it again by a proper word, by an improper word, or takes an
independent moved seed; the words have length 1 to 6.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from fractions import Fraction

from picforms import serialize
from picforms.curves import make_curve
from picforms.equivalence import recover_transform, same_class
from picforms.errors import GramMismatch
from picforms.fields import QQ
from picforms.ortho import flip_matrix
from picforms.poly import Polynomial, is_squarefree
from picforms.sampling import random_proper_word
from picforms.triples import act, make_triple

MAX_WORD = 6
# (kind of curve, genus, pairs)
CONFIGS = (
    ("worked", 1, 40),
    ("points", 1, 40),
    ("points", 2, 50),
    ("rank2", 1, 30),
    ("rank2", 2, 40),
    ("generic", 2, 40),
)


def _poly(coeffs):
    return Polynomial(QQ, coeffs)


def _form(poly, genus):
    """The g + 2 coefficients of a polynomial of degree <= g + 1."""
    coeffs = list(poly.coeffs) + [QQ.zero()] * (genus + 2 - len(poly.coeffs))
    return coeffs


def _interpolate(xs, ys):
    """The Lagrange polynomial through the points (xs[i], ys[i])."""
    acc = _poly(())
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = _poly((yi,))
        for j, xj in enumerate(xs):
            if j != i:
                term = term * _poly((Fraction(-xj, xi - xj), Fraction(1, xi - xj)))
        acc = acc + term
    return acc


def _random_forms(genus, rng, size=3):
    return [_poly([rng.randint(-size, size) for _ in range(genus + 2)]) for _ in range(3)]


def _curve_and_seeds(kind, genus, rng):
    """A curve over QQ and a list of triples on it."""
    if kind == "worked":
        curve = make_curve([-1, 0, 0, 0, 1], QQ)
        return curve, [
            make_triple(curve, (1, 0, 0), (1, 0, 0), (0, 0, 1)),
            make_triple(curve, (-1, 0, 1), (-1, 0, -1), (0, 0, 0)),
            make_triple(curve, (-1, 1, 0), (-1, -1, -2), (0, -1, 1)),
        ]
    while True:
        if kind == "points":
            xs = rng.sample(range(-6, 7), 2 * genus + 2)
            U = V = _poly((1,))
            for x in xs[:genus + 1]:
                U = U * _poly((-x, 1))
            for x in xs[genus + 1:]:
                V = V * _poly((-x, 1))
            V = V * _poly((rng.choice((-3, -2, -1, 1, 2, 3)),))
            W = _random_forms(genus, rng)[0]
        elif kind == "rank2":
            U, _, W = _random_forms(genus, rng)
            V = U * _poly((rng.randint(-2, 2),)) + W * _poly((rng.choice((-2, -1, 1, 2)),))
        else:
            U, V, W = _random_forms(genus, rng)
        F = W * W - U * V
        if F.degree != 2 * genus + 2 or not is_squarefree(F) or V.is_zero or U.is_zero:
            continue
        curve = make_curve(F.coeffs, QQ)
        seeds = [make_triple(curve, _form(U, genus), _form(V, genus), _form(W, genus)),
                 make_triple(curve, _form(U, genus), _form(V, genus), _form(-W, genus))]
        if kind == "points":
            for subset in itertools.combinations(xs, genus + 1):
                ys = [W(QQ.elem(x)) for x in subset]
                for signs in itertools.product((1, -1), repeat=genus + 1):
                    Ui = _poly((1,))
                    for x in subset:
                        Ui = Ui * _poly((-x, 1))
                    Wi = _interpolate(subset, [s * y.value for s, y in zip(signs, ys)])
                    Vi = (Wi * Wi - F) // Ui
                    if not Vi.is_zero:
                        seeds.append(make_triple(curve, _form(Ui, genus), _form(Vi, genus),
                                                 _form(Wi, genus)))
        return curve, seeds


def _word(rng, improper=False):
    w = random_proper_word(QQ, rng, rng.randint(1, MAX_WORD))
    return flip_matrix(QQ) @ w if improper else w


def pairs(seed):
    """Yield (label, mode, t1, t2) for every pair of the sweep; mode is
    "proper", "improper" or "independent"."""
    rng = random.Random(seed)
    for kind, genus, count in CONFIGS:
        label = "%s/g%d" % (kind, genus)
        _, seeds = _curve_and_seeds(kind, genus, rng)
        for i in range(count):
            t1 = act(_word(rng), seeds[rng.randrange(len(seeds))])
            mode = ("proper", "improper", "independent")[i % 3]
            if mode == "independent":
                t2 = act(_word(rng), seeds[rng.randrange(len(seeds))])
            else:
                t2 = act(_word(rng, mode == "improper"), t1)
            yield label, mode, t1, t2


def _matrix(m):
    return m and serialize.matrix_to_json(m)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    out = sys.stdout
    for n, (label, mode, t1, t2) in enumerate(pairs(args.seed)):
        rel = same_class(t1, t2)
        try:
            recovered = _matrix(recover_transform(t1, t2))
        except GramMismatch as exc:
            recovered = {"error": type(exc).__name__}
        row = {
            "n": n,
            "config": label,
            "mode": mode,
            "kind": rel.kind,
            "witness": _matrix(rel.witness),
            "conjugate_witness": _matrix(rel.conjugate_witness),
            "recover_transform": recovered,
        }
        out.write(json.dumps(row, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
