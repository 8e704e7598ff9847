"""Seeded sweep of the Gram section, one JSON line per form.

Run it against two checkouts and compare the outputs to check that a
change keeps every rank, radical and decomposed triple:

    PYTHONPATH=<checkout>/src python tools/section_sweep.py --seed 1 | sha256sum

``tests/fixtures/section_sweep_seed1.sha256`` pins that digest for seed 1.
Each line holds the ``rank_radical`` output of a Gram form and the
triple that ``decompose`` returns for it, or the kind of error it raises.

The forms are Gram matrices of triples (U, V, W) with random U and W:
rank 3 takes a random V, rank 2 takes V = alpha U + beta W, and the curve
is F = W^2 - U V, kept when F is squarefree of degree 2g + 2.  They
cover GF(3), GF(5), GF(7), GF(13) and GF(5^2) in genus 1-3, and QQ in
genus 1 and 2, where rank-3 forms come with an isotropic hint (one form
in five has none).  The extension budget alternates between 1 and 2;
every fourth finite rank-3 form has a hint too, and every seventh form
is perturbed by a symmetric matrix that keeps F and usually raises the
rank, so that ``decompose`` rejects it.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from picforms import serialize
from picforms.curves import make_curve
from picforms.errors import AlgebraError
from picforms.fields import GF, QQ
from picforms.linalg import _kernel_basis
from picforms.poly import Polynomial, is_squarefree
from picforms.quadform import GramForm, decompose, gram, rank_radical
from picforms.triples import make_triple

FIELDS = (GF(3), GF(5), GF(7), GF(13), GF(5, 2))
FORMS_PER_CONFIG = 20
# (genus, forms) per rank over QQ
RATIONAL_CONFIGS = ((1, 20), (2, 20))


def _element(field, rng):
    if field.p is None:
        return field.elem(rng.randint(-3, 3))
    return field.random_element(rng)


def _form(poly, genus):
    """The g + 2 coefficients of a polynomial of degree <= g + 1."""
    return tuple(poly.coeffs) + (poly.field.zero(),) * (genus + 2 - len(poly.coeffs))


def _triple(field, genus, rank, rng):
    """A triple of Gram rank `rank` on a curve built from it."""
    while True:
        U, V, W = (Polynomial(field, [_element(field, rng) for _ in range(genus + 2)])
                   for _ in range(3))
        if rank == 2:
            beta = _element(field, rng)
            if not beta:
                continue
            V = U * Polynomial(field, [_element(field, rng)]) + W * Polynomial(field, [beta])
        F = W * W - U * V
        if F.degree != 2 * genus + 2 or U.is_zero or V.is_zero or not is_squarefree(F):
            continue
        curve = make_curve(F, field)
        t = make_triple(curve, _form(U, genus), _form(V, genus), _form(W, genus), field=field)
        if rank_radical(gram(t))[0] == rank:
            return curve, t


def _hint(t):
    """An isotropic vector outside the radical: u.x = w.x = 0 and v.x != 0."""
    field = t.field
    for x in _kernel_basis(field, (field.values(t.u), field.values(t.w)), len(t.u)):
        if field.dot(field.values(t.v), x):
            return field._wrap(x)
    return None


def _perturbed(S):
    """S plus a symmetric matrix with zero antidiagonal sums, so that it
    still maps onto F: +1 at (0, 2) and (2, 0), -2 at (1, 1)."""
    field = S.field
    rows = [list(row) for row in S.entries]
    one = field.one()
    rows[0][2] = rows[0][2] + one
    rows[2][0] = rows[2][0] + one
    rows[1][1] = rows[1][1] - one - one
    return GramForm(rows, field)


def forms(seed):
    """Yield (label, curve, S, budget, hint) for every form of the sweep."""
    rng = random.Random(seed)
    configs = [(field, genus, rank, FORMS_PER_CONFIG)
               for field in FIELDS for genus in (1, 2, 3) for rank in (2, 3)]
    configs += [(QQ, genus, rank, count)
                for genus, count in RATIONAL_CONFIGS for rank in (2, 3)]
    n = 0
    for field, genus, rank, count in configs:
        label = "%s/g%d/r%d" % (field.label(), genus, rank)
        for i in range(count):
            curve, t = _triple(field, genus, rank, rng)
            S = gram(t)
            hint = None
            if rank == 3 and (i % 4 == 0 if field.p else i % 5 != 0):
                hint = _hint(t)
            if n % 7 == 6:
                S = _perturbed(S)
            yield label, curve, S, 1 + n % 2, hint
            n += 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    out = sys.stdout
    for n, (label, curve, S, budget, hint) in enumerate(forms(args.seed)):
        rank, radical = rank_radical(S)
        row = {
            "n": n,
            "config": label,
            "budget": budget,
            "hint": hint and serialize.scalars_to_json(hint),
            "rank": rank,
            "radical": [serialize.scalars_to_json(v) for v in radical],
            "triple": None,
            "error": None,
        }
        try:
            row["triple"] = serialize.triple_to_json(
                decompose(S, curve, extension_budget=budget, isotropic_hint=hint))
        except AlgebraError as exc:
            row["error"] = type(exc).__name__
        out.write(json.dumps(row, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
