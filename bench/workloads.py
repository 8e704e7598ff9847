"""Seeded op pools for the two benchmark workloads: decide and cli.

Each workload builds a fixed pool from the seed at set-up and then cycles
it in the same order; one op is one public ``picforms`` call.  Outputs are
turned into the package's documented JSON encoding by the small adapter
below and handed to :mod:`checker`, which does its own arithmetic.

Import this module only after the tracer (if any) is installed, so that
the names imported here are the wrapped ones.
"""

from __future__ import annotations

import json
import os
import random
import shutil

import picforms.cli
import picforms.serialize
from picforms import (
    GF,
    QQ,
    act,
    flip_matrix,
    galois_context,
    galois_image,
    gram,
    make_curve,
    make_triple,
    random_orthogonal_word,
    random_proper_word,
    random_triple,
    same_class,
)
from picforms.errors import AlgebraError

import checker


# ---------------------------------------------------------------------------
# library objects -> the documented JSON encoding (read-only attribute access)

def field_json(f):
    out = {"p": f.p, "m": f.m}
    if f.modulus is not None:
        out["modulus"] = [c if f.p else str(c) for c in f.modulus]
    return out


def scalar_json(e):
    f, v = e.field, e.value
    if f.p is None and f.m == 1:
        return str(v)
    if f.m == 1:
        return [v]
    return [c if f.p else str(c) for c in v]


def triple_json(t):
    out = {k: [scalar_json(c) for c in form] for k, form in zip("uvw", (t.u, t.v, t.w))}
    out["field"] = field_json(t.field)
    return out


def matrix_json(m):
    return {"entries": [[scalar_json(c) for c in row] for row in m.rows],
            "field": field_json(m.field)}


def gram_json(S):
    return {"entries": [[scalar_json(c) for c in row] for row in S.entries],
            "field": field_json(S.field)}


def curve_json(c):
    return {"field": field_json(c.field), "coeffs": [scalar_json(x) for x in c.F.coeffs]}


def relation_json(rel):
    return {
        "kind": rel.kind,
        "witness": None if rel.witness is None else matrix_json(rel.witness),
        "conjugate_witness": (None if rel.conjugate_witness is None
                              else matrix_json(rel.conjugate_witness)),
    }


def _random_curve(p, genus, rng):
    """A seeded squarefree model of degree 2g + 2 over GF(p)."""
    field = GF(p)
    while True:
        coeffs = [rng.randrange(p) for _ in range(2 * genus + 2)] + [rng.randrange(1, p)]
        try:
            return make_curve(coeffs, field)
        except AlgebraError:
            continue


# ---------------------------------------------------------------------------

class Decide:
    """same_class(t1, t2, extension=2) over GF(7), GF(13), GF(31) and GF(101)."""

    # (p, genus): the sampler needs square roots in GF(p^d) for d <= g + 1, so
    # p^(g+1) stays below the 2^20 square-root table limit
    CURVES = ((7, 1), (7, 2), (7, 3), (13, 1), (13, 2), (31, 1), (31, 2), (101, 1))
    # related pairs per round, by field, spread over its genera; each genus gets
    # proper and improper words in turn.  The counts put the median inside the
    # GF(7) decisions and the 90th percentile inside the GF(13) ones.
    RELATED = ((7, 184), (13, 40), (31, 8))
    # independent pairs per round, by curve
    INDEPENDENT = (((7, 3), 12), ((13, 2), 12), ((31, 2), 12), ((101, 1), 12))
    # The curves are the same in every run: whether F's leading coefficient is a
    # square changes the shape of sampled triples and so the cost of a decision.
    # The benchmark seed draws the triples and the words.
    CURVE_SEED = 20260810

    def __init__(self, seed, workdir):
        self.seed = seed

    def build(self):
        for p, genus in self.CURVES:
            for d in range(1, genus + 2):
                GF(p).extension(d).sqrt(1)
        curve_rng = random.Random(self.CURVE_SEED)
        curves = {key: _random_curve(key[0], key[1], curve_rng) for key in self.CURVES}
        rng = random.Random(self.seed)
        pool = []
        for p, count in self.RELATED:
            genera = [g for q, g in self.CURVES if q == p]
            for k in range(count):
                curve = curves[(p, genera[k % len(genera)])]
                t1 = random_triple(curve, curve.field, rng)
                improper = (k // len(genera)) % 2 == 1
                word = random_orthogonal_word(curve.field, rng, improper=improper)
                pool.append(("improper" if improper else "proper", t1, act(word, t1), word))
        for key, count in self.INDEPENDENT:
            curve = curves[key]
            for _ in range(count):
                # an independent pair is redrawn until the Gram matrices differ, so it
                # takes the Gram-mismatch path; equal Gram matrices lead to the
                # domain scan, which the related pairs measure
                t1 = random_triple(curve, curve.field, rng)
                g1 = checker.gram(checker.triple_of(triple_json(t1)))
                while True:
                    t2 = random_triple(curve, curve.field, rng)
                    if checker.gram(checker.triple_of(triple_json(t2))) != g1:
                        break
                pool.append((None, t1, t2, None))
        rng.shuffle(pool)
        self.pool = pool

    def warm(self):
        seen = set()
        for i, (kind, t1, _, _) in enumerate(self.pool):
            key = (kind is None, t1.field.p)
            if key not in seen:
                seen.add(key)
                self.op(i)

    def op(self, i):
        _, t1, t2, _ = self.pool[i]
        return same_class(t1, t2, extension=2)

    def record(self, i, rel):
        return relation_json(rel)

    def check(self, i, rel, rec):
        kind, t1, t2, word = self.pool[i]
        c1, c2 = checker.triple_of(triple_json(t1)), checker.triple_of(triple_json(t2))
        if word is not None:
            checker.check_word(matrix_json(word), c1, c2, kind == "improper")
        checker.check_relation(rec, c1, c2, kind)

    def close(self):
        pass


class Cli:
    """In-process picforms.cli.main on JSON written at set-up."""

    # 144 class-relation ops and 14 of each other command put both the median and
    # the 90th percentile inside the class-relation times; fixed word lengths keep
    # the size of the rationals, and so those times, alike from seed to seed
    CLASS_RELATION = 144
    OTHERS = ("form-gram", "triple-canonical", "form-decompose", "galois-rational")
    EACH_OTHER = 14
    WORD_LENGTH = 2
    # search-caveat runs find_caveat_example on the three curves of
    # tests/fixtures/caveat_search.json, each in its degree-2 extension; the
    # small budget keeps the searches' times among the class-relation ones.
    # (p, coefficients of F lowest first)
    CAVEAT_CURVES = (
        (5, (4, 0, 0, 0, 1)),   # X^4 - 1 over GF(5): no hit in 10000 samples
        (5, (2, 0, 4, 0, 1)),   # X^4 + 4X^2 + 2 over GF(5)
        (3, (2, 0, 0, 0, 1)),   # X^4 + 2 over GF(3)
    )
    CAVEAT_PER_CURVE = 4
    CAVEAT_BUDGET = 2

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir
        self.out = os.path.join(workdir, "out.json")

    def _write(self, name, obj):
        path = os.path.join(self.dir, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def build(self):
        os.makedirs(self.dir, exist_ok=True)
        rng = random.Random(self.seed)
        f5, f25 = GF(5), GF(5, 2)
        cq = make_curve([-1, 0, 0, 0, 1], QQ)
        c5 = [make_curve([-1, 0, 0, 0, 1], f5), make_curve([2, 0, 4, 0, 1], f5)]
        paths = {"cq": self._write("cq.json", curve_json(cq))}
        self.curves = {"cq": checker.curve_poly(curve_json(cq))}
        for k, c in enumerate(c5):
            paths[k] = self._write("c5%d.json" % k, curve_json(c))
            self.curves[k] = checker.curve_poly(curve_json(c))
        # the worked triples (1, 1, X^2) and (X^2 - 1, -X^2 - 1, 0) on Y^2 = X^4 - 1
        worked = (make_triple(cq, (1, 0, 0), (1, 0, 0), (0, 0, 1)),
                  make_triple(cq, (-1, 0, 1), (-1, 0, -1), (0, 0, 0)))
        pool = []
        for k in range(self.CLASS_RELATION):
            t1 = act(random_proper_word(QQ, rng, self.WORD_LENGTH), worked[k % 2])
            word = "improper" if (k // 2) % 2 else "proper"
            w = random_proper_word(QQ, rng, self.WORD_LENGTH)
            t2 = act(flip_matrix(QQ) @ w if word == "improper" else w, t1)
            argv = ["class-relation", "--curve", paths["cq"],
                    "--t1", self._write("r%d_1.json" % k, triple_json(t1)),
                    "--t2", self._write("r%d_2.json" % k, triple_json(t2))]
            pool.append((argv, ("class-relation", t1, t2, word)))
        for command in self.OTHERS:
            for k in range(self.EACH_OTHER):
                c = k % 2
                curve = c5[c]
                name = "%s%d" % (command, k)
                if command == "galois-rational":
                    known = k % 4 < 2
                    if known:
                        t0 = random_triple(curve, f5, rng)
                        t = act(random_proper_word(f25, rng), t0)
                    else:
                        t = random_triple(curve, f25, rng)
                    argv = [command, "--mode", "class", "--curve", paths[c],
                            "--t1", self._write(name + ".json", triple_json(t))]
                    pool.append((argv, (command, t, c, known)))
                elif command == "form-decompose":
                    S = gram(random_triple(curve, f5, rng))
                    argv = [command, "--curve", paths[c],
                            "--form", self._write(name + ".json", gram_json(S))]
                    pool.append((argv, (command, gram_json(S), c, None)))
                else:
                    t = random_triple(curve, (f5, f25)[(k // 2) % 2], rng)
                    argv = [command, "--curve", paths[c],
                            "--t1", self._write(name + ".json", triple_json(t))]
                    pool.append((argv, (command, t, c, None)))
        for k, (p, coeffs) in enumerate(self.CAVEAT_CURVES):
            curve = make_curve(coeffs, GF(p))
            ctx = galois_context(GF(p).extension(2))
            # the sampler draws closed points of degree <= g + 1 = 2 over the ambient
            ctx.ambient.extension(2).sqrt(1)
            key = "caveat%d" % k
            paths[key] = self._write(key + ".json", curve_json(curve))
            self.curves[key] = checker.curve_poly(curve_json(curve))
            for _ in range(self.CAVEAT_PER_CURVE):
                argv = ["search-caveat", "--curve", paths[key], "--ext", "2",
                        "--budget", str(self.CAVEAT_BUDGET), "--seed", str(rng.getrandbits(32))]
                pool.append((argv, ("search-caveat", ctx, key, None)))
        rng.shuffle(pool)
        self.pool = [(argv + ["--out", self.out], info) for argv, info in pool]

    def warm(self):
        seen = set()
        for i, (_, info) in enumerate(self.pool):
            if info[0] not in seen:
                seen.add(info[0])
                self.op(i)

    def op(self, i):
        return picforms.cli.main(self.pool[i][0])

    def record(self, i, code):
        with open(self.out) as fh:
            return {"exit": code, "out": json.load(fh)}

    def check(self, i, code, rec):
        command, a, b, c = self.pool[i][1]
        if rec["exit"] != 0:
            raise checker.CheckFailure("cli.exit", "%s exited with %r" % (command, rec["exit"]))
        out = rec["out"]
        if command == "class-relation":
            checker.check_relation(out, checker.triple_of(triple_json(a)),
                                   checker.triple_of(triple_json(b)), c)
        elif command == "form-gram":
            checker.check_gram_output(out, checker.triple_of(triple_json(a)))
        elif command == "triple-canonical":
            checker.check_canonical(out, checker.triple_of(triple_json(a)))
        elif command == "form-decompose":
            checker.check_decompose(out, a, self.curves[b])
        elif command == "search-caveat":
            witness = None
            if out["found"]:
                ctx = a
                t = picforms.serialize.triple_from_json(
                    picforms.serialize.curve_from_json(out["curve"]), out["triple"])
                rel = same_class(t, galois_image(t, ctx), extension=1)
                if rel.conjugate_witness is not None:
                    witness = matrix_json(rel.conjugate_witness)
            checker.check_caveat(out, self.curves[b], self.CAVEAT_BUDGET, witness)
        else:
            checker.check_galois_class(out, checker.triple_of(triple_json(a)), c)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {"decide": Decide, "cli": Cli}
