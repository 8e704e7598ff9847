"""Corruption self-test for bench/checker.py.

    python3 bench/selftest.py

Builds genuine outputs of every kind the benchmark checks (class
relations over GF(p) and QQ, caveat hits and misses, repeated rounds and
every command of the cli workload), shows that the checker accepts them, then
corrupts one part of each and shows that the intended check, and no
other, rejects it.  Every check id of the checker has a corruption here,
so removing any single check makes this script exit 1.
"""

import copy
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from picforms import (  # noqa: E402
    GF,
    act,
    find_caveat_example,
    galois_context,
    galois_image,
    gram,
    make_curve,
    random_orthogonal_word,
    random_triple,
    same_class,
)

import checker  # noqa: E402
import workloads  # noqa: E402
from workloads import curve_json, matrix_json, relation_json, triple_json  # noqa: E402


def _relation_case(curve, rng, word_kind):
    F = curve.field
    t1 = random_triple(curve, F, rng)
    if word_kind is None:
        while True:
            t2 = random_triple(curve, F, rng)
            if gram(t2) != gram(t1):
                break
    else:
        t2 = act(random_orthogonal_word(F, rng, improper=word_kind == "improper"), t1)
    c1, c2 = checker.triple_of(triple_json(t1)), checker.triple_of(triple_json(t2))
    return (lambda rec: checker.check_relation(rec, c1, c2, word_kind),
            relation_json(same_class(t1, t2, extension=2)))


def _caveat_cases():
    # X^4 + 2 over GF(3) in GF(9) has hits within a few samples; X^4 - 1 over GF(5) has none
    hit_curve = make_curve([2, 0, 0, 0, 1], GF(3))
    ctx = galois_context(GF(3, 2))
    budget = 8
    res = next(r for r in (find_caveat_example(hit_curve, ctx, budget, s) for s in range(50))
               if r.found)
    rel = same_class(res.triple, galois_image(res.triple, ctx), extension=1)
    curve = checker.curve_poly(curve_json(hit_curve))
    hit = {"res": {"found": True, "searched": res.searched, "budget": budget, "seed": res.seed,
                   "triple": triple_json(res.triple)},
           "witness": matrix_json(rel.conjugate_witness)}
    # a triple on the same curve whose Gram matrix is not fixed by Frobenius
    rng = random.Random(5)
    while True:
        other = random_triple(hit_curve, ctx.ambient, rng)
        if any(c.frobenius() != c for row in gram(other).entries for c in row):
            break
    miss_curve = make_curve([4, 0, 0, 0, 1], GF(5))
    miss_res = find_caveat_example(miss_curve, galois_context(GF(5, 2)), 3, 1)
    miss = {"res": {"found": False, "searched": miss_res.searched, "budget": 3, "seed": 1,
                    "triple": None}, "witness": None}
    miss_check = checker.curve_poly(curve_json(miss_curve))

    def check_hit(rec):
        checker.check_caveat(rec["res"], curve, budget, rec["witness"])
    return check_hit, hit, triple_json(other), (
        lambda rec: checker.check_caveat(rec["res"], miss_check, 3, rec["witness"])), miss


def _cli_cases():
    wl = workloads.Cli(1, os.path.join(ROOT, ".bench_out", "selftest-%d" % os.getpid()))
    cases = {}
    try:
        wl.build()
        for i, (_, info) in enumerate(wl.pool):
            command = info[0]
            key = command
            if command == "galois-rational":
                key = "galois-known" if info[3] else "galois-other"
                if key == "galois-other":
                    t = checker.triple_of(triple_json(info[1]))
                    if all(t.field.in_prime_field(c) for row in checker.gram(t) for c in row):
                        continue  # need an input whose Gram matrix Frobenius moves
            if command == "form-decompose" and key in cases:
                if info[2] != cases[key][2]:
                    continue  # the second decomposition must be on the same curve
                key = "form-decompose-2"
            if key in cases:
                continue
            rec = wl.record(i, wl.op(i))
            cases[key] = ((lambda rec, i=i: wl.check(i, None, rec)), rec, info[2])
    finally:
        wl.close()
    return {key: case[:2] for key, case in cases.items()}


def _neg_rows(m, rows):
    f = checker.field_of(m["field"])
    out = copy.deepcopy(m)
    for r in rows:
        out["entries"][r] = [checker.scalar_to_json(f, f.neg(checker.scalar_of(f, c)))
                             for c in m["entries"][r]]
    return out


def _bump(field_desc, obj):
    """The scalar obj + 1 in the field described by field_desc, in JSON form."""
    f = checker.field_of(field_desc)
    return checker.scalar_to_json(f, f.add(checker.scalar_of(f, obj), f.one()))


def main():
    rng = random.Random(20261017)
    curve7 = make_curve([3, 1, 0, 2, 1], GF(7))
    cases = {
        "proper": _relation_case(curve7, rng, "proper"),
        "improper": _relation_case(curve7, rng, "improper"),
        "independent": _relation_case(make_curve([1, 2, 0, 3, 5, 1, 1], GF(13)), rng, None),
    }
    check_hit, hit, other_triple, check_miss, miss = _caveat_cases()
    cases["caveat-hit"] = (check_hit, hit)
    cases["caveat-miss"] = (check_miss, miss)
    cases["repeat"] = ((lambda rec: checker.check_repeat(cases["proper"][1], rec)),
                       copy.deepcopy(cases["proper"][1]))
    cases.update(_cli_cases())

    def set_key(key, value):
        def mutate(rec):
            rec[key] = value
        return mutate

    def canon(mutate):
        def inner(rec):
            mutate(rec["out"])
        return inner

    def bump_triple(path):
        def mutate(rec):
            t = rec
            for k in path[:-2]:
                t = t[k]
            form, idx = path[-2], path[-1]
            t[form][idx] = _bump(t["field"], t[form][idx])
        return mutate

    def canonical_top(rec):
        t = rec["out"]["triple"]
        f = checker.field_of(t["field"])
        top = max(i for i, c in enumerate(t["u"]) if any(checker.scalar_of(f, c)))
        return t, top

    def scale_top_u(rec):
        t, top = canonical_top(rec)
        t["u"][top] = _bump(t["field"], t["u"][top])

    def bump_top_w(rec):
        t, top = canonical_top(rec)
        t["w"][top] = _bump(t["field"], t["w"][top])

    def bump_matrix(key, r, c):
        def mutate(rec):
            m = rec
            for k in key:
                m = m[k]
            m["entries"][r][c] = _bump(m["field"], m["entries"][r][c])
        return mutate

    def swap_in_other_decompose(rec):
        rec["out"]["triple"] = copy.deepcopy(cases["form-decompose-2"][1]["out"]["triple"])

    def drop_kind_witnesses(rec):
        rec["conjugate_witness"], rec["witness"] = rec["witness"], None
        rec["kind"] = checker.KIND_CONJ

    def swap_kind_witnesses(rec):
        rec["witness"], rec["conjugate_witness"] = rec["conjugate_witness"], None
        rec["kind"] = checker.KIND_EQUAL

    def wrong_length(rec):
        rec["witness"]["entries"][0][0] = [0, 0, 0]

    def foreign_field(rec):
        rec["witness"]["field"] = {"p": 11, "m": 1}

    qq_witness = ("witness" if cases["class-relation"][1]["out"].get("witness")
                  else "conjugate_witness")
    witness_kind = "witness" if cases["proper"][1]["witness"] else "conjugate_witness"
    corruptions = [
        ("proper", "witness.orthogonal", bump_matrix((witness_kind,), 0, 0)),
        ("proper", "witness.det", lambda rec: rec.update(
            {witness_kind: _neg_rows(rec[witness_kind], [2])})),
        ("proper", "witness.action", lambda rec: rec.update(
            {witness_kind: _neg_rows(rec[witness_kind], [0, 1])})),
        ("proper", "verdict.kind", set_key("kind", "same")),
        ("proper", "verdict.word", drop_kind_witnesses),
        ("improper", "verdict.word", swap_kind_witnesses),
        ("improper", "verdict.witnesses", set_key("conjugate_witness", None)),
        ("independent", "verdict.gram", set_key("kind", checker.KIND_EQUAL)),
        ("proper", "checker.parse", wrong_length),
        ("proper", "checker.embedding", foreign_field),
        ("caveat-hit", "triple.on_curve", bump_triple(["res", "triple", "w", 0])),
        ("caveat-hit", "caveat.gram_base", lambda rec: rec["res"].update(
            {"triple": copy.deepcopy(other_triple)})),
        ("caveat-hit", "caveat.searched", lambda rec: rec["res"].update({"searched": 9})),
        ("caveat-hit", "caveat.witness_missing", set_key("witness", None)),
        ("caveat-hit", "witness.action", lambda rec: rec.update(
            {"witness": _neg_rows(rec["witness"], [0, 1])})),
        ("caveat-miss", "caveat.searched", lambda rec: rec["res"].update({"searched": 2})),
        ("repeat", "repeat.same", set_key("kind", checker.KIND_DISTINCT)),
        ("class-relation", "cli.exit", set_key("exit", 1)),
        ("class-relation", "witness.orthogonal", canon(bump_matrix((qq_witness,), 1, 2))),
        ("triple-canonical", "canonical.monic", scale_top_u),
        ("triple-canonical", "canonical.w_top", bump_top_w),
        ("triple-canonical", "canonical.b_matrix", canon(bump_matrix(("b_matrix",), 1, 0))),
        ("form-gram", "gram.entries", canon(bump_matrix((), 0, 1))),
        ("form-decompose", "triple.on_curve", canon(bump_triple(["triple", "v", 0]))),
        ("form-decompose", "decompose.gram", swap_in_other_decompose),
        ("galois-known", "galois.known_rational", canon(set_key("rational", False))),
        ("galois-other", "galois.necessary", canon(set_key("rational", True))),
    ]

    failures = 0
    for name, (check, rec) in sorted(cases.items()):
        try:
            check(rec)
            print("genuine %-18s accepted" % name)
        except checker.CheckFailure as exc:
            failures += 1
            print("genuine %-18s REJECTED: %s" % (name, exc))
    covered = set()
    for name, expected, mutate in corruptions:
        check, rec = cases[name]
        bad = copy.deepcopy(rec)
        mutate(bad)
        try:
            check(bad)
            got = None
        except checker.CheckFailure as exc:
            got = exc.check_id
        ok = got == expected
        covered.add(expected)
        failures += not ok
        print("corrupt %-18s expect %-24s got %-24s %s" % (name, expected, got,
                                                          "ok" if ok else "FAIL"))
    print("%d check ids exercised; %s" % (len(covered), "PASS" if not failures else
                                          "%d FAILURES" % failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
