"""Steadiness record: run each workload several times, one seed per run, and
print each end-to-end metric's median, quartiles and spread.

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--seconds S] [--workloads a,b]

The spread is (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``; it is printed next to the metric's
bound from BENCHMARK.json.  Runs are sequential, and all results are kept
in .bench_out/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"seconds": args.seconds, "runs": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print("%s seed %d: exit %d" % (workload, seed, proc.returncode))
                ok = False
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            res["wall_s"] = time.monotonic() - started
            runs.append(res)
            print("%s seed %d: %s wall=%.1fs" % (workload, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items()), res["wall_s"]),
                flush=True)
        record["runs"][workload] = runs
        if len(runs) < 2:
            continue
        shares = {r["failed"] / r["attempted"] for r in runs}
        print("%s: correct in %d/%d runs, failed share %s" % (
            workload, sum(r["correct"] for r in runs), len(runs), sorted(shares)))
        print("  %-12s %12s %12s %12s %8s %6s" % ("metric", "median", "Q1", "Q3",
                                                  "spread", "bound"))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print("  %-12s %12.5g %12.5g %12.5g %8.3f %6s" % (
                name, med, q1, q3, spread, bounds.get(name, "-")))
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steady.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
