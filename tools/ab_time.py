"""Time the benchmark ops of two checkouts side by side in one process.

    python3 tools/ab_time.py A B --workload decide|cli --seed N --rounds R

A and B are checkout roots.  Each one's ``src/picforms`` and
``bench/workloads.py`` are imported in turn (``picforms*``, ``workloads``
and ``checker`` are cleared from ``sys.modules`` in between), and each
builds and warms its own seeded pool.  Then every round times op i of A
and op i of B back to back, alternating which goes first, and keeps each
op's minimum time over the rounds.  Before each op, outside the timer,
that checkout's modules are put back into ``sys.modules``, so imports made
inside functions resolve to its own package.  The output is one JSON
line with both throughputs (pool size over the sum of per-op minima) and
their ratio B/A, and each side's median and 90th percentile of the per-op
minima in ms (``statistics.median`` and the inclusive deciles, as
``bench/worker.py`` takes them) with their ratios B/A, so that an effect
on ``op_p50_ms`` or ``op_p90_ms`` can be checked on interleaved runs too.

Sequential benchmark runs of two trees on a busy machine can differ by
more than the change being measured; interleaving the ops puts both trees
under the same load.  The ratio complements the paired
``bench/run.py`` runs and does not replace them.  Nothing under
``bench/`` is changed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import tempfile
import time


def _own_modules():
    """The modules that belong to one checkout, removed from sys.modules."""
    return {name: sys.modules.pop(name) for name in list(sys.modules)
            if name.split(".")[0] in ("picforms", "workloads", "checker")}


def load(root, workload, seed, workdir):
    """(workload, modules): the built and warmed workload of the checkout
    at ``root``, and the modules it imported."""
    root = os.path.abspath(root)
    paths = [os.path.join(root, "src"), os.path.join(root, "bench")]
    _own_modules()
    sys.path[:0] = paths
    try:
        workloads = importlib.import_module("workloads")
        wl = workloads.WORKLOADS[workload](seed, workdir)
        wl.build()
        wl.warm()
    finally:
        del sys.path[:len(paths)]
    return wl, _own_modules()


def _p90(times):
    """The 90th percentile of ``times``: the ninth inclusive decile."""
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--workload", required=True, choices=("decide", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    with tempfile.TemporaryDirectory() as tmp:
        loaded = [load(root, args.workload, args.seed, os.path.join(tmp, name))
                  for name, root in (("a", args.a), ("b", args.b))]
        pair = [wl for wl, _ in loaded]
        n = len(pair[0].pool)
        if len(pair[1].pool) != n:
            ap.error("the two checkouts build pools of different sizes")
        best = [[float("inf")] * n, [float("inf")] * n]
        clock = time.perf_counter
        try:
            for r in range(args.rounds):
                order = (0, 1) if r % 2 == 0 else (1, 0)
                for i in range(n):
                    for k in order:
                        sys.modules.update(loaded[k][1])
                        t = clock()
                        pair[k].op(i)
                        t = clock() - t
                        if t < best[k][i]:
                            best[k][i] = t
        finally:
            for wl in pair:
                wl.close()
    a_ops, b_ops = (n / sum(times) for times in best)
    out = {"workload": args.workload, "seed": args.seed, "rounds": args.rounds,
           "pool": n, "a_ops_per_s": round(a_ops, 1),
           "b_ops_per_s": round(b_ops, 1), "b_over_a": round(b_ops / a_ops, 3)}
    for name, stat in (("p50", statistics.median), ("p90", _p90)):
        a, b = (stat(times) * 1e3 for times in best)
        out.update({"a_%s_ms" % name: round(a, 4), "b_%s_ms" % name: round(b, 4),
                    "b_over_a_%s" % name: round(b / a, 3)})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
