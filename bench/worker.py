"""One workload process: set up a seeded pool, then time whole rounds of it.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --mode run|setup

``--mode setup`` stops after set-up and reports only its duration.  The
last line of standard output is one JSON object; ``bench/run.py`` reads it.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before picforms is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))


MIN_ROUNDS = 2


def measure(wl, seconds, tracer):
    """Run whole rounds of the pool until `seconds` have passed, and at least
    MIN_ROUNDS rounds so that the repeat check runs; return every op time.

    Round one is checked by the independent checker; later rounds must
    repeat round one's outputs exactly.  Checking is outside the op timer.
    """
    import checker
    n = len(wl.pool)
    first = [None] * n
    lat = []
    errors = []
    raised = []
    attempted = failed = rounds = 0
    if tracer is not None:
        tracer.begin_ops()
    start = time.perf_counter()
    while True:
        for i in range(n):
            attempted += 1
            if tracer is not None:
                tracer.op_id = attempted
            t = time.perf_counter()
            try:
                out = wl.op(i)
            except Exception as exc:  # a raising op is counted as failed, and the run goes on
                failed += 1
                raised.append("op %d raised %s: %s" % (i, type(exc).__name__, exc))
                continue
            lat.append(time.perf_counter() - t)
            if tracer is not None:
                tracer.enabled = False
            rec = wl.record(i, out)
            if rounds == 0:
                try:
                    wl.check(i, out, rec)
                except checker.CheckFailure as exc:
                    errors.append("op %d: %s" % (i, exc))
                first[i] = rec
            else:
                try:
                    checker.check_repeat(first[i], rec)
                except checker.CheckFailure as exc:
                    errors.append("op %d, round %d: %s" % (i, rounds + 1, exc))
            if tracer is not None:
                tracer.enabled = True
        rounds += 1
        if rounds >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
            break
    return lat, attempted, failed, rounds, errors, raised


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("run", "setup"), default="run")
    args = ap.parse_args(argv)

    import picforms  # noqa: F401
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    import workloads
    workdir = os.path.join(OUT_DIR, "work-%d" % os.getpid())
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        wl.build()
        wl.warm()
        setup_s = time.perf_counter() - _T0
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        lat, attempted, failed, rounds, errors, raised = measure(wl, args.seconds, tracer)
    finally:
        wl.close()
    timed_s = sum(lat)
    result = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "pool": len(wl.pool),
        "check_errors": errors[:20],
        "op_errors": raised[:20],
        "tracer_loaded": "tracing" in sys.modules,
        "ops_per_s": len(lat) / timed_s if timed_s else 0.0,
        "op_p50_ms": statistics.median(lat) * 1e3 if lat else 0.0,
        "op_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3
                      if len(lat) > 1 else 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["per_layer"] = tracer.per_layer(rounds)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
        dump = tracer.dump()
        dump.update({k: result[k] for k in ("ops_per_s", "op_p50_ms", "op_p90_ms",
                                             "rounds", "attempted", "failed")})
        dump["per_layer"] = result["per_layer"]
        with open(path, "w") as fh:
            json.dump(dump, fh)
        result["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
