"""Benchmark entry point for picforms.

    python3 bench/run.py --workload decide|cli --seed N --seconds S --trace 0|1

Runs the workload in its own single-threaded process (``bench/worker.py``)
and prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Untraced runs
report the end-to-end metrics; ``setup_s`` is the median over SETUPS
set-ups, SETUPS - 1 of them in set-up-only processes.  Traced runs report
the per-layer metrics from ``bench/tracing.py``.
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
WORKLOADS = ("decide", "cli")
SETUPS = 5
DEADLINE_S = 170.0


class ChildFailed(Exception):
    pass


def run_child(args, mode, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=max(deadline - time.monotonic(), 1.0), text=True)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise ChildFailed("%s worker did not finish in time" % mode) from exc
    if proc.returncode != 0:
        raise ChildFailed("%s worker exited with %d" % (mode, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed("%s worker printed no result" % mode)
    return json.loads(lines[-1])


def main(argv=None):
    deadline = time.monotonic() + DEADLINE_S
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "picforms", "__init__.py")):
        print("bench/run.py: src/picforms not found under %s" % ROOT, file=sys.stderr)
        return 2
    try:
        setups = [] if args.trace else [run_child(args, "setup", deadline)["setup_s"]
                                        for _ in range(SETUPS - 1)]
        res = run_child(args, "run", deadline)
    except ChildFailed as exc:
        print("bench/run.py: %s" % exc, file=sys.stderr)
        return 3
    for line in res["check_errors"] + res["op_errors"]:
        print("bench/run.py: %s" % line, file=sys.stderr)
    correct = not res["check_errors"]
    if args.trace:
        metrics = res["per_layer"]
        print("trace written to %s" % res["trace_file"], file=sys.stderr)
    else:
        # an untraced run must carry no wrapper
        correct = correct and not res["tracer_loaded"]
        setups.append(res["setup_s"])
        metrics = {
            "ops_per_s": {"value": res["ops_per_s"], "unit": "ops/s"},
            "op_p50_ms": {"value": res["op_p50_ms"], "unit": "ms"},
            "op_p90_ms": {"value": res["op_p90_ms"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": res["rounds"],
                      "pool": res["pool"], "ops": res["attempted"] - res["failed"]}))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
