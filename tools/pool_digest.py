"""Hash every op output of the benchmark pools of two checkouts.

    python3 tools/pool_digest.py A B --workload decide|cli --seeds 1-10

A and B are checkout roots.  For each seed, each checkout's
``bench/workloads.py`` builds its seeded pool, loaded as
``tools/ab_time.py`` loads it, and runs every op once; each op's output
is turned into the workload's JSON record.  The output is one JSON line
with, for each side, the SHA-256 of the sorted-key JSON of the list of
all records, seed by seed.  The exit status is 0 when the two digests are
equal and 1 when they differ.  ``--seeds`` takes a range "1-10", a list
"1,3,5" or one seed.  Nothing under ``bench/`` is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab_time  # noqa: E402


def seeds(text):
    """The seeds named by "1-10", "1,3,5" or "7"."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    if not out:
        raise argparse.ArgumentTypeError("no seed in %r" % text)
    return out


def digest(root, workload, seed_list, workdir):
    """The SHA-256 of the records of every op of the checkout at ``root``."""
    records = []
    for seed in seed_list:
        wl, modules = ab_time.load(root, workload, seed, os.path.join(workdir, str(seed)))
        sys.modules.update(modules)
        try:
            records.append([wl.record(i, wl.op(i)) for i in range(len(wl.pool))])
        finally:
            wl.close()
            ab_time._own_modules()
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--workload", required=True, choices=("decide", "cli"))
    ap.add_argument("--seeds", type=seeds, required=True)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        a, b = (digest(root, args.workload, args.seeds, os.path.join(tmp, name))
                for name, root in (("a", args.a), ("b", args.b)))
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "a": a, "b": b,
                      "equal": a == b}))
    return 0 if a == b else 1


if __name__ == "__main__":
    sys.exit(main())
