"""Hash every op output of the benchmark pools of two checkouts.

    python3 tools/pool_digest.py A B --workload decide|cli --seeds 1-10

A and B are checkout roots.  For each seed, each checkout's
``bench/workloads.py`` builds its seeded pool, loaded as
``tools/ab_time.py`` loads it, and runs every op once.  A ``decide`` op
stands for the sorted-key JSON of its record.  A ``cli`` op stands for its
exit code and the raw bytes of its ``--out`` file, read right after it
returns, so a change in whitespace, key order or escaping of the output
changes the digest.  The output is one JSON line with, for each side, the
SHA-256 of every op's bytes, seed by seed and op by op.  The exit status
is 0 when the two digests are equal and 1 when they differ.  ``--seeds``
takes a range "1-10", a list "1,3,5" or one seed.  Nothing under
``bench/`` is changed.
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


def op_bytes(wl, i):
    """The bytes that stand for op i of the workload ``wl``: for one with an
    ``out`` file (``cli``), the exit code and the file's raw bytes; for any
    other, the sorted-key JSON of its record."""
    result = wl.op(i)
    out = getattr(wl, "out", None)
    if out is None:
        return json.dumps(wl.record(i, result), sort_keys=True).encode()
    with open(out, "rb") as fh:
        return b"%d\n" % result + fh.read()


def digest(root, workload, seed_list, workdir):
    """The SHA-256 of the bytes of every op of the checkout at ``root``,
    each op's bytes preceded by their length."""
    h = hashlib.sha256()
    for seed in seed_list:
        wl, modules = ab_time.load(root, workload, seed, os.path.join(workdir, str(seed)))
        sys.modules.update(modules)
        try:
            for i in range(len(wl.pool)):
                data = op_bytes(wl, i)
                h.update(b"%d\n" % len(data) + data)
        finally:
            wl.close()
            ab_time._own_modules()
    return h.hexdigest()


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
