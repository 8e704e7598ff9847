"""The seeded tool runs of ``tools/check_interpreters.py``, pinned in one
table, tiny runs of ``tools/ab_time.py`` and ``tools/pool_digest.py``.

Each entry of its ``CHECKS`` names a tool, its arguments and the fixture
holding the SHA-256 of its output: every verdict and witness of the class
sweeps (seeds 1 and 2), the sampler's draws and final rng state, the QQ
sweep, and every rank, radical and decomposed triple of the section sweep.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from conftest import ROOT, load_tool

CHECKS = load_tool("check_interpreters.py").CHECKS


@pytest.mark.parametrize("tool,args,fixture", CHECKS,
                         ids=[fixture.removesuffix(".sha256") for _, _, fixture in CHECKS])
def test_tool_output_pinned(capsys, tool, args, fixture):
    assert load_tool(tool).main(args) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    with open(os.path.join(ROOT, "tests", "fixtures", fixture)) as fh:
        assert digest == fh.read().split()[0]


def test_ab_time_reports_throughput_and_percentiles():
    # one round of the decide pool, this checkout against itself, in its own
    # process: the tool swaps the package in and out of sys.modules
    done = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "ab_time.py"), ROOT, ROOT,
                           "--workload", "decide", "--seed", "1", "--rounds", "1"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["rounds"] == 1 and out["pool"] > 0
    for side in "ab":
        assert 0 < out[side + "_p50_ms"] <= out[side + "_p90_ms"]
        assert out[side + "_ops_per_s"] > 0
    for name in ("p50", "p90"):
        ratio = out["b_%s_ms" % name] / out["a_%s_ms" % name]
        assert out["b_over_a_" + name] == pytest.approx(ratio, rel=1e-2)


def test_pool_digest_compares_a_checkout_with_itself():
    # one decide seed, this checkout on both sides: equal digests, exit 0
    done = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "pool_digest.py"),
                           ROOT, ROOT, "--workload", "decide", "--seeds", "1"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["seeds"] == [1] and out["equal"] is True
    assert out["a"] == out["b"] and len(out["a"]) == 64


def test_pool_digest_reads_seed_ranges_and_lists():
    seeds = load_tool("pool_digest.py").seeds
    assert seeds("1-3") == [1, 2, 3] and seeds("1,3,5") == [1, 3, 5] and seeds("7") == [7]
    assert seeds("1-2,9") == [1, 2, 9]
