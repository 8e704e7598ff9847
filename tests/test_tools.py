"""The seeded tool runs of ``tools/check_interpreters.py``, pinned in one table.

Each entry of its ``CHECKS`` names a tool, its arguments and the fixture
holding the SHA-256 of its output: every verdict and witness of the class
sweeps (seeds 1 and 2), the sampler's draws and final rng state, the QQ
sweep, and every rank, radical and decomposed triple of the section sweep.
"""

import hashlib
import os

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
