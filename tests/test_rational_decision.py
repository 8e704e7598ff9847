"""The class decision over QQ, on the seeded pairs of ``tools/qq_sweep.py``."""

import collections

import pytest

from conftest import load_tool

from picforms.equivalence import (
    KIND_BOTH,
    KIND_CONJ,
    KIND_DISTINCT,
    KIND_EQUAL,
    recover_transform,
    same_class,
)
from picforms.errors import GramMismatch
from picforms.fields import QQ
from picforms.ortho import OrthogonalMatrix
from picforms.quadform import gram, rank_radical
from picforms.triples import act, conjugate

@pytest.fixture(scope="module")
def sweep():
    return load_tool("qq_sweep.py")


@pytest.fixture(scope="module")
def pairs(sweep):
    return list(sweep.pairs(1))


def test_qq_sweep_covers_the_cases(pairs):
    assert len(pairs) >= 200
    seen = collections.Counter()
    for label, mode, t1, t2 in pairs:
        seen[label.split("/")[1], rank_radical(gram(t1))[0], mode] += 1
    for genus in ("g1", "g2"):
        for rank in (2, 3):
            for mode in ("proper", "improper", "independent"):
                assert seen[genus, rank, mode] > 0, (genus, rank, mode)


def _verified(matrix, t1, target, proper):
    """The witness re-checked through the public API."""
    checked = OrthogonalMatrix(matrix.rows)
    assert checked.field is QQ and checked.proper is proper
    assert act(checked, t1) == target


def test_qq_witnesses_verify_through_public_api(pairs):
    kinds = collections.Counter()
    for _, mode, t1, t2 in pairs:
        rel = same_class(t1, t2)
        kinds[rel.kind] += 1
        assert (rel.witness is not None) == (rel.kind in (KIND_EQUAL, KIND_BOTH))
        assert (rel.conjugate_witness is not None) == (rel.kind in (KIND_CONJ, KIND_BOTH))
        if mode == "proper":
            assert rel.kind in (KIND_EQUAL, KIND_BOTH)
        elif mode == "improper":
            assert rel.kind in (KIND_CONJ, KIND_BOTH)
        if rel.witness is not None:
            _verified(rel.witness, t1, t2, True)
        if rel.conjugate_witness is not None:
            _verified(rel.conjugate_witness, t1, conjugate(t2), True)
        if rel.kind == KIND_DISTINCT:
            assert gram(t1) != gram(t2)
            with pytest.raises(GramMismatch):
                recover_transform(t1, t2)
        else:
            m = recover_transform(t1, t2)
            _verified(m, t1, t2, rel.witness is not None)
    assert set(kinds) == {KIND_EQUAL, KIND_BOTH, KIND_CONJ, KIND_DISTINCT}


def test_qq_decision_runs_on_the_integer_kernel(monkeypatch, pairs):
    # the forms are cleared of denominators, so the rational kernel (and its
    # vector form, which calls it) is never used
    def refused(*args):
        raise AssertionError("QQ._raw_dot called")

    monkeypatch.setattr(QQ, "_raw_dot", refused)
    for _, _, t1, t2 in pairs:
        rel = same_class(t1, t2)
        if rel.kind != KIND_DISTINCT:
            recover_transform(t1, t2)
        else:
            with pytest.raises(GramMismatch):
                recover_transform(t1, t2)
