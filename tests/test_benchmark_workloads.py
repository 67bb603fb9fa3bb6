"""The benchmark's own operations as tier-1 gates: every workload's small
pass runs without a failed operation, and the full-size desk sweep
reproduces its stored digests bit for bit. ``perfbench/workloads.py`` is
imported by path and only read."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _checked_pass(workload, seed, small):
    state = workload.setup(seed, small=small)
    return state, workload.check(state, workload.run(state))


@pytest.mark.parametrize(
    "name", ["desk-train", "rank-landscape", "construct", "reference-forward"])
def test_small_pass_has_no_failed_operation(workloads, name):
    _, verdict = _checked_pass(workloads[name], 5, small=True)
    assert verdict.attempted > 0
    assert verdict.failed == 0


@pytest.mark.parametrize("seed", [0, 1])
def test_desk_sweep_matches_its_reference_digest(workloads, seed):
    state, verdict = _checked_pass(workloads["desk-train"], seed, small=False)
    assert state["reference"] is not None
    assert verdict.failed == 0
    assert verdict.digest_mismatches == 0
