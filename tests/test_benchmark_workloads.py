"""The benchmark's own operations as tier-1 gates: every workload's small
pass runs without a failed operation, the full-size desk sweep
reproduces its stored digests bit for bit, under the default BLAS
threading and under the benchmark's one thread, and reference-forward's
wide feature matrix is ranked by the path the benchmark times. ``perfbench/workloads.py``
is imported by path and only read."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import widecnn
from widecnn import analysis

from test_analysis import _direct_report

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads(path):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.fixture(scope="module")
def workloads():
    return _load_workloads(WORKLOADS_PATH)


def _checked_pass(workload, seed, small):
    state = workload.setup(seed, small=small)
    return state, workload.check(state, workload.run(state))


@pytest.mark.parametrize(
    "name", ["desk-train", "rank-landscape", "construct", "reference-forward"])
def test_small_pass_has_no_failed_operation(workloads, name):
    _, verdict = _checked_pass(workloads[name], 5, small=True)
    assert verdict.attempted > 0
    assert verdict.failed == 0


def _digest_verdict(workloads, seed):
    """[reference found, failed operations, digest mismatches] of a pass."""
    state, verdict = _checked_pass(workloads["desk-train"], seed, small=False)
    return [state["reference"] is not None, verdict.failed, verdict.digest_mismatches]


# a child process whose BLAS pool has one thread, as the benchmark's has
CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_benchmark_workloads import WORKLOADS_PATH, _digest_verdict, _load_workloads
print(json.dumps(_digest_verdict(_load_workloads(WORKLOADS_PATH), int(sys.argv[2]))))
"""


@pytest.mark.parametrize("seed", [0, 1])
def test_desk_sweep_matches_its_reference_digest(workloads, seed):
    """Seed 0 runs in this process under the default threading; seed 1 in a
    child pinned to one BLAS thread, as the benchmark runs, because the
    bits of a GEMM can depend on the kernel OpenBLAS picks for a thread
    count. The child imports the same widecnn sources as this process."""
    if seed == 0:
        verdict = _digest_verdict(workloads, seed)
    else:
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(widecnn.__file__).resolve().parent.parent)]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        child = subprocess.run(
            [sys.executable, "-c", CHILD, str(Path(__file__).resolve().parent), str(seed)],
            env=env, capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        verdict = json.loads(child.stdout)
    assert verdict == [True, 0, 0]


def test_reference_forward_ranks_f1_by_cholesky_qr2(workloads, monkeypatch):
    """The reference net's F_1 (32 x 67 600) on the benchmark's own inputs
    passes CholeskyQR2's guard, so a benchmark that silently fell back to
    the Householder blocks fails here; its F_3 (32 x 2880) stays within one
    tile and keeps the direct LAPACK report."""
    state = workloads["reference-forward"].setup(0)
    X = state["batches"][0]
    trace = widecnn.forward(state["spec"], state["params"], X)
    assert trace.F[1].shape == (32, 67_600) and trace.F[1].size > analysis.RANK_TILE
    qr, calls = np.linalg.qr, []

    def counted_qr(*args, **kwargs):
        calls.append(args[0].shape)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    assert widecnn.estimate_rank(trace.F[1]).estimated_rank == len(X) == 32
    assert calls == []
    assert widecnn.estimate_rank(trace.F[3]) == _direct_report(trace.F[3])
