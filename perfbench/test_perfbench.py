"""Self-test of the benchmark at minimal input sizes.

    python3 -m pytest -q perfbench

Checks that a pass of each workload emits every metric BENCHMARK.json
names, with its unit, and that corrupted outputs are counted as failures.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", [wl["name"] for wl in BENCHMARK["workloads"]])
def test_minimal_pass_emits_every_metric(name, trace, section, capsys):
    argv = ["--workload", name, "--seed", "5", "--seconds", "0",
            "--trace", str(trace), "--small"]
    assert harness.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in BENCHMARK[section]}
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workloads_match_benchmark_file():
    assert sorted(workloads.WORKLOADS) == sorted(wl["name"] for wl in BENCHMARK["workloads"])


def test_short_rank_features_count_as_failures():
    """Zero first-layer filters make every row of F_1 equal, so rank(F_1)
    is 1 instead of the batch size: every batch must fail its check."""
    workload = workloads.WORKLOADS["reference-forward"]
    state = workload.setup(0, small=True)
    params = state["params"]
    state["params"] = params.with_layer(1, np.zeros_like(params.weights[1]),
                                        params.biases[1])
    tally = workloads.Verdict()
    passes = harness.measure(workload, state, 0, tally)
    assert tally.failed == tally.attempted == len(passes) * len(state["batches"])
    assert tally.failure_rate == 1.0
    assert all(workload.rates_of(o, v)["forward_samples_per_s"] == 0 for o, v in passes)


def test_raised_widecnn_error_counts_as_failed_operation():
    """Identical samples violate the distinct-patches assumption; the
    construction's AssumptionError is one failed operation, not a crash."""
    workload = workloads.WORKLOADS["construct"]
    state = workload.setup(0, small=True)
    spec, X, cfg = state["independence"][0]
    state["independence"][0] = (spec, np.zeros_like(X), cfg)
    verdict = workload.check(state, workload.run(state))
    assert verdict.failed == 1
    assert verdict.ops == verdict.attempted - 1
