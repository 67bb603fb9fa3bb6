"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs one timed
pass over the public widecnn API in ``run`` (recording a raised
``WideCnnError`` as that operation's result), and judges every result in
``check``, outside the timed region. A pass does the same work every time
it is repeated on the same state.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import widecnn as w
from widecnn import architectures, experiments
from widecnn.layout import conv1d_layout

REFERENCE_PATH = Path(__file__).resolve().parent / "desk_train_reference.json"


@dataclass
class Outcome:
    """What one pass produced: per-part wall times and raw results."""

    part_s: dict[str, float]
    results: dict[str, list] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.part_s.values())


@dataclass
class Verdict:
    """Checked outcome of one pass, or the sum over a run's passes. ``ops``
    counts the operations behind the workload's primary rate that passed
    their checks."""

    attempted: int = 0
    failed: int = 0
    ops: int = 0
    digest_mismatches: int = 0
    digest_unchecked: int = 0

    def record(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok

    def add(self, other: "Verdict") -> None:
        for name in vars(self):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @property
    def failure_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _timed(fn, *args):
    """Call fn; a WideCnnError becomes the result instead of propagating."""
    start = time.perf_counter()
    try:
        result = fn(*args)
    except w.WideCnnError as exc:
        result = exc
    return result, time.perf_counter() - start


def _full_rank_liftings(spec, params, layers) -> bool:
    return all(
        w.estimate_rank(w.lift_weights(spec, l, params.weights[l])).full_rank
        for l in layers
    )


class DeskTrain:
    name = "desk-train"
    rates = {"train_steps_per_s": "steps/s"}
    full = dict(n_subset=256, filter_counts=(2, 16), epochs=40)
    small = dict(n_subset=32, filter_counts=(2,), epochs=2)

    def setup(self, seed, small=False):
        size = self.small if small else self.full
        cfg = experiments.table2_desk_config(seed=seed, **size)
        reference = None
        if not small and REFERENCE_PATH.is_file():
            doc = json.loads(REFERENCE_PATH.read_text())
            if doc["config"] == _jsonable(size):
                reference = doc["digests"].get(str(seed))
        return dict(cfg=cfg, reference=reference)

    def run(self, state):
        result, elapsed = _timed(experiments.run_table2_sweep, state["cfg"])
        return Outcome({"sweep": elapsed}, {"sweep": [result]})

    def check(self, state, outcome):
        cfg = state["cfg"]
        verdict = Verdict()
        result = outcome.results["sweep"][0]
        if isinstance(result, w.WideCnnError):
            for _ in cfg.filter_counts:
                verdict.record(False)
            return verdict
        batches = math.ceil(cfg.n_subset / cfg.batch_size)
        for run in result.runs:
            expected = min(cfg.n_subset, run.row.f1_size[1])
            curve = np.asarray(run.loss_curve)
            ok = verdict.record(
                run.init_f1_rank == expected
                and run.row.f1_rank == expected
                and len(curve) == cfg.epochs
                and bool(np.all(np.isfinite(curve)))
            )
            verdict.ops += ok * len(curve) * batches
        if state["reference"] is None:
            verdict.digest_unchecked = 1
        else:
            verdict.digest_mismatches = int(sweep_digest(result) != state["reference"])
        return verdict

    def rates_of(self, outcome, verdict):
        return {"train_steps_per_s": verdict.ops / outcome.wall_s}


def sweep_digest(result) -> str:
    """SHA-256 over the Table-2 rows and loss curves, exact to the last bit."""
    doc = [[run.row.csv_row(), [float(x).hex() for x in run.loss_curve]]
           for run in result.runs]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _jsonable(size: dict) -> dict:
    return json.loads(json.dumps(size))


class RankLandscape:
    name = "rank-landscape"
    rates = {"rank_trials_per_s": "trials/s", "bound_checks_per_s": "checks/s"}
    full = dict(n=256, d=64, m=10, trials=40, draws=1000)
    small = dict(n=16, d=16, m=2, trials=3, draws=10)
    rel_slack = 1e-8

    def setup(self, seed, small=False):
        size = self.small if small else self.full
        first = size["trials"] * seed
        cfg = experiments.ExperimentConfig(
            dataset=experiments.DatasetConfig(n=size["n"], d=size["d"], m=size["m"],
                                              seed=seed),
            seeds=tuple(range(first, first + size["trials"])),
        )
        rng = np.random.default_rng(seed)
        cases = [experiments.random_landscape_case(rng) for _ in range(size["draws"])]
        return dict(cfg=cfg, cases=cases)

    def run(self, state):
        genericity, genericity_s = _timed(experiments.run_rank_genericity, state["cfg"])
        bounds, bounds_s = [], 0.0
        for case in state["cases"]:
            report, elapsed = _timed(_bound_check, *case)
            bounds.append(report)
            bounds_s += elapsed
        return Outcome({"genericity": genericity_s, "bounds": bounds_s},
                       {"genericity": [genericity], "bounds": bounds})

    def check(self, state, outcome):
        verdict = Verdict()
        cfg = state["cfg"]
        genericity = outcome.results["genericity"][0]
        for i in range(len(cfg.seeds)):
            ok = not isinstance(genericity, w.WideCnnError) and (
                genericity.reports[i].estimated_rank == cfg.dataset.n)
            verdict.ops += verdict.record(ok)
        for report in outcome.results["bounds"]:
            if isinstance(report, w.WideCnnError):
                verdict.record(False)
                continue
            slack = self.rel_slack * max(1.0, report.upper)
            verdict.record(report.lower - slack <= report.grad_norm <= report.upper + slack)
        return verdict

    def rates_of(self, outcome, verdict):
        return {
            "rank_trials_per_s": verdict.ops / outcome.part_s["genericity"],
            "bound_checks_per_s": len(outcome.results["bounds"]) / outcome.part_s["bounds"],
        }


def _bound_check(spec, k, X, Y, params):
    """Sandwich bounds plus full-rank-set membership at one random point."""
    trace = w.forward(spec, params, X)
    report = w.gradient_bounds(spec, params, trace, Y, k)
    w.s_k_membership(spec, params, trace, k)
    return report


def _two_layer_conv_net(act, n_samples):
    """Two stacked 1D conv layers over 12 inputs, the second one wide."""
    second_filters = -(-n_samples // 5) + 1
    return w.NetworkSpec(12, (
        w.Conv(conv1d_layout(12, 3, 1), 3, act),
        w.Conv(conv1d_layout(30, 10, 5), second_filters, act),
    ))


class Construct:
    name = "construct"
    rates = {"constructions_per_s": "constructions/s"}
    full = dict(n=128, d=64, kernel=9, filters=3, two_layer_seeds=5,
                zero_loss_seeds=10, zero_loss_n=32, zero_loss_m=4, targets=10)
    small = dict(n=16, d=16, kernel=9, filters=3, two_layer_seeds=1,
                 zero_loss_seeds=1, zero_loss_n=8, zero_loss_m=2, targets=1)

    def setup(self, seed, small=False):
        size = self.small if small else self.full
        rng = np.random.default_rng(seed)
        base = 1000 * seed
        spec = architectures.single_conv_network(size["d"], size["kernel"],
                                                 size["filters"])
        independence = [(spec, rng.standard_normal((size["n"], size["d"])),
                         w.ConstructionParams(seed=base))]
        two_layer = [
            (_two_layer_conv_net(act, n), rng.standard_normal((n, 12)),
             w.ConstructionParams(seed=base + j))
            for act in (w.Sigmoid(), w.Softplus(10.0), w.ReLU())
            for n in (8, 32)
            for j in range(size["two_layer_seeds"])
        ]
        zero_loss = []
        for case in (1, 2, 3):
            for j in range(size["zero_loss_seeds"]):
                spec_z, dataset, k = experiments.zero_loss_demo_case(
                    case, seed=base + j, N=size["zero_loss_n"], m=size["zero_loss_m"])
                zero_loss.append((spec_z, dataset, k, w.ConstructionParams(seed=base + j)))
        spec_e = w.NetworkSpec(8, (w.Conv(conv1d_layout(8, 4, 1), 4, w.Sigmoid()),
                                   w.Output(1)))
        X_e = rng.standard_normal((16, 8))
        expressivity = [(spec_e, X_e, rng.standard_normal(16),
                         w.ConstructionParams(seed=base + j))
                        for j in range(size["targets"])]
        return dict(independence=independence, two_layer=two_layer,
                    zero_loss=zero_loss, expressivity=expressivity)

    def run(self, state):
        results = {
            "independence": [
                _timed(w.independence_construction_report, spec, X, 1, cfg)
                for spec, X, cfg in state["independence"]],
            "two_layer": [
                _timed(w.independence_construction, spec, X, 2, cfg)
                for spec, X, cfg in state["two_layer"]],
            "zero_loss": [
                _timed(w.zero_loss_construction, spec, dataset, k, cfg)
                for spec, dataset, k, cfg in state["zero_loss"]],
            "expressivity": [
                _timed(w.expressivity_fit, spec, X, y, cfg)
                for spec, X, y, cfg in state["expressivity"]],
        }
        return Outcome(
            {part: sum(s for _, s in timed) for part, timed in results.items()},
            {part: [r for r, _ in timed] for part, timed in results.items()},
        )

    def check(self, state, outcome):
        verdict = Verdict()
        checks = (
            ("independence", self._independence_ok),
            ("two_layer", self._two_layer_ok),
            ("zero_loss", self._zero_loss_ok),
            ("expressivity", self._expressivity_ok),
        )
        for part, judge in checks:
            for inputs, result in zip(state[part], outcome.results[part]):
                ok = not isinstance(result, w.WideCnnError) and judge(inputs, result)
                verdict.ops += verdict.record(ok)
        return verdict

    @staticmethod
    def _independence_ok(inputs, report):
        spec, X, _ = inputs
        F = w.forward(spec, report.params, X, up_to=1).F[1]
        return (w.estimate_rank(F).estimated_rank == len(X)
                and _full_rank_liftings(spec, report.params, (1,)))

    @staticmethod
    def _two_layer_ok(inputs, params):
        spec, X, _ = inputs
        F = w.forward(spec, params, X, up_to=2).F[2]
        return (w.estimate_rank(F).estimated_rank == len(X)
                and _full_rank_liftings(spec, params, (1, 2)))

    @staticmethod
    def _zero_loss_ok(inputs, params):
        spec, dataset, k, _ = inputs
        trace = w.forward(spec, params, dataset.X)
        budget = 1e-14 * (1.0 + float(np.sum(dataset.Y ** 2)))
        return (w.loss(trace, dataset.Y) <= budget
                and w.s_k_membership(spec, params, trace, k).in_good_set)

    @staticmethod
    def _expressivity_ok(inputs, fit):
        spec, X, y, _ = inputs
        params = w.expressivity_params(spec, *fit)
        out = w.forward(spec, params, X).output[:, 0]
        return float((np.abs(out - y) / (1.0 + np.abs(y))).max()) <= 1e-8

    def rates_of(self, outcome, verdict):
        return {"constructions_per_s": verdict.ops / outcome.wall_s}


class ReferenceForward:
    name = "reference-forward"
    rates = {"forward_samples_per_s": "samples/s"}
    full = dict(first_filters=100, second_filters=80, dense_width=100,
                batch=32, batches=4)
    small = dict(first_filters=4, second_filters=4, dense_width=8, batch=8, batches=1)

    def setup(self, seed, small=False):
        size = self.small if small else self.full
        rng = np.random.default_rng(seed)
        spec = architectures.mnist_conv_pool_network(
            size["first_filters"], size["second_filters"], size["dense_width"])
        params = w.Params.fan_in_gaussian(spec, rng)
        batches = [rng.uniform(size=(size["batch"], spec.input_width))
                   for _ in range(size["batches"])]
        return dict(spec=spec, params=params, batches=batches)

    def run(self, state):
        spec, params = state["spec"], state["params"]
        results = [_timed(_forward_and_ranks, spec, params, X) for X in state["batches"]]
        return Outcome({"forward": sum(s for _, s in results)},
                       {"forward": [r for r, _ in results]})

    def check(self, state, outcome):
        verdict = Verdict()
        for X, result in zip(state["batches"], outcome.results["forward"]):
            ok = not isinstance(result, w.WideCnnError) and (
                result[0] and result[1] == len(X))
            verdict.ops += ok * len(X)
            verdict.record(ok)
        return verdict

    def rates_of(self, outcome, verdict):
        return {"forward_samples_per_s": verdict.ops / outcome.wall_s}


def _forward_and_ranks(spec, params, X):
    """Forward pass, then the ranks of F_1 and F_3; keeps only the summary
    (output finite, rank F_1, rank F_3) so no batch's features outlive it."""
    trace = w.forward(spec, params, X)
    return (bool(np.all(np.isfinite(trace.output))),
            w.estimate_rank(trace.F[1]).estimated_rank,
            w.estimate_rank(trace.F[3]).estimated_rank)


WORKLOADS = {wl.name: wl for wl in (DeskTrain(), RankLandscape(), Construct(),
                                    ReferenceForward())}
