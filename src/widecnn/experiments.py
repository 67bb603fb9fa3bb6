"""Experiment runners, configuration files, and CSV reporting.

Each config key is a field of ``ExperimentConfig`` or of its sections
(``dataset``, ``learning_rate``, ``adam``), checked in that dataclass's
``__post_init__``: unknown keys and wrong values raise ConfigError. Every
run is deterministic given (config, seed). CSV reports follow their tag's
columns in ``SCHEMAS``, are RFC-4180, carry a ``# schema=<tag>`` line
above the header row, and can be appended to without rewriting it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .activations import Activation, ReLU, Sigmoid, Softplus
from .analysis import BoundReport, RankReport, estimate_rank, gradient_bounds
from .architectures import desk_sweep_network, single_conv_network
from .constructions import ConstructionParams
from .data import load_idx, synthesize_dataset
from .errors import ConfigError, FormatError
from .layout import conv1d_layout
from .network import (
    Conv,
    Dataset,
    FullyConnected,
    NetworkSpec,
    Output,
    Params,
    Workspace,
    forward,
)
from .training import (
    AdamConfig,
    LearningRateSchedule,
    TrainConfig,
    check_fields,
    classification_errors,
    is_int,
    is_real,
    train_adam,
)

# ---------------------------------------------------------------------------
# CSV reporting

SCHEMAS = {
    "rank-genericity.v1": ("seed", "rows", "cols", "estimated_rank", "sigma_min",
                           "sigma_max", "threshold", "full_row_rank"),
    # the columns of the reference table, in its order
    "table2.v1": ("T_1", "size(F_1)", "rank(F_1)", "sigma_min(F_1)", "size(F_3)",
                  "rank(F_3)", "sigma_min(F_3)", "loss", "train_error",
                  "test_error"),
    # factors packs the per-layer sandwich factors in one field
    "grad-bounds.v1": ("trial", "lower", "upper", "grad_norm", "residual",
                       "factors"),
    "loss-curve.v1": ("epoch", "loss"),
}


def write_csv(path, tag: str, rows) -> None:
    """Write a report under ``SCHEMAS[tag]``: a ``# schema=`` line, the
    header row, then the data rows. Every row is checked against the
    columns of ``tag`` before the file is opened."""
    if tag not in SCHEMAS:
        raise ConfigError(f"unknown CSV schema {tag!r}; expected one of "
                          f"{sorted(SCHEMAS)}")
    columns = SCHEMAS[tag]
    rows = [list(row) for row in rows]
    if any(len(row) != len(columns) for row in rows):
        raise ConfigError(f"{tag}: every row needs one value for each of its "
                          f"{len(columns)} columns")
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={tag}\n")
        csv.writer(fh).writerows([columns, *rows])


def read_csv(path):
    """Return (schema_tag, columns, rows) from a CSV file; the tag is None
    when the file has no ``# schema=`` line, and then its first line is the
    header row. FormatError for a file without a header row."""
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        if first.startswith("# schema="):
            tag = first.removeprefix("# schema=")
        else:
            tag = None
            fh.seek(0)
        reader = csv.reader(fh)
        columns = next(reader, None)
        if columns is None:
            raise FormatError(f"{path}: no header row")
        rows = [row for row in reader]
    return tag, columns, rows


# ---------------------------------------------------------------------------
# Configuration files


def _positive_int(value) -> bool:
    return is_int(value) and value > 0


@dataclass(frozen=True)
class DatasetConfig:
    """``source`` is ``"synthetic"`` (``n``, ``d``, ``m``, ``seed``,
    ``perturb_sigma``) or ``"idx"`` (``images`` and ``labels`` paths)."""

    source: str = "synthetic"
    n: int = 64
    d: int = 16
    m: int = 2
    seed: int = 0
    perturb_sigma: float = 0.0
    images: str | None = None
    labels: str | None = None

    def __post_init__(self):
        if self.source not in ("synthetic", "idx"):
            raise ConfigError(f"unknown dataset source {self.source!r}")
        check_fields(self, _positive_int, "a positive integer", "n", "d", "m")
        check_fields(self, lambda v: is_int(v) and v >= 0, "a non-negative integer",
                     "seed")
        check_fields(self, lambda v: is_real(v) and v >= 0, "a non-negative number",
                     "perturb_sigma")
        idx = self.source == "idx"
        check_fields(self, lambda v: isinstance(v, str) if idx else v is None,
                     "a path string for source 'idx' and null otherwise",
                     "images", "labels")
        if idx and any(getattr(self, f.name) != f.default for f in fields(self)
                       if f.name not in ("source", "images", "labels")):
            raise ConfigError("an idx dataset takes only the keys images and labels")

    def load(self) -> Dataset:
        if self.source == "idx":
            return load_idx(self.images, self.labels)
        return synthesize_dataset(self.n, self.d, self.m, self.seed,
                                  self.perturb_sigma)


# the config sections, each parsed from a JSON object of its own fields
_SECTIONS = {"dataset": DatasetConfig, "schedule": LearningRateSchedule,
             "adam": AdamConfig}
# the one config key that is not its field's name
_KEYS = {"schedule": "learning_rate"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment file; every field has a defensible desk-scale
    default so flags alone are enough for the common runs."""

    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    network: str | None = None
    seeds: tuple[int, ...] = tuple(range(100))
    n_subset: int = 256
    epochs: int = 3000
    schedule: LearningRateSchedule = field(default_factory=LearningRateSchedule)
    adam: AdamConfig = field(default_factory=AdamConfig)
    batch_size: int | None = None
    filter_counts: tuple[int, ...] = (2, 4, 8, 16)
    wide_layer: int = 1
    case: int = 1
    trials: int = 200
    activation: str = "sigmoid"
    out: str | None = None

    def __post_init__(self):
        for name, section in _SECTIONS.items():
            check_fields(self, lambda v: isinstance(v, section), section.__name__,
                         name)
        check_fields(self, _positive_int, "a positive integer",
                     "n_subset", "epochs", "wide_layer", "trials")
        check_fields(self, lambda v: v is None or _positive_int(v),
                     "a positive integer or null", "batch_size")
        check_fields(self, lambda v: is_int(v) and 1 <= v <= 3, "1, 2 or 3", "case")
        check_fields(self, lambda v: isinstance(v, tuple) and v
                     and all(is_int(s) and s >= 0 for s in v),
                     "a non-empty list of non-negative integers", "seeds")
        check_fields(self, lambda v: isinstance(v, tuple) and v
                     and all(map(_positive_int, v)),
                     "a non-empty list of positive integers", "filter_counts")
        check_fields(self, lambda v: v is None or isinstance(v, str),
                     "a path string or null", "network", "out")
        named_activation(self.activation)

    def train_config(self, seed: int = 0) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs,
            schedule=self.schedule,
            adam=self.adam,
            batch_size=self.batch_size,
            seed=seed,
        )


def _parse(cls, doc, where: str):
    """Build the config dataclass ``cls`` from a JSON object whose keys are
    its fields; a JSON list becomes a tuple."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    names = {_KEYS.get(f.name, f.name): f.name for f in fields(cls)}
    unknown = set(doc) - set(names)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in doc.items():
        name = names[key]
        if name in _SECTIONS:
            value = _parse(_SECTIONS[name], value, key)
        kwargs[name] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)


def config_from_dict(doc: dict) -> ExperimentConfig:
    return _parse(ExperimentConfig, doc, "config")


def load_config(path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def netspec_and_dataset(cfg: ExperimentConfig) -> tuple[NetworkSpec, Dataset]:
    """The config's netspec and dataset. A dataset whose rows are not as
    wide as the netspec's input is a ConfigError."""
    from .netspec_io import load_netspec

    spec, dataset = load_netspec(cfg.network), cfg.dataset.load()
    if dataset.input_width != spec.input_width:
        raise ConfigError(
            f"the dataset has width {dataset.input_width}, but netspec "
            f"{cfg.network} takes inputs of width {spec.input_width}")
    return spec, dataset


def named_activation(name: str) -> Activation:
    """``sigmoid``, ``relu``, ``softplus`` (alpha 10) or ``softplus(<alpha>)``."""
    if name == "sigmoid":
        return Sigmoid()
    if name == "relu":
        return ReLU()
    if name == "softplus":
        return Softplus(10.0)
    if isinstance(name, str) and name.startswith("softplus(") and name.endswith(")"):
        try:
            return Softplus(float(name[len("softplus("):-1]))
        except ValueError:
            pass
    raise ConfigError(f"unknown activation name {name!r}; expected sigmoid, relu, "
                      f"softplus or softplus(<alpha > 0>)")


# ---------------------------------------------------------------------------
# Rank genericity under random parameters

@dataclass(frozen=True)
class RankGenericityResult:
    """The rank of F_``layer`` of ``spec``, the network that ran, for each
    seed, and the fraction of the seeds at which it is N."""

    reports: tuple[RankReport, ...]
    seeds: tuple[int, ...]
    fraction_full: float
    spec: NetworkSpec
    layer: int

    def csv_rows(self):
        return [
            [str(seed), str(rep.rows), str(rep.cols), str(rep.estimated_rank),
             repr(rep.sigma_min), repr(rep.sigma_max), repr(rep.threshold),
             str(rep.estimated_rank == rep.rows)]
            for seed, rep in zip(self.seeds, self.reports)
        ]


def run_rank_genericity(cfg: ExperimentConfig) -> RankGenericityResult:
    """Estimate rank(F_k) under Gaussian parameters for each seed, on the
    configured netspec's wide layer, or else on a single conv layer just
    wide enough that n_1 >= N.

    With analytic activations and n_k >= N the full-rank fraction should
    be 1.0; for ReLU the fraction is reported without any claim. The
    trials share one workspace, whose buffers are freed when the run
    ends.
    """
    if cfg.network is not None:
        (spec, dataset), k = netspec_and_dataset(cfg), cfg.wide_layer
    else:
        dataset = cfg.dataset.load()
        d, n = dataset.input_width, dataset.sample_count
        kernel = min(9, d)
        filters = -(-2 * n // (d - kernel + 1))  # width 2N leaves slack above the bound
        act = named_activation(cfg.activation)
        spec, k = single_conv_network(d, kernel, filters, activation=act), 1
    reports, workspace = [], Workspace()
    for seed in cfg.seeds:
        rng = np.random.default_rng(seed)
        params = Params.gaussian(spec, rng, up_to=k)
        reports.append(estimate_rank(
            forward(spec, params, dataset.X, up_to=k, workspace=workspace).F[k]))
    hits = sum(rep.estimated_rank == dataset.sample_count for rep in reports)
    result = RankGenericityResult(tuple(reports), tuple(cfg.seeds),
                                  hits / len(cfg.seeds), spec, k)
    if cfg.out:
        write_csv(cfg.out, "rank-genericity.v1", result.csv_rows())
    return result


# ---------------------------------------------------------------------------
# Desk-scale filter sweep

@dataclass(frozen=True)
class Table2Row:
    """One sweep entry; column order mirrors the reference table:
    first-layer filter count, then size/rank/smallest singular value of
    the first and third feature matrices, final loss, and error counts."""

    t1: int
    f1_size: tuple[int, int]
    f1_rank: int
    f1_sigma_min: float
    f3_size: tuple[int, int]
    f3_rank: int
    f3_sigma_min: float
    loss: float
    train_error: int
    test_error: int

    def csv_row(self) -> list[str]:
        return [
            str(self.t1),
            f"{self.f1_size[0]}x{self.f1_size[1]}",
            str(self.f1_rank),
            repr(self.f1_sigma_min),
            f"{self.f3_size[0]}x{self.f3_size[1]}",
            str(self.f3_rank),
            repr(self.f3_sigma_min),
            repr(self.loss),
            str(self.train_error),
            str(self.test_error),
        ]


@dataclass(frozen=True)
class SweepRun:
    row: Table2Row
    init_f1_rank: int
    loss_curve: tuple[float, ...]


@dataclass(frozen=True)
class SweepResult:
    runs: tuple[SweepRun, ...]

    @property
    def rows(self) -> list[Table2Row]:
        return [run.row for run in self.runs]


def table2_desk_config(
    n_subset: int = 256,
    filter_counts: tuple[int, ...] = (2, 4, 8, 16),
    epochs: int = 3000,
    seed: int = 0,
    out: str | None = None,
) -> ExperimentConfig:
    """Desk-scale sweep defaults: 64-wide synthetic inputs with 10 balanced
    classes, a 9-tap first conv layer so the widest filter count clears
    n_1 >= n_subset, and the standard step-decay Adam recipe. For IDX
    files, replace the result's ``dataset`` with an ``idx`` DatasetConfig."""
    return ExperimentConfig(
        dataset=DatasetConfig(source="synthetic", n=2 * n_subset, d=64, m=10,
                              seed=seed),
        seeds=(seed,),
        n_subset=n_subset,
        epochs=epochs,
        batch_size=64,
        filter_counts=filter_counts,
        out=out,
    )


def sweep_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Train and held-out datasets of ``n_subset`` samples each."""
    if cfg.dataset.source == "idx":
        full = cfg.dataset.load()
    else:
        full = replace(cfg.dataset, n=2 * cfg.n_subset).load()
    n = cfg.n_subset
    if full.sample_count < 2 * n:
        raise ConfigError(
            f"n_subset={n} needs {2 * n} samples (train + held-out); the "
            f"dataset has {full.sample_count}"
        )
    train = Dataset(full.X[:n], full.Y[:n], full.labels[:n], full.Z)
    test = Dataset(full.X[n : 2 * n], full.Y[n : 2 * n], full.labels[n : 2 * n],
                   full.Z)
    return train, test


def run_table2_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Train the sweep architecture for each first-layer filter count and
    report feature-matrix ranks, final loss, and error counts."""
    train_set, test_set = sweep_datasets(cfg)
    runs = tuple(_sweep_run(cfg, train_set, test_set, t1) for t1 in cfg.filter_counts)
    result = SweepResult(runs)
    if cfg.out:
        write_csv(cfg.out, "table2.v1", [r.csv_row() for r in result.rows])
    return result


def _sweep_run(cfg: ExperimentConfig, train_set: Dataset, test_set: Dataset,
               t1: int) -> SweepRun:
    """One filter count of the sweep. The held-out half is scored right
    after training, before the forward that gives the final ranks, so one
    full-batch trace is alive at a time, and that trace is dropped on
    return, so the next filter count's forwards recycle its buffers."""
    spec = desk_sweep_network(train_set.input_width, t1, train_set.class_count)
    seed = cfg.seeds[0]
    params0 = Params.fan_in_gaussian(spec, np.random.default_rng(seed))
    init_rank = estimate_rank(
        forward(spec, params0, train_set.X, up_to=1).F[1]
    ).estimated_rank
    train_cfg = replace(cfg.train_config(seed), stop_at_zero_errors=True)
    result = train_adam(spec, params0, train_set, train_cfg)
    test_error = classification_errors(spec, result.params, test_set)
    trace = forward(spec, result.params, train_set.X)
    rep1 = estimate_rank(trace.F[1])
    rep3 = estimate_rank(trace.F[3])
    row = Table2Row(
        t1=t1,
        f1_size=(trace.F[1].shape[0], trace.F[1].shape[1]),
        f1_rank=rep1.estimated_rank,
        f1_sigma_min=rep1.sigma_min,
        f3_size=(trace.F[3].shape[0], trace.F[3].shape[1]),
        f3_rank=rep3.estimated_rank,
        f3_sigma_min=rep3.sigma_min,
        loss=result.loss_curve[-1],
        train_error=result.train_error_count,
        test_error=test_error,
    )
    return SweepRun(row, init_rank, result.loss_curve)


# ---------------------------------------------------------------------------
# Gradient sandwich evaluation on random architectures


def random_landscape_case(rng: np.random.Generator, residual_floor: float = 0.0):
    """Random architecture/data/parameters meeting the wide-pyramid
    assumptions: returns (spec, wide_layer, X, Y, params).

    The wide layer is 1 or 2, convolutional or dense, with width at least
    the sample count N, which is 3 to 6; layers above it are dense with nonincreasing widths and sigmoid or
    softplus activations. Targets are Gaussian, guaranteeing (for
    ``residual_floor`` > 0) a residual of at least that norm.
    """
    N = int(rng.integers(3, 7))
    d = int(rng.integers(4, 9))
    act = Sigmoid() if rng.integers(2) == 0 else Softplus(float(rng.integers(2, 9)))
    layers = []
    width = d
    k = int(rng.integers(1, 3))
    if k == 2:
        w1 = int(rng.integers(3, 7))
        layers.append(FullyConnected(w1, act))
        width = w1
    if rng.integers(2) == 0 and width >= 3:
        kernel = int(rng.integers(2, width))
        windows = width - kernel + 1
        filters = -(-N // windows) + int(rng.integers(1, 3))
        layers.append(Conv(conv1d_layout(width, kernel, 1), filters, act))
        width = windows * filters
    else:
        width = N + int(rng.integers(0, 4))
        layers.append(FullyConnected(width, act))
    m = int(rng.integers(1, 4))
    tail_depth = int(rng.integers(0, 3))
    tail = sorted(
        (int(rng.integers(m, max(m + 1, N + 4))) for _ in range(tail_depth)),
        reverse=True,
    )
    for w in tail:
        layers.append(FullyConnected(w, act))
    layers.append(Output(m))
    spec = NetworkSpec(d, tuple(layers))
    X = rng.standard_normal((N, d))
    Y = rng.standard_normal((N, m))
    params = Params.gaussian(spec, rng, weight_scale=0.7, bias_scale=0.3)
    if residual_floor > 0.0:
        out = forward(spec, params, X).output
        gap = float(np.linalg.norm(out - Y))
        if gap < residual_floor:
            Y = Y + (residual_floor / max(gap, 1e-9)) * (Y - out)
    return spec, k, X, Y, params


# Relative slack, scaled by max(1, upper bound), that a sandwich check allows.
REL_SLACK = 1e-8


@dataclass(frozen=True)
class GradBoundsResult:
    reports: tuple[BoundReport, ...]
    violations: int


def run_grad_bounds(cfg: ExperimentConfig) -> GradBoundsResult:
    """Evaluate the gradient sandwich on ``trials`` random configurations
    and count violations beyond the relative slack."""
    rng = np.random.default_rng(cfg.seeds[0])
    reports = []
    violations = 0
    for _ in range(cfg.trials):
        spec, k, X, Y, params = random_landscape_case(rng)
        trace = forward(spec, params, X)
        report = gradient_bounds(spec, params, trace, Y, k)
        reports.append(report)
        slack = REL_SLACK * max(1.0, report.upper)
        if not (report.lower - slack <= report.grad_norm <= report.upper + slack):
            violations += 1
    result = GradBoundsResult(tuple(reports), violations)
    if cfg.out:
        write_csv(cfg.out, "grad-bounds.v1",
                  [[str(i), *rep.csv_row()] for i, rep in enumerate(reports)])
    return result


# ---------------------------------------------------------------------------
# Zero-loss demonstration instances


def zero_loss_demo_case(case: int, seed: int = 0, N: int = 8, m: int = 2):
    """A (spec, dataset, wide_layer) triple exercising one of the three
    construction regimes: wide layer immediately before the output (1),
    one dense layer between (2), or two or more (3, uses the recursive
    class-collapse construction)."""
    d = 10
    act = Sigmoid()
    wide = FullyConnected(max(N, m) + 4, act)
    if case == 1:
        layers = (wide, Output(m))
        k = 1
    elif case == 2:
        layers = (wide, FullyConnected(max(m + 2, 6), act), Output(m))
        k = 1
    elif case == 3:
        layers = (
            FullyConnected(6, act),
            FullyConnected(N + 4, act),
            FullyConnected(6, act),
            FullyConnected(4, act),
            Output(m),
        )
        k = 2
    else:
        raise ConfigError(f"case must be 1, 2, or 3; got {case}")
    dataset = synthesize_dataset(N, d, m, seed=seed)
    spec = NetworkSpec(d, layers)
    return spec, dataset, k


def independence_demo(
    n_samples: int, activation: Activation, seed: int
) -> tuple[NetworkSpec, np.ndarray, ConstructionParams]:
    """A single wide conv layer instance for the independence construction."""
    d = max(6, n_samples // 4)
    kernel = min(4, d)
    windows = d - kernel + 1
    filters = -(-n_samples // windows) + 1
    # X before the spec, which draws nothing: a too large n fails on X
    X = np.random.default_rng(seed).standard_normal((n_samples, d))
    spec = single_conv_network(d, kernel, filters, activation=activation)
    return spec, X, ConstructionParams(seed=seed)
