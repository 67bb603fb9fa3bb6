"""Adam training loop over the exact backpropagation gradients.

Full-batch by default (so landscape statements about critical points can
be tested without minibatch noise); minibatch order is reshuffled each
epoch from the config seed, making runs reproducible. The learning rate
follows a step decay schedule.

The trainer keeps the parameters and Adam's moments as flat vectors and
updates them in place with the per-layer formula's elementwise
operations, in its order, so each step is the per-layer step bit for bit.
The full-batch forward that gives an epoch's loss also gives its
training-error count. Every forward and backward of a run writes into the
thread's default ``Workspace``, so the run faults its feature and gradient
arrays in once instead of once per step, and a later run or forward on the
same thread reuses them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    NumericOverflowError,
    StructuralError,
    TrainingDivergedError,
)
from .gradients import backward, loss
from .network import (
    Dataset,
    NetworkSpec,
    Params,
    _check_param_shapes,
    _check_params_finite,
    _param_views,
    _seal,
    forward,
)


def is_int(value) -> bool:
    """An int of any width, numpy's included; bool is not a number here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A finite int or float; bool is not a number here."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) < math.inf)


def check_fields(obj, ok, expected: str, *names: str) -> None:
    """Raise ConfigError unless ``ok(value)`` holds for each named field of
    the config dataclass ``obj``."""
    for name in names:
        value = getattr(obj, name)
        if not ok(value):
            raise ConfigError(
                f"{type(obj).__name__}.{name} must be {expected}, got {value!r}"
            )


@dataclass(frozen=True)
class LearningRateSchedule:
    """Step decay: ``initial * decay ** (epoch // interval)``."""

    initial: float = 1e-3
    decay: float = 0.5
    interval: int = 500

    def __post_init__(self):
        check_fields(self, lambda v: is_real(v) and v > 0, "a positive number",
                     "initial", "decay")
        check_fields(self, lambda v: is_int(v) and v > 0, "a positive integer",
                     "interval")

    def at(self, epoch: int) -> float:
        return self.initial * self.decay ** (epoch // self.interval)


@dataclass(frozen=True)
class AdamConfig:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        check_fields(self, lambda v: is_real(v) and 0 <= v < 1, "a number in [0, 1)",
                     "beta1", "beta2")
        check_fields(self, lambda v: is_real(v) and v > 0, "a positive number", "eps")


# Epochs between the training-error checks of ``stop_at_zero_errors``.
ERROR_CHECK_INTERVAL = 25


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1000
    schedule: LearningRateSchedule = field(default_factory=LearningRateSchedule)
    adam: AdamConfig = field(default_factory=AdamConfig)
    batch_size: int | None = None  # None = full batch
    seed: int = 0
    stop_at_zero_errors: bool = False  # stop once training misclassifies nothing
    # "gd" takes raw full-batch gradient steps. Adam's epsilon-normalized
    # steps have magnitude ~lr even for vanishing gradients, so exact
    # critical-point experiments need this variant to stay put.
    method: str = "adam"

    def __post_init__(self):
        check_fields(self, lambda v: is_int(v) and v > 0, "a positive integer",
                     "epochs")
        check_fields(self, lambda v: v is None or (is_int(v) and v > 0),
                     "a positive integer or None", "batch_size")
        check_fields(self, lambda v: is_int(v) and v >= 0, "a non-negative integer",
                     "seed")
        check_fields(self, lambda v: isinstance(v, bool), "True or False",
                     "stop_at_zero_errors")
        check_fields(self, lambda v: v in ("adam", "gd"), "'adam' or 'gd'", "method")
        check_fields(self, lambda v: isinstance(v, LearningRateSchedule),
                     "a LearningRateSchedule", "schedule")
        check_fields(self, lambda v: isinstance(v, AdamConfig), "an AdamConfig", "adam")


@dataclass(frozen=True)
class TrainResult:
    """The trained parameters, the loss curve and the training-error count
    of the final parameters; ``classification_errors`` scores another set."""

    params: Params
    loss_curve: tuple[float, ...]  # full-batch loss after each epoch
    train_error_count: int


def classification_errors(spec: NetworkSpec, params: Params, dataset: Dataset) -> int:
    """Count samples whose argmax output disagrees with their class."""
    return _errors(forward(spec, params, dataset.X).output, dataset)


def _errors(out: np.ndarray, dataset: Dataset) -> int:
    """Count rows of the network output ``out`` on ``dataset.X`` whose
    argmax disagrees with their class."""
    predicted = out.argmax(axis=1)
    if dataset.labels is not None:
        truth = np.asarray(dataset.labels)
    else:
        truth = dataset.Y.argmax(axis=1)
    return int(np.sum(predicted != truth))


def train_adam(
    spec: NetworkSpec,
    params0: Params,
    dataset: Dataset,
    cfg: TrainConfig = TrainConfig(),
) -> TrainResult:
    """Optimize all filter matrices and biases with Adam.

    Deterministic given the config seed; raises TrainingDivergedError with
    the epoch index if the loss, the features or the parameters leave the
    finite range, and StructuralError if params0 is not finite.

    The parameters p, the moments m and v and one scratch vector are flat
    float64 vectors, each layer's weights then its bias, layer by layer, as
    ``backward`` writes its flat gradient g. Each step updates them in place
    with the elementwise operations of the per-layer Adam formula, in its
    order, so the result does not depend on the layout. The ``Params`` that
    forward and backward read holds views of p, which is sealed whenever
    they run and for good once training ends.

    Every forward and backward writes into the thread's default workspace.
    Each step's trace and gradient are dropped before the next forward, so
    it recycles their buffers; the error counts read the epoch's output
    where its forward wrote it.
    """
    rng = np.random.default_rng(cfg.seed)
    X, Y = dataset.X, dataset.Y
    N = X.shape[0]
    batch = N if cfg.batch_size is None else min(cfg.batch_size, N)

    _check_param_shapes(spec, params0)
    # past this check a non-finite parameter means that training diverged
    _check_params_finite(params0, spec.depth)
    p = _seal(np.concatenate([a.ravel() for pair in zip(params0.weights, params0.biases)
                              for a in pair if a is not None]))
    params = Params(*map(tuple, _param_views(spec, p)))
    m, v, scratch = np.zeros_like(p), np.zeros_like(p), np.empty_like(p)
    b1, b2, eps = cfg.adam.beta1, cfg.adam.beta2, cfg.adam.eps

    step = 0
    curve = []
    for epoch in range(cfg.epochs):
        lr = cfg.schedule.at(epoch)
        if batch == N:
            slices = [np.arange(N)]
        else:
            order = rng.permutation(N)
            slices = [order[i : i + batch] for i in range(0, N, batch)]
        try:
            for rows in slices:
                # the gather is a new array, so the trace takes it uncopied
                trace = forward(spec, params, _seal(X[rows]))
                g = backward(spec, params, trace, Y[rows]).flat
                del trace  # so that the next forward recycles its buffers
                step += 1
                # p -= lr * (m / corr1) / (sqrt(v / corr2) + eps) after
                # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g; g is
                # this step's own array, so it serves as a second scratch.
                # A diverging step overflows here; the next forward finds p
                # non-finite.
                p.setflags(write=True)
                with np.errstate(over="ignore", invalid="ignore"):
                    if cfg.method == "gd":
                        g *= lr
                    else:
                        corr1 = 1.0 - b1**step
                        corr2 = 1.0 - b2**step
                        m *= b1
                        np.multiply(g, 1.0 - b1, out=scratch)
                        m += scratch
                        v *= b2
                        np.multiply(g, 1.0 - b2, out=scratch)
                        scratch *= g
                        v += scratch
                        np.divide(v, corr2, out=scratch)
                        np.sqrt(scratch, out=scratch)
                        scratch += eps
                        np.divide(m, corr1, out=g)
                        g *= lr
                        g /= scratch
                    p -= g
                del g
                _seal(p)
            trace = forward(spec, params, X)
            epoch_loss, output = loss(trace, Y), trace.output
            del trace
        except (NumericOverflowError, StructuralError) as exc:
            # params0 is finite, so non-finite parameters came from a step
            if isinstance(exc, StructuralError) and np.isfinite(p).all():
                raise
            raise TrainingDivergedError(
                f"training diverged at epoch {epoch}: {exc}", epoch=epoch
            ) from exc
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch}", epoch=epoch
            )
        curve.append(float(epoch_loss))
        if (
            cfg.stop_at_zero_errors
            and (epoch + 1) % ERROR_CHECK_INTERVAL == 0
            and _errors(output, dataset) == 0
        ):
            break

    # the last training forward ran on the final p
    return TrainResult(params, tuple(curve), _errors(output, dataset))
