"""Adam training loop over the exact backpropagation gradients.

Full-batch by default (so landscape statements about critical points can
be tested without minibatch noise); minibatch order is reshuffled each
epoch from the config seed, making runs reproducible. The learning rate
follows a step decay schedule.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    NumericOverflowError,
    TrainingDivergedError,
)
from .gradients import backward, loss
from .network import Dataset, NetworkSpec, Params, _seal, forward


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
    params: Params
    loss_curve: tuple[float, ...]  # full-batch loss after each epoch
    train_error_count: int
    test_error_count: int | None
    epochs_run: int = 0


def classification_errors(spec: NetworkSpec, params: Params, dataset: Dataset) -> int:
    """Count samples whose argmax output disagrees with their class."""
    out = forward(spec, params, dataset.X).output
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
    test_dataset: Dataset | None = None,
) -> TrainResult:
    """Optimize all filter matrices and biases with Adam.

    Deterministic given the config seed; raises TrainingDivergedError with
    the epoch index if the loss leaves the finite range.
    """
    rng = np.random.default_rng(cfg.seed)
    X, Y = dataset.X, dataset.Y
    N = X.shape[0]
    batch = N if cfg.batch_size is None else min(cfg.batch_size, N)

    # Every step replaces these read-only arrays with new ones instead of
    # updating them in place, so materialize() shares them without a copy.
    weights = {
        l: params0.weights[l]
        for l in range(1, spec.depth + 1)
        if params0.weights[l] is not None
    }
    biases = {l: params0.biases[l] for l in weights}
    m_state = {l: (np.zeros_like(weights[l]), np.zeros_like(biases[l])) for l in weights}
    v_state = {l: (np.zeros_like(weights[l]), np.zeros_like(biases[l])) for l in weights}
    b1, b2, eps = cfg.adam.beta1, cfg.adam.beta2, cfg.adam.eps

    def materialize() -> Params:
        ws = [None] * (spec.depth + 1)
        bs = [None] * (spec.depth + 1)
        for l in weights:
            ws[l] = weights[l]
            bs[l] = biases[l]
        return Params(tuple(ws), tuple(bs))

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
                params = materialize()
                # the gather is a new array, so the trace takes it uncopied
                trace = forward(spec, params, _seal(X[rows]))
                grads = backward(spec, params, trace, Y[rows])
                step += 1
                corr1 = 1.0 - b1**step
                corr2 = 1.0 - b2**step
                for l in weights:
                    for current, grad, slot in (
                        (weights, grads.grad_W[l], 0),
                        (biases, grads.grad_b[l], 1),
                    ):
                        if cfg.method == "gd":
                            new = current[l] - lr * grad
                        else:
                            m = m_state[l][slot]
                            v = v_state[l][slot]
                            m *= b1
                            m += (1.0 - b1) * grad
                            v *= b2
                            v += (1.0 - b2) * grad * grad
                            new = current[l] - lr * (m / corr1) / (np.sqrt(v / corr2) + eps)
                        new.setflags(write=False)
                        current[l] = new
            epoch_loss = loss(forward(spec, materialize(), X), Y)
        except NumericOverflowError as exc:
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
            and classification_errors(spec, materialize(), dataset) == 0
        ):
            break

    final = materialize()
    train_errors = classification_errors(spec, final, dataset)
    test_errors = (
        classification_errors(spec, final, test_dataset)
        if test_dataset is not None
        else None
    )
    return TrainResult(final, tuple(curve), train_errors, test_errors, len(curve))
