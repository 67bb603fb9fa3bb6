"""Scalar activation functions and their structural profiles.

Each activation knows its derivative, its inverse (when one exists), the
interval on which it is injective, the constructions' bias offset
``construction_bias`` and target interval ``comfortable_range`` (sigmoid
and softplus only), and a :class:`ActivationProfile` summarizing the
growth behaviour that the landscape results rely on: either both tails
converge to finite limits whose product is zero, or the function is
exponentially bounded on the negative axis and linearly bounded on the
positive axis.
"""

from __future__ import annotations

import abc
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import RangeError

INF = math.inf


@dataclass(frozen=True)
class ActivationProfile:
    """Growth/shape summary of a scalar activation.

    ``limit_neg``/``limit_pos`` are the tail limits when finite, else None.
    ``exp_bound`` is ``(rho1, rho2)`` with ``|f(t)| <= rho1*exp(rho2*t)`` for
    ``t < 0``; ``linear_bound`` is ``(rho3, rho4)`` with
    ``|f(t)| <= rho3*t + rho4`` for ``t >= 0``.
    """

    limit_neg: float | None
    limit_pos: float | None
    exp_bound: tuple[float, float] | None
    linear_bound: tuple[float, float] | None
    strictly_monotone: bool
    analytic: bool

    def admissible_for_hidden_layer(self) -> bool:
        """True if the profile meets either growth alternative required of
        hidden-layer activations (finite tails with zero product, or the
        exponential/linear bound pair)."""
        if self.limit_neg is not None and self.limit_pos is not None:
            if self.limit_neg * self.limit_pos == 0.0:
                return True
        return self.exp_bound is not None and self.linear_bound is not None


class Activation(abc.ABC):
    """Abstract base class; subclasses are immutable and stateless.

    A call ``sigma(t, out=None, scratch=None)`` writes its result into
    ``out`` when given, and may overwrite ``scratch``, an array of t's
    shape, with temporaries; the result is the same bit for bit. ``out``
    may be t itself.
    """

    name: str = "abstract"
    # Bias offset of the constructions: its activation value is nonzero and
    # lies inside the injectivity interval.
    construction_bias = 1.0
    # Open interval on which the function is injective.
    bijective_interval: tuple[float, float] = (-INF, INF)
    # Whether derivative(None, F) gives sigma'(t) from F = sigma(t) alone,
    # the bits derivative(t) gives, so that t need not be at hand.
    derivative_from_F = False

    @abc.abstractmethod
    def __call__(self, t, out=None, scratch=None):
        """sigma(t), elementwise."""

    @abc.abstractmethod
    def derivative(self, t, F=None, out=None):
        """sigma'(t), written into ``out`` when given. ``F = self(t)``, when
        already computed (the forward trace stores it), may stand in for a
        second evaluation; the result is the same bit for bit. Where
        ``derivative_from_F`` holds, t may be None when F is given."""

    def inverse(self, y):
        raise RangeError(f"{self.name} has no inverse")

    @property
    def comfortable_range(self) -> tuple[float, float]:
        """Sub-interval of the image on which the inverse is
        well-conditioned; the zero-loss construction draws targets here."""
        raise RangeError(f"{self!r} has no range of values to invert")

    @abc.abstractmethod
    def profile(self) -> ActivationProfile:
        """The growth and shape summary of the function."""

    def to_dict(self) -> dict:
        return {"kind": self.name}

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return type(self) is type(other) and self.to_dict() == other.to_dict()

    def __hash__(self):
        return hash(tuple(sorted(self.to_dict().items())))


class Sigmoid(Activation):
    name = "sigmoid"
    construction_bias = 0.0  # sigmoid(0) = 1/2
    comfortable_range = (0.2, 0.8)
    derivative_from_F = True  # F (1 - F)

    def __call__(self, t, out=None, scratch=None):
        # 1/(1+exp(-t)) for t >= 0 and exp(t)/(1+exp(t)) below, in one pass:
        # exp only sees -|t| <= 0, so nothing overflows and the negative
        # tail keeps its relative accuracy down to the subnormals.
        # The numerator max(e, t >= 0) is 1 where t >= 0, because e <= 1
        # there, and e below; unlike a select it takes no data-dependent
        # branch. Every step writes in place, so besides the t >= 0 mask at
        # most two arrays of t's size are alive at once: e in scratch and
        # the result in out; out= keeps a 0-d input an array. forward
        # passes pieces of at most one network.CHUNK, so t, e and out stay
        # in L2 from one step to the next.
        t = np.asarray(t, dtype=np.float64)
        e = np.abs(t, out=np.empty_like(t) if scratch is None else scratch)
        np.negative(e, out=e)
        np.exp(e, out=e)
        out = np.maximum(e, t >= 0, out=np.empty_like(t) if out is None else out)
        e += 1.0
        out /= e
        return out

    def derivative(self, t, F=None, out=None):
        F = self(t) if F is None else F
        out = np.subtract(1.0, F, out=out)
        out *= F
        return out

    def inverse(self, y):
        y = np.asarray(y, dtype=np.float64)
        if np.any(y <= 0.0) or np.any(y >= 1.0):
            raise RangeError("sigmoid inverse requires values in (0, 1)")
        return np.log(y) - np.log1p(-y)

    def profile(self) -> ActivationProfile:
        return ActivationProfile(
            limit_neg=0.0,
            limit_pos=1.0,
            exp_bound=(1.0, 1.0),
            linear_bound=None,
            strictly_monotone=True,
            analytic=True,
        )


class ReLU(Activation):
    name = "relu"
    bijective_interval = (0.0, INF)
    derivative_from_F = True  # F > 0 exactly where t > 0, NaN and -0.0 included

    def __call__(self, t, out=None, scratch=None):
        return np.maximum(np.asarray(t, dtype=np.float64), 0.0, out=out)

    def derivative(self, t, F=None, out=None):
        # subgradient convention: derivative at 0 is 0
        t = np.asarray(t if F is None else F, dtype=np.float64)
        return np.greater(t, 0.0, out=np.empty_like(t) if out is None else out)

    def profile(self) -> ActivationProfile:
        return ActivationProfile(
            limit_neg=0.0,
            limit_pos=None,
            exp_bound=(1.0, 1.0),
            linear_bound=(1.0, 1.0),
            strictly_monotone=False,
            analytic=False,
        )


@dataclass(frozen=True, eq=False)
class Softplus(Activation):
    """Smooth ReLU surrogate ``(1/alpha) * log(1 + exp(alpha*t))``.

    Converges to ReLU as ``alpha`` grows; the gap is at most
    ``log(2)/alpha`` everywhere.
    """

    alpha: float = 1.0
    name = "softplus"
    comfortable_range = (0.5, 1.5)

    def __post_init__(self):
        alpha = self.alpha
        if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real) \
                or not 0 < alpha < INF:
            raise ValueError(f"softplus sharpness alpha must be a positive "
                             f"finite number, got {alpha!r}")
        object.__setattr__(self, "alpha", float(alpha))

    def __call__(self, t, out=None, scratch=None):
        t = np.asarray(t, dtype=np.float64)
        at = self._scaled(t)
        # where alpha*t overflows the value rounds to max(t, 0), which is the
        # formula's value where t is infinite too; both are read before out,
        # which may be t, is written
        over = np.isinf(at)
        rounded = np.maximum(t[over], 0.0)
        out = np.divide(np.maximum(at, 0.0) + np.log1p(np.exp(-np.abs(at))), self.alpha,
                        out=np.empty_like(t) if out is None else out)
        out[over] = rounded
        return out

    def derivative(self, t, F=None, out=None):
        # sigmoid(+-inf) is 1 or 0, the rounded value where alpha*t overflows
        return Sigmoid()(self._scaled(np.asarray(t, dtype=np.float64)), out=out)

    def _scaled(self, t: np.ndarray) -> np.ndarray:
        """alpha * t, infinite where it overflows, with no warning."""
        with np.errstate(over="ignore"):
            return self.alpha * t

    def inverse(self, y):
        y = np.asarray(y, dtype=np.float64)
        if np.any(y <= 0.0):
            raise RangeError("softplus inverse requires positive values")
        ay = self._scaled(y)
        small = ay <= 30.0
        out = np.empty_like(y)
        out[small] = np.log(np.expm1(ay[small])) / self.alpha
        out[~small] = y[~small] + np.log1p(-np.exp(-ay[~small])) / self.alpha
        return out

    def profile(self) -> ActivationProfile:
        return ActivationProfile(
            limit_neg=0.0,
            limit_pos=None,
            exp_bound=(1.0 / self.alpha, self.alpha),
            linear_bound=(1.0, math.log(2.0) / self.alpha),
            strictly_monotone=True,
            analytic=True,
        )

    def to_dict(self) -> dict:
        return {"kind": self.name, "alpha": self.alpha}

    def __repr__(self):
        return f"softplus(alpha={self.alpha:g})"


class Identity(Activation):
    """Linear pass-through; valid only on the output layer.

    Fails both growth alternatives (unbounded below, no exponential decay),
    so the rank and landscape results do not apply to hidden layers using
    it. It is still representable so that linear chains can be evaluated
    and differentiated, e.g. as gradient-check oracles.
    """

    name = "identity"

    def __call__(self, t, out=None, scratch=None):
        t = np.asarray(t, dtype=np.float64)
        if out is None:
            return t
        np.copyto(out, t)
        return out

    def derivative(self, t, F=None, out=None):
        out = np.empty_like(np.asarray(t, dtype=np.float64)) if out is None else out
        out.fill(1.0)
        return out

    def inverse(self, y):
        return np.asarray(y, dtype=np.float64)

    def profile(self) -> ActivationProfile:
        return ActivationProfile(
            limit_neg=None,
            limit_pos=None,
            exp_bound=None,
            linear_bound=(1.0, 0.0),
            strictly_monotone=True,
            analytic=True,
        )


def activation_from_dict(d: dict) -> Activation:
    """Inverse of ``Activation.to_dict``: the keys are exactly ``kind``,
    plus ``alpha`` for softplus; raises ``ValueError`` otherwise."""
    kind = d.get("kind")
    keys = {"kind", "alpha"} if kind == "softplus" else {"kind"}
    if set(d) != keys:
        raise ValueError(f"activation {kind!r} takes exactly the keys "
                         f"{sorted(keys)}, got {list(d)}")
    if kind == "sigmoid":
        return Sigmoid()
    if kind == "relu":
        return ReLU()
    if kind == "softplus":
        return Softplus(alpha=d["alpha"])
    if kind == "identity":
        return Identity()
    raise ValueError(f"unknown activation kind: {kind!r}")
