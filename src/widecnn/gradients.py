"""Squared loss and exact matrix-form backpropagation.

The backward recursion follows the standard matrix form: the output
residual seeds ``D_L = F_L - Y`` and each step applies
``D_l = (D_{l+1} @ U_{l+1}^T) * sigma_l'(G_l)``. A dense layer multiplies
by ``W^T``; a convolution multiplies each patch's block by ``W^T`` and
adds it back through the patch scatter, which equals ``D_{l+1} U_{l+1}^T``
without the dense ``U`` that ``lift_weights`` builds for rank and SVD work.
A sigmoid layer takes ``sigma'(G_l)`` from its stored features as
``F_l (1 - F_l)`` instead of evaluating the sigmoid again. The full-matrix
gradient is ``grad_U_l = F_{l-1}^T @ D_l``; filter-space gradients follow
by the adjoint of the lifting map, and bias gradients are the column sums
of ``D_l``. Every filter and bias gradient is written into one flat
vector, each layer's weights then its bias, layer by layer. A dense layer
is its own lifted matrix, so its product is written there directly and
``grad_U_l`` is ``grad_W_l``. Given a ``Workspace``, every delta, lifted
gradient and the flat vector are its buffers, and sigma' goes to its
scratch. Overflow in the loss or the recursion gives non-finite values,
not warnings; the trainer turns them into ``TrainingDivergedError``. A
central finite-difference oracle over the true parameters is provided for
verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError, UnsupportedLayerError
from .network import (
    Conv,
    ForwardTrace,
    NetworkSpec,
    Output,
    Params,
    Workspace,
    _param_count,
    _param_views,
    _take,
    forward,
    lift_adjoint,
)


def loss(trace: ForwardTrace, Y: np.ndarray) -> float:
    """Half squared Frobenius distance between the network output and Y."""
    Y = np.asarray(Y, dtype=np.float64)
    out = trace.output
    if out.shape != Y.shape:
        raise StructuralError(f"output {out.shape} vs targets {Y.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = out - Y
        return 0.5 * float(np.sum(diff * diff))


@dataclass(frozen=True)
class GradientSet:
    """Per-layer gradients, indexed by layer (None below the differentiated
    segment and at pooling).

    ``grad_U[l]`` is with respect to the lifted full matrix, ``grad_W[l]``
    with respect to the true filter matrix (adjoint pull-back of grad_U),
    ``grad_b[l]`` with respect to the bias, and ``deltas[l]`` is the
    sensitivity matrix D_l of the backward recursion.
    """

    grad_U: tuple[np.ndarray | None, ...]
    grad_W: tuple[np.ndarray | None, ...]
    grad_b: tuple[np.ndarray | None, ...]
    deltas: tuple[np.ndarray | None, ...]

    @property
    def flat(self) -> np.ndarray | None:
        """The whole gradient as one vector, each differentiated layer's
        ``grad_W`` then its ``grad_b``, layer by layer. ``backward`` writes
        every ``grad_W[l]`` and ``grad_b[l]`` as a view of this vector, which
        starts its buffer; a set built from separate arrays has none."""
        parts = [a for pair in zip(self.grad_W, self.grad_b) for a in pair
                 if a is not None]
        base = parts[0].base
        return None if base is None else base[:sum(a.size for a in parts)]


def backward(
    spec: NetworkSpec,
    params: Params,
    trace: ForwardTrace,
    Y: np.ndarray,
    start_layer: int = 1,
    *,
    workspace: Workspace | None = None,
) -> GradientSet:
    """Exact gradients of the squared loss for layers ``start_layer..L``.

    The trace must come from ``forward`` on the same (spec, params). Every
    layer in the differentiated segment must be convolutional or fully
    connected; ReLU uses the subgradient convention derivative(0) = 0.
    With a ``workspace`` the arrays of the result are its buffers, which
    the next call with that workspace overwrites; they hold the same bits.
    """
    if not isinstance(spec.layers[-1], Output):
        raise StructuralError("loss-level operations require an Output last layer")
    L = spec.depth
    if not 1 <= start_layer <= L:
        raise StructuralError(f"start layer {start_layer} outside [1, {L}]")
    if trace.last_layer != L:
        raise StructuralError("trace does not cover the full network")
    if spec.has_pooling(start_layer, L):
        raise UnsupportedLayerError(
            "backpropagation through max-pooling is not supported"
        )
    Y = np.asarray(Y, dtype=np.float64)
    if trace.output.shape != Y.shape:
        raise StructuralError(f"output {trace.output.shape} vs targets {Y.shape}")

    N, widths = Y.shape[0], spec.widths
    count = _param_count(spec, start_layer)
    grad_U: list[np.ndarray | None] = [None] * (L + 1)
    # a diverging run overflows here; the trainer reports it as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        # the output layer is linear
        delta = np.subtract(trace.output, Y, out=_take(workspace, ("delta", L), Y.shape))
        deltas: dict[int, np.ndarray] = {L: delta}
        for l in range(L - 1, start_layer - 1, -1):
            above, W = spec.layer(l + 1), params.weights[l + 1]
            if isinstance(above, Conv):
                P, T = above.layout.patch_count, above.filters
                delta = above.layout.scatter_add(delta.reshape(-1, P, T) @ W.T)
            else:
                delta = np.matmul(delta, W.T,
                                  out=_take(workspace, ("delta", l), (N, widths[l])))
            delta *= spec.activation(l).derivative_at(
                trace.G[l], trace.F[l], out=_take(workspace, "scratch", delta.shape))
            deltas[l] = delta

        grad_W, grad_b = _param_views(
            spec, np.empty(count) if workspace is None else workspace.take("grad", (count,)),
            start_layer)
        for l in range(start_layer, L + 1):
            if isinstance(spec.layer(l), Conv):
                grad_U[l] = np.matmul(trace.F[l - 1].T, deltas[l],
                                      out=_take(workspace, ("grad_U", l),
                                                (widths[l - 1], widths[l])))
                grad_W[l][...] = lift_adjoint(spec, l, grad_U[l])
            else:  # the lifted matrix is W itself
                grad_U[l] = np.matmul(trace.F[l - 1].T, deltas[l], out=grad_W[l])
            np.sum(deltas[l], axis=0, out=grad_b[l])
    return GradientSet(tuple(grad_U), tuple(grad_W), tuple(grad_b),
                       tuple(deltas.get(l) for l in range(L + 1)))


# Step of the central differences in ``finite_difference_gradient``.
FD_STEP = 1e-6


def finite_difference_gradient(
    spec: NetworkSpec,
    params: Params,
    X: np.ndarray,
    Y: np.ndarray,
    start_layer: int = 1,
) -> GradientSet:
    """Central-difference gradient, with step ``FD_STEP``, over every filter
    and bias coordinate.

    Independent of ``backward``: evaluates the loss through the forward
    pass only. ``grad_U`` and ``deltas`` entries are left as None since the
    lifted matrix is not a free parameter and no recursion runs.
    """
    L = spec.depth

    def phi(p: Params) -> float:
        return loss(forward(spec, p, X), Y)

    none_row: list[np.ndarray | None] = [None] * (L + 1)
    grad_W, grad_b = list(none_row), list(none_row)
    for l in range(start_layer, L + 1):
        if spec.is_pooling(l):
            continue
        W = params.weights[l]
        b = params.biases[l]
        gW = np.zeros_like(W)
        for r in range(W.shape[0]):
            for c in range(W.shape[1]):
                Wp, Wm = W.copy(), W.copy()
                Wp[r, c] += FD_STEP
                Wm[r, c] -= FD_STEP
                gW[r, c] = (
                    phi(params.with_layer(l, Wp, b)) - phi(params.with_layer(l, Wm, b))
                ) / (2.0 * FD_STEP)
        gb = np.zeros_like(b)
        for r in range(b.shape[0]):
            bp, bm = b.copy(), b.copy()
            bp[r] += FD_STEP
            bm[r] -= FD_STEP
            gb[r] = (
                phi(params.with_layer(l, W, bp)) - phi(params.with_layer(l, W, bm))
            ) / (2.0 * FD_STEP)
        grad_W[l] = gW
        grad_b[l] = gb
    return GradientSet(tuple(none_row), tuple(grad_W), tuple(grad_b), tuple(none_row))


def max_relative_gradient_error(exact: GradientSet, approx: GradientSet) -> float:
    """Largest relative disagreement across all shared W/b coordinates.

    Uses ``|a-b| / max(1, |a|, |b|)`` so that near-zero coordinates are
    compared absolutely.
    """
    worst = 0.0
    for field in ("grad_W", "grad_b"):
        for a, b in zip(getattr(exact, field), getattr(approx, field)):
            if a is None or b is None:
                continue
            scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
            worst = max(worst, float((np.abs(a - b) / scale).max()))
    return worst
