"""Squared loss and exact matrix-form backpropagation.

The backward recursion follows the standard matrix form: the output
residual seeds ``D_L = F_L - Y`` and each step applies
``D_l = (D_{l+1} @ U_{l+1}^T) * sigma_l'(G_l)``. Every weighted layer is
a convolution, so the step is one GEMM of the (N*P, T) rows of
``D_{l+1}`` with ``W^T`` and then the layout's patch scatter, without the
dense ``U`` that ``lift_weights`` builds for rank and SVD work.
``sigma_l'`` comes from the stored features where that is exact (a
sigmoid's ``F_l (1 - F_l)``, ReLU's ``F_l > 0``); only an activation
whose derivative needs t (softplus) reads ``trace.G[l]``, which the
trace recomputes from F_{l-1} on first read. The filter gradient is the
chain rule through the lifting map: the sum over patches p of
``patch_p(F_{l-1})^T @ D_l[:, p]``, one stacked GEMM of the layer's
gathered patches with the deltas, summed in patch order as
``lift_adjoint`` sums the blocks of ``F_{l-1}^T @ D_l``, which is never
formed. Bias gradients are the column sums of ``D_l``. ``backward``
reads each layer's plan entry once, in one walk from the output down.
Every filter and bias gradient is written into one flat vector, each
layer's weights then its bias, layer by layer. The products, the flat
vector, the gathered patches (as ``network._gather`` sizes them) and
sigma' go to the calling thread's buffers, which ``forward`` also
recycles. Overflow gives non-finite values, not warnings; the trainer
turns them into ``TrainingDivergedError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import Activation
from .errors import StructuralError, UnsupportedLayerError
from .network import (
    ForwardTrace,
    NetworkSpec,
    Params,
    _WORKSPACE,
    _gather,
    _param_views,
    _require_output_last,
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


def _sigma_prime(trace: ForwardTrace, sigma: Activation, k: int) -> np.ndarray:
    """sigma'(G_k) of layer k of the trace, whose activation is ``sigma``,
    in the thread's scratch. Where ``sigma.derivative_from_F`` holds it
    reads F_k alone, so ``trace.G[k]`` is recomputed only for an
    activation whose derivative needs t (softplus). G_k is read before the
    scratch is taken, because its recompute gathers into the scratch."""
    t = None if sigma.derivative_from_F else trace.G[k]
    F = trace.F[k]
    return sigma.derivative(t, F, out=_WORKSPACE.take("scratch", F.shape))


@dataclass(frozen=True, eq=False)
class GradientSet:
    """Per-layer gradients, indexed by layer (None below the differentiated
    segment and at pooling).

    ``grad_W[l]`` is with respect to the filter matrix, ``grad_b[l]`` with
    respect to the bias, and ``deltas[l]`` is the sensitivity matrix D_l
    of the backward recursion. ``flat`` is the whole gradient as one
    vector, each differentiated layer's ``grad_W`` then its ``grad_b``,
    layer by layer; ``backward`` writes every ``grad_W[l]`` and
    ``grad_b[l]`` as a view of it. A set built from separate arrays has
    none.
    """

    grad_W: tuple[np.ndarray | None, ...]
    grad_b: tuple[np.ndarray | None, ...]
    deltas: tuple[np.ndarray | None, ...]
    flat: np.ndarray | None = None


def backward(
    spec: NetworkSpec,
    params: Params,
    trace: ForwardTrace,
    Y: np.ndarray,
    start_layer: int = 1,
) -> GradientSet:
    """Exact gradients of the squared loss for layers ``start_layer..L``,
    in one walk from layer L down to ``start_layer``: each layer's filter
    and bias gradients from its delta, then the delta of the layer below.

    The trace must come from ``forward`` on the same (spec, params). Every
    layer in the differentiated segment must have weights, not pool;
    ReLU uses the subgradient convention derivative(0) = 0.
    The arrays of the result are views of buffers of the calling thread's;
    a later call on the thread recycles a buffer only once nothing
    references the set or any view of its arrays.
    """
    _require_output_last(spec)
    L = spec.depth
    if not 1 <= start_layer <= L:
        raise StructuralError(f"start layer {start_layer} outside [1, {L}]")
    if trace.last_layer != L:
        raise StructuralError("trace does not cover the full network")
    if spec.has_pooling(start_layer):
        raise UnsupportedLayerError(
            "backpropagation through max-pooling is not supported"
        )
    Y = np.asarray(Y, dtype=np.float64)
    if trace.output.shape != Y.shape:
        raise StructuralError(f"output {trace.output.shape} vs targets {Y.shape}")

    N, plan, take = Y.shape[0], spec.plan, _WORKSPACE.take
    count = plan[L].stop - plan[start_layer].offset
    flat = take("grad", (count,))
    grad_W, grad_b = _param_views(spec, flat, start_layer)
    deltas: list[np.ndarray | None] = [None] * (L + 1)
    # a diverging run overflows here; the trainer reports it as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        # the output layer is linear
        delta = np.subtract(trace.output, Y, out=take(("delta", L), Y.shape))
        for l in range(L, start_layer - 1, -1):
            deltas[l] = delta
            layout, (size, T) = plan[l].layout, plan[l].filter_shape
            P = layout.patch_count
            patches = layout.extract(trace.F[l - 1], out=_gather(layout, N))
            # (P, l, N) @ (P, N, T): each patch's (l, T) block, summed in patch order
            np.sum(np.matmul(patches.transpose(1, 2, 0),
                             delta.reshape(N, P, T).transpose(1, 0, 2)),
                   axis=0, out=grad_W[l])
            del patches  # held, it would keep sigma' below from recycling the scratch
            np.sum(delta, axis=0, out=grad_b[l])
            if l == start_layer:
                break
            # one 2-D GEMM: a dense layer's is D_l @ W^T itself
            product = np.matmul(delta.reshape(N * P, T), params.weights[l].T,
                                out=take(("delta", l - 1), (N * P, size)))
            delta = layout.scatter_add(product.reshape(N, P, size))
            delta *= _sigma_prime(trace, plan[l - 1].activation, l - 1)
    return GradientSet(tuple(grad_W), tuple(grad_b), tuple(deltas), flat)
