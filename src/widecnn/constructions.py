"""Constructive weight synthesis.

Four builders, each turning an existence proof into an algorithm:

* ``transport_construction`` keeps every feature entry of distinct
  samples pairwise distinct layer by layer, by sampling filter directions
  outside the measure-zero collision set and scaling pre-activations into
  an injectivity interval of the activation.
* ``independence_construction``: at a layer whose width reaches the
  sample count, picks filters, a selection permutation, and per-unit
  biases so that the feature matrix has full row rank N: as the scale
  grows, an N x N submatrix tends to a triangular matrix with nonzero
  diagonal. The scale is swept over a finite schedule and accepted once
  the submatrix's smallest singular value clears a floor.
* ``expressivity_fit``: exact interpolation of arbitrary scalar targets
  through the Gram system of the last hidden layer's features.
* ``zero_loss_construction``: exact global minimizers of the squared
  loss for class-structured targets, by collapsing classes right after
  the wide layer and solving the remaining layers in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import Activation, Identity, Sigmoid, Softplus
from .analysis import _lifted_full_rank, estimate_rank, s_k_membership
from .assumptions import (
    check_distinct_patches,
    ensure_hidden_activations,
    ensure_wide_pyramid_assumptions,
)
from .errors import (
    AssumptionError,
    ConstructionFailedError,
    IllConditionedError,
    RangeError,
    StructuralError,
    WidthError,
)
from .gradients import loss
from .network import (
    Dataset,
    FullyConnected,
    MaxPool,
    NetworkSpec,
    Output,
    Params,
    forward,
    max_pool,
    patch_products,
)

# Scales tried at the wide layer, in increasing order.
ALPHA_SCHEDULE = tuple(2.0**i for i in range(21))
# Acceptance floor on the smallest singular value of the certified N x N
# submatrix at the wide layer.
SIGMA_MIN_FLOOR = 1e-10
# Smallest cross-sample feature gap a transport step must certify.
GAP_FLOOR = 1e-9
# Relative tolerance below which inner products count as colliding.
COLLISION_RTOL = 1e-12
# Filter (or target matrix) samples drawn before a builder gives up.
RESAMPLE_BUDGET = 16


@dataclass(frozen=True)
class ConstructionParams:
    """Seed of a constructive builder's random draws: filter directions,
    and the target matrices of the zero-loss construction."""

    seed: int = 0


def default_beta(activation: Activation) -> float:
    """Bias offset with a nonzero activation value, inside an injectivity
    interval: 0 for sigmoid (image 1/2), 1 for the others."""
    if isinstance(activation, Sigmoid):
        return 0.0
    return 1.0


def comfortable_range(activation: Activation) -> tuple[float, float]:
    """Sub-interval of the activation's image on which its inverse is
    well-conditioned; synthesis targets are drawn from here."""
    if isinstance(activation, Sigmoid):
        return (0.2, 0.8)
    if isinstance(activation, Softplus):
        return (0.5, 1.5)
    if isinstance(activation, Identity):
        return (-1.0, 1.0)
    raise RangeError(f"{activation!r} has no range of values to invert")


def _min_cross_sample_gap(F: np.ndarray) -> float:
    """Smallest |F[i, h] - F[j, v]| over pairs of rows i != j.

    Sort-based: the minimum over cross-row pairs is attained at some
    adjacent pair of the global sort whose row ids differ.
    """
    n_rows, n_cols = F.shape
    if n_rows < 2:
        return np.inf
    values = F.ravel()
    ids = np.repeat(np.arange(n_rows), n_cols)
    order = np.argsort(values, kind="stable")
    vs, rs = values[order], ids[order]
    diffs = np.diff(vs)
    mask = rs[1:] != rs[:-1]
    if not mask.any():
        return np.inf
    return float(diffs[mask].min())


def _sample_filters(rng: np.random.Generator, size: tuple[int, int]) -> np.ndarray:
    Q = rng.standard_normal(size)
    return Q / np.linalg.norm(Q, axis=0, keepdims=True)


def _collisions_across_samples(ip: np.ndarray) -> bool:
    """True if any two inner products of *different* samples (any patch or
    filter pairing) nearly coincide."""
    scale = max(1.0, float(np.abs(ip).max()))
    flat = ip.reshape(ip.shape[0], -1)
    return _min_cross_sample_gap(flat) <= COLLISION_RTOL * scale


def _collisions_within_columns(ip: np.ndarray) -> bool:
    """True if, for some (patch, filter), two samples' inner products nearly
    coincide; this is the collision set of the wide-layer construction."""
    scale = max(1.0, float(np.abs(ip).max()))
    cols = np.sort(ip.reshape(ip.shape[0], -1), axis=0)
    if cols.shape[0] < 2:
        return False
    return float(np.diff(cols, axis=0).min()) <= COLLISION_RTOL * scale


def _conv_or_fc(spec: NetworkSpec, k: int) -> None:
    if spec.is_pooling(k):
        raise StructuralError(f"layer {k} must be convolutional or fully connected")


def _ensure_distinct_input_patches(spec: NetworkSpec, X: np.ndarray) -> None:
    report = check_distinct_patches(X, spec.input_layout)
    if not report.holds:
        raise AssumptionError(
            f"input patches collide across samples at {report.witness}",
            witness=report.witness,
        )


TRANSPORT_SHRINK_STEPS = 80


def transport_construction(
    spec: NetworkSpec,
    X: np.ndarray,
    up_to_layer: int,
    cfg: ConstructionParams = ConstructionParams(),
) -> Params:
    """Parameters for layers 1..k making every feature entry of one sample
    differ from every entry of any other sample, at every layer up to k.

    Requires distinct input patches across samples. Max-pooling layers
    pass the property through unchanged (the maxima of elementwise
    distinct patches differ); all constructed lifted matrices have full
    rank. Raises ConstructionFailedError if the filter resample budget or
    the scale-shrink schedule is exhausted.
    """
    rng = np.random.default_rng(cfg.seed)
    params, _ = _transport_impl(spec, np.asarray(X, dtype=np.float64),
                                up_to_layer, rng)
    return params


def _transport_impl(spec, X, up_to_layer, rng):
    if not 1 <= up_to_layer <= spec.depth:
        raise StructuralError(f"target layer {up_to_layer} outside [1, {spec.depth}]")
    _conv_or_fc(spec, 1)
    _ensure_distinct_input_patches(spec, X)
    params = Params.empty(spec)
    F_prev = X
    for k in range(1, up_to_layer + 1):
        layer = spec.layer(k)
        if isinstance(layer, MaxPool):
            F_prev = max_pool(layer.layout, F_prev)
            continue
        W, b, F_prev = _transport_layer(spec, k, F_prev, rng)
        params = params.with_layer(k, W, b)
    return params, F_prev


def _transport_layer(spec, k, F_prev, rng):
    layout = spec.layer_layout(k)
    sigma = spec.activation(k)
    beta = default_beta(sigma)
    lo, hi = sigma.bijective_interval
    for _ in range(RESAMPLE_BUDGET):
        Q = _sample_filters(rng, spec.filter_shape(k))
        ip = patch_products(layout, F_prev, Q)
        if _collisions_across_samples(ip):
            continue
        if not _lifted_full_rank(spec, k, Q):
            continue
        alpha = 1.0
        for _ in range(TRANSPORT_SHRINK_STEPS):
            G = alpha * ip.reshape(ip.shape[0], -1) + beta
            if float(G.min()) > lo and float(G.max()) < hi:
                F = np.asarray(sigma(G))
                if _min_cross_sample_gap(F) > GAP_FLOOR:
                    return alpha * Q, np.full(spec.widths[k], beta), F
            alpha *= 0.5
    raise ConstructionFailedError(
        f"layer {k}: no filter sample produced distinct features "
        f"within {RESAMPLE_BUDGET} resamples"
    )


def build_selection_permutation(ip: np.ndarray, n: int) -> np.ndarray:
    """Greedy sample ordering for the wide-layer construction.

    ``ip`` is the (N, P, T) inner-product array; flattening the last two
    axes puts unit j = p*T + t at column j. Position j of the result is
    the yet-unused sample whose inner product at unit j's (patch, filter)
    is smallest. With collision-free inner products this is a permutation
    of range(N).
    """
    N = ip.shape[0]
    if n > ip.shape[1] * ip.shape[2]:
        raise StructuralError("wide layer narrower than the sample count")
    flat = ip.reshape(N, -1)
    used = np.zeros(N, dtype=bool)
    gamma = np.empty(n, dtype=np.intp)
    for j in range(n):
        col = flat[:, j].copy()
        col[used] = np.inf
        pick = int(np.argmin(col))
        gamma[j] = pick
        used[pick] = True
    assert len(set(gamma.tolist())) == n, "selection ordering is not injective"
    return gamma


@dataclass(frozen=True)
class WideLayerReport:
    """Outcome of an independence construction: the parameters, the sample
    ordering used at the wide layer, the accepted scale, and the smallest
    singular value of the certified N x N submatrix."""

    params: Params
    permutation: tuple[int, ...]
    alpha: float
    submatrix_sigma_min: float


def independence_construction(
    spec: NetworkSpec,
    X: np.ndarray,
    wide_layer: int,
    cfg: ConstructionParams = ConstructionParams(),
) -> Params:
    """Parameters for layers 1..k such that the N feature vectors at layer
    k are linearly independent (rank N) and all lifted matrices have full
    rank. The wide layer must be convolutional or fully connected with
    width at least N; pooling is allowed strictly below it."""
    return independence_construction_report(spec, X, wide_layer, cfg).params


def independence_construction_report(
    spec: NetworkSpec,
    X: np.ndarray,
    wide_layer: int,
    cfg: ConstructionParams = ConstructionParams(),
) -> WideLayerReport:
    """As ``independence_construction`` but returning diagnostics."""
    rng = np.random.default_rng(cfg.seed)
    return _independence_impl(spec, np.asarray(X, dtype=np.float64),
                              wide_layer, rng)


def _independence_impl(spec, X, wide_layer, rng):
    N = X.shape[0]
    k = wide_layer
    _conv_or_fc(spec, 1)
    _conv_or_fc(spec, k)
    if spec.widths[k] < N:
        raise WidthError(
            f"layer {k} has width {spec.widths[k]} < N={N}; cannot reach rank N"
        )
    ensure_hidden_activations(spec, up_to=k)

    if k > 1:
        params, F_prev = _transport_impl(spec, X, k - 1, rng)
    else:
        _ensure_distinct_input_patches(spec, X)
        params, F_prev = Params.empty(spec), X

    layout = spec.layer_layout(k)
    sigma = spec.activation(k)
    beta = default_beta(sigma)

    for _ in range(RESAMPLE_BUDGET):
        Q = _sample_filters(rng, spec.filter_shape(k))
        ip = patch_products(layout, F_prev, Q)
        if _collisions_within_columns(ip):
            continue
        if not _lifted_full_rank(spec, k, Q):
            continue
        gamma = build_selection_permutation(ip, N)
        flat_ip = ip.reshape(N, -1)
        bias = np.full(spec.widths[k], beta)
        # Sweep the whole schedule; prefer the smallest scale whose
        # certified N x N submatrix conditioning is within a factor 2 of
        # the best seen. Conditioning protects the Gram solves built on
        # these features; a small scale keeps the weight norms (and hence
        # downstream gradient amplification) modest. Only the N x N
        # submatrix F_k[gamma][:, :N] is formed for the score, entry by
        # entry by the same operations; the whole F_k is formed for the
        # candidates that reach the rank check.
        candidates = []
        for alpha in ALPHA_SCHEDULE:
            b = bias.copy()
            b[:N] = alpha * flat_ip[gamma, np.arange(N)] + beta
            sub = np.asarray(sigma(-alpha * flat_ip[gamma, :N] + b[:N]))
            s_min = float(np.linalg.svd(sub, compute_uv=False)[-1])
            if s_min >= SIGMA_MIN_FLOOR:
                candidates.append((s_min, alpha, b))
        if candidates:
            cutoff = 0.5 * max(c[0] for c in candidates)
            viable = [c for c in candidates if c[0] >= cutoff]
            for s_min, alpha, b in sorted(viable, key=lambda c: c[1]):
                F_k = np.asarray(sigma(-alpha * flat_ip + b))
                if estimate_rank(F_k).estimated_rank != N:
                    continue
                final = params.with_layer(k, -alpha * Q, b)
                return WideLayerReport(
                    final, tuple(int(g) for g in gamma), alpha, s_min
                )
    raise ConstructionFailedError(
        f"wide layer {k}: the scale schedule never certified a nonsingular "
        f"{N} x {N} submatrix within {RESAMPLE_BUDGET} resamples"
    )


def _solve_gram(F: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Minimum-norm interpolation weights ``F^T (F F^T)^{-1} targets``,
    via a Gram solve rather than an explicit inverse.

    Two steps of iterative refinement push ``F @ W - targets`` toward
    rounding level even when the Gram matrix is poorly conditioned; the
    zero-loss constructions rely on that headroom.
    """
    gram = F @ F.T
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[-1] < 1e-12 * sv[0]:
        raise IllConditionedError(
            "feature Gram system is numerically singular "
            f"(sigma_min/sigma_max = {sv[-1] / sv[0]:.2e}); rerun the "
            "construction with another seed"
        )
    z = np.linalg.solve(gram, targets)
    for _ in range(2):
        z += np.linalg.solve(gram, targets - gram @ z)
    return F.T @ z


def expressivity_fit(
    spec: NetworkSpec,
    X: np.ndarray,
    y: np.ndarray,
    cfg: ConstructionParams = ConstructionParams(),
) -> tuple[Params, np.ndarray]:
    """Exact scalar interpolation: hidden parameters from the independence
    construction at the last hidden layer, and output weights solving the
    feature Gram system. Returns (hidden-layer Params, lambda)."""
    if not isinstance(spec.layers[-1], Output) or spec.widths[-1] != 1:
        raise StructuralError("expressivity fit requires a scalar Output layer")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != X.shape[0]:
        raise StructuralError("one target per sample required")
    L = spec.depth
    params = independence_construction(spec, X, L - 1, cfg)
    F = forward(spec, params, X, up_to=L - 1).F[L - 1]
    lam = _solve_gram(F, y)
    return params, lam


def expressivity_params(
    spec: NetworkSpec, hidden: Params, lam: np.ndarray
) -> Params:
    """Complete an expressivity fit into full network parameters."""
    W_L = np.asarray(lam, dtype=np.float64).reshape(-1, 1)
    return hidden.with_layer(spec.depth, W_L, np.zeros(1))


def _distinct_entry_matrix(
    rng: np.random.Generator, rows: int, cols: int, interval: tuple[float, float]
) -> np.ndarray:
    """Matrix with all entries pairwise distinct, strictly inside
    ``interval``: a jittered arithmetic progression, shuffled."""
    lo, hi = interval
    n = rows * cols
    slots = np.arange(n) + 0.25 + 0.5 * rng.uniform(size=n)
    values = lo + (hi - lo) * slots / n
    assert float(np.diff(np.sort(values)).min()) > 0.0
    return rng.permutation(values).reshape(rows, cols)


def _class_rows(template: np.ndarray, labels) -> np.ndarray:
    return template[np.asarray(labels, dtype=np.intp)]


def _full_row_rank_image(
    rng: np.random.Generator,
    sigma: Activation,
    rows: int,
    cols: int,
) -> np.ndarray:
    """Full-row-rank matrix with entries in the image of ``sigma``."""
    for _ in range(RESAMPLE_BUDGET):
        A = np.asarray(sigma(rng.standard_normal((rows, cols))))
        if estimate_rank(A).estimated_rank == rows:
            return A
    raise ConstructionFailedError("failed to sample a full-row-rank target matrix")


def zero_loss_construction(
    spec: NetworkSpec,
    dataset: Dataset,
    wide_layer: int,
    cfg: ConstructionParams = ConstructionParams(),
) -> Params:
    """Parameters of all layers with exactly zero squared loss on a
    class-structured dataset, lying in the full-rank set (rank-N features
    at the wide layer, full-rank weights above it).

    Three regimes by the distance from the wide layer k to the output L:
    k = L-1 solves the output weights directly; k = L-2 routes every class
    through a full-row-rank target matrix; k <= L-3 additionally collapses
    classes at layer k+1 and reruns the independence construction on the
    class representatives through the remaining hidden layers. Layer k+1
    must be fully connected; widths above k must be nonincreasing.
    """
    X, Y = dataset.X, dataset.Y
    N, m = Y.shape
    k, L = wide_layer, spec.depth
    if dataset.labels is None or dataset.Z is None:
        raise StructuralError("zero-loss construction needs labels and embedding Z")
    if spec.widths[L] != m:
        raise StructuralError(
            f"output width {spec.widths[L]} does not match {m} target columns"
        )
    ensure_wide_pyramid_assumptions(spec, k, N)
    if not isinstance(spec.layer(k + 1), (FullyConnected, Output)):
        raise AssumptionError(
            f"layer {k + 1} must be fully connected for the zero-loss construction"
        )

    rng = np.random.default_rng(cfg.seed)
    report = _independence_impl(spec, X, k, rng)
    params = report.params
    F_k = forward(spec, params, X, up_to=k).F[k]

    if k == L - 1:
        W_L = _solve_gram(F_k, Y)
        params = params.with_layer(L, W_L, np.zeros(m))
    elif k == L - 2:
        sigma = spec.activation(L - 1)
        A = _full_row_rank_image(rng, sigma, m, spec.widths[L - 1])
        D = _class_rows(A, dataset.labels)
        W_hidden = _solve_gram(F_k, sigma.inverse(D))
        params = params.with_layer(L - 1, W_hidden, np.zeros(spec.widths[L - 1]))
        W_L = _solve_gram(A, dataset.Z)
        params = params.with_layer(L, W_L, np.zeros(m))
    else:
        sigma = spec.activation(k + 1)
        E = _distinct_entry_matrix(rng, m, spec.widths[k + 1],
                                   comfortable_range(sigma))
        D = _class_rows(E, dataset.labels)
        W_next = _solve_gram(F_k, sigma.inverse(D))
        params = params.with_layer(k + 1, W_next, np.zeros(spec.widths[k + 1]))

        sub_spec = NetworkSpec(spec.widths[k + 1], spec.layers[k + 1 : L - 1])
        sub_cfg = ConstructionParams(seed=int(rng.integers(2**63)))
        sub_params = independence_construction(sub_spec, E, sub_spec.depth, sub_cfg)
        for j in range(1, sub_spec.depth + 1):
            params = params.with_layer(
                k + 1 + j, sub_params.weights[j], sub_params.biases[j]
            )
        A = forward(sub_spec, sub_params, E).F[sub_spec.depth]
        W_L = _solve_gram(A, dataset.Z)
        params = params.with_layer(L, W_L, np.zeros(m))

    trace = forward(spec, params, X)
    final_loss = loss(trace, Y)
    budget = 1e-16 * (1.0 + float(np.sum(Y * Y)))
    if final_loss > budget:
        raise ConstructionFailedError(
            f"constructed point has loss {final_loss:.3e} > {budget:.3e}"
        )
    membership = s_k_membership(spec, params, trace, k)
    if not membership.in_good_set:
        raise ConstructionFailedError(
            "constructed point fell outside the full-rank set"
        )
    return params
