"""Checkers for the structural and data preconditions the theory needs.

Three families: distinctness of input patches across samples (with a
Gaussian perturbation helper for data that fails it), full-rankability of
lifted convolution matrices (Monte-Carlo over Gaussian filters), and the
architecture conditions for landscape-level results (output layer last,
no pooling, a wide layer, strict monotonicity above it, pyramidal widths).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis
from .errors import AssumptionError, StructuralError, WidthError
from .layout import PatchLayout
from .network import Conv, FullyConnected, NetworkSpec, Output, _weighted


@dataclass(frozen=True)
class DistinctPatchesReport:
    """Outcome of the cross-sample patch distinctness check."""

    holds: bool
    witness: tuple[int, int, int, int] | None  # (i, j, p, q) of first violation
    min_gap: float  # smallest max-norm distance seen between cross-sample patches


# Float64 values in one (b, l, P, P) difference tile of the distinctness
# search: 512 KiB. A single sample pair larger than this is one tile.
DISTINCT_TILE = 1 << 16


def check_distinct_patches(X: np.ndarray, layout: PatchLayout) -> DistinctPatchesReport:
    """Check that no patch of one sample exactly equals any patch of a
    different sample.

    Exact pairwise comparison, still O(N^2 P^2 l) arithmetic; intended for
    desk-scale data. Sample i is compared with a block of later samples at
    once, in one (b, l, P, P) array of at most ``DISTINCT_TILE`` values, so
    memory is bounded by the tile and not by N. The report is the one a
    pair-by-pair scan gives: the witness is the first pair (i, j) with
    equal patches, then the first (p, q) in row-major order, and
    ``min_gap`` is the smallest max-norm distance over the pairs scanned.
    A non-finite X raises StructuralError: a NaN would make a pair's
    smallest distance NaN and hide an equal pair of patches.
    """
    X = np.asarray(X, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise StructuralError("X contains non-finite values")
    # taps-major (N, l, P): the max over taps reduces whole (P, P) planes
    PT = np.ascontiguousarray(layout.extract(X).transpose(0, 2, 1))
    n, l, P = PT.shape
    block = max(1, DISTINCT_TILE // (l * P * P))
    min_gap = np.inf
    for i in range(n - 1):
        patches_i = PT[i][None, :, :, None]
        for start in range(i + 1, n, block):
            diff = patches_i - PT[start : start + block, :, None, :]
            np.abs(diff, out=diff)
            dist = diff.max(axis=1)  # (b, P, P): dist[h, p, q] for j = start + h
            gaps = dist.reshape(len(dist), -1).min(axis=1)
            hits = np.flatnonzero(gaps == 0.0)
            if hits.size:
                h = int(hits[0])
                p, q = np.unravel_index(int(dist[h].argmin()), dist[h].shape)
                return DistinctPatchesReport(False, (i, start + h, int(p), int(q)), 0.0)
            min_gap = min(min_gap, float(gaps.min()))
    return DistinctPatchesReport(True, None, min_gap)


def perturb_dataset(X: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """Add i.i.d. Gaussian noise of mean 0 and finite **variance** ``sigma``.

    Deterministic given ``seed``; ``sigma=0`` returns X unchanged. The
    perturbations for which patch distinctness still fails form a null set.
    """
    if sigma < 0:
        raise StructuralError("noise variance must be nonnegative")
    if not np.isfinite(sigma):
        raise StructuralError(f"noise variance must be finite, got {sigma}")
    X = np.asarray(X, dtype=np.float64)
    if sigma == 0.0:
        return X.copy()
    rng = np.random.default_rng(seed)
    return X + rng.normal(0.0, np.sqrt(sigma), size=X.shape)


@dataclass(frozen=True)
class ConvStructureReport:
    """Monte-Carlo evidence that a layer's lifting map can reach full rank."""

    holds: bool
    full_rank_fraction: float


def check_conv_structure(
    spec: NetworkSpec, k: int, trials: int = 32, seed: int = 0
) -> ConvStructureReport:
    """Sample standard-Gaussian filter matrices for layer ``k``, lift each,
    and report the fraction whose lifted matrix has full rank.

    ``holds`` is true iff at least one sample reaches rank
    ``min(n_{k-1}, n_k)``. For layouts that cover the layer without
    duplicate patches this fraction is 1.0 up to measure-zero accidents.
    """
    if trials < 1:
        raise StructuralError("at least one trial required")
    _weighted(spec, k)
    rng = np.random.default_rng(seed)
    hits = sum(analysis._lifted_full_rank(spec, k, rng.standard_normal(spec.filter_shape(k)))
               for _ in range(trials))
    return ConvStructureReport(hits > 0, hits / trials)


def hidden_layer_indices(spec: NetworkSpec) -> list[int]:
    """Indices of non-pooling layers that apply a nonlinearity."""
    return [
        k
        for k in range(1, spec.depth + 1)
        if isinstance(spec.layer(k), (Conv, FullyConnected))
    ]


def ensure_hidden_activations(spec: NetworkSpec, up_to: int | None = None) -> None:
    """Require every hidden activation up to ``up_to`` to satisfy one of the
    two growth alternatives (finite tails with zero product, or the
    exponential/linear bound pair). Identity fails both and is rejected."""
    up_to = spec.depth if up_to is None else up_to
    for k in hidden_layer_indices(spec):
        if k > up_to:
            break
        profile = spec.activation(k).profile()
        if not profile.admissible_for_hidden_layer():
            raise AssumptionError(
                f"activation {spec.activation(k)!r} at hidden layer {k} "
                "meets neither growth alternative"
            )


def ensure_wide_pyramid_assumptions(
    spec: NetworkSpec, wide_layer: int, n_samples: int
) -> None:
    """Validate the architecture conditions for landscape-level results.

    Requires: fully connected Output last; no pooling anywhere; width of
    the wide layer at least ``n_samples``; admissible hidden activations;
    strictly monotone activations strictly above the wide layer; and
    nonincreasing widths from the layer after the wide one to the output.
    """
    if not isinstance(spec.layers[-1], Output):
        raise AssumptionError("last layer must be a fully connected Output")
    if spec.has_pooling():
        raise AssumptionError("landscape results exclude max-pooling layers")
    L = spec.depth
    if not 1 <= wide_layer <= L - 1:
        raise StructuralError(f"wide layer {wide_layer} outside [1, {L - 1}]")
    widths = spec.widths
    if widths[wide_layer] < n_samples:
        raise WidthError(
            f"layer {wide_layer} has width {widths[wide_layer]} < N={n_samples}"
        )
    ensure_hidden_activations(spec)
    for l in range(wide_layer + 1, L):
        if not spec.activation(l).profile().strictly_monotone:
            raise AssumptionError(
                f"activation at layer {l} must be strictly monotone "
                "(layers above the wide layer)"
            )
    tail = widths[wide_layer + 1 :]
    if any(tail[i] < tail[i + 1] for i in range(len(tail) - 1)):
        raise AssumptionError(
            f"widths must be nonincreasing above layer {wide_layer}; got {tail}"
        )
