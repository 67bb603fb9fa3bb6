"""SVD rank estimation, gradient sandwich bounds, and landscape probes.

Numerical rank counts the singular values above
``0.5 * sqrt(m + n + 1) * sigma_max * eps`` (working-precision machine
epsilon). Singular values come from one LAPACK SVD for a matrix of at
most ``RANK_TILE`` entries. A larger matrix, such as the short-fat
feature matrix of a wide layer, is read in cache-sized row blocks of its
tall orientation. Its R factor comes from CholeskyQR2, two Gram passes of
GEMMs, when a guard from that algorithm's roundoff analysis vouches for
it, which it does only for a well-conditioned matrix of full rank, and
otherwise from the blocks' Householder R factors (a sequential TSQR), so
that the SVD reads the matrix about once instead of once per Householder
reflector. A finite Gram proves the matrix finite, so only a matrix that
CholeskyQR2 does not take is scanned for non-finite entries. The
gradient bounds sandwich the Frobenius norm of the full-matrix gradient
at the layer after a wide layer between products of
extreme singular values, extreme activation derivatives, and the
residual norm; at points where the feature matrix of the wide layer and
all downstream weight matrices have full rank, zero loss and zero
gradient are therefore equivalent. Each probe of such a point decomposes
F_k and each lifted U_{k+2}..U_L once, in ``_spectra``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import NumericError, StructuralError
from .gradients import _sigma_prime, backward, loss
from .network import (Dataset, ForwardTrace, NetworkSpec, Params, _all_finite, forward,
                      lift_weights)


@dataclass(frozen=True)
class RankReport:
    """Numerical rank of one matrix together with the evidence for it."""

    rows: int
    cols: int
    estimated_rank: int
    sigma_min: float  # smallest of the min(rows, cols) singular values
    sigma_max: float
    threshold: float
    machine_eps: float

    @property
    def full_rank(self) -> bool:
        return self.estimated_rank == min(self.rows, self.cols)


# Entries above which a matrix's singular values are taken from row blocks
# of its tall orientation of about this many entries (2 MiB of float64,
# which stays in cache while BLAS or LAPACK's unblocked reflectors sweep
# it). Above the largest matrix the desk sweep, rank genericity and the
# constructions rank, 256 x 896, so their singular values are LAPACK's own
# bits.
RANK_TILE = 1 << 18


def _column_blocks(short_fat: np.ndarray, width: int, buffer: np.ndarray | None):
    """The blocks of ``width`` columns of a short-fat matrix, left to right:
    views when ``buffer`` is None, otherwise copies into ``buffer``."""
    for start in range(0, short_fat.shape[1], width):
        view = short_fat[:, start:start + width]
        if buffer is None:
            yield view
        else:
            copy = buffer[:, :view.shape[1]]
            np.copyto(copy, view)
            yield copy


def _gram_cholesky(G: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of a Gram matrix, or None when the Gram is
    not finite or not numerically positive definite."""
    if not np.isfinite(G).all():
        return None
    try:
        return np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return None


def _cholesky_qr2(short_fat: np.ndarray, width: int) -> np.ndarray | None:
    """Singular values of a short-fat n x m matrix S by CholeskyQR2 over
    its blocks of ``width`` columns (the row blocks B of the tall
    orientation Sᵀ), or None when the guard cannot vouch for them. A
    non-finite entry of S makes its diagonal entry of G₁ non-finite, so
    the guard refuses every S that is not finite.

    G₁ = Σ BᵀB = L₁L₁ᵀ. The guard: G₁ is finite and positive definite
    under Cholesky, ‖G₁‖ = σ_max(L₁)² is at least the smallest normal
    number, and κ̂ = σ_max(L₁)/σ_min(L₁) satisfies
    16·κ̂·√(u·(m·n + n(n+1))) ≤ 1 with u = eps/2. That is the sufficient
    condition 8·κ(Sᵀ)·√(u·(m·n + n(n+1))) ≤ 1 of Yamamoto, Nakatsukasa,
    Yanagisawa and Fukaya (2015, "Roundoff error analysis of the
    CholeskyQR2 algorithm", ETNA 44) with a factor 2 that covers κ̂
    reading low: the Gram's rounding, and its underflow once ‖G₁‖ is
    normal, move σ_min(L₁)² by at most about u·(m·n + n(n+1))·‖G₁‖. Then
    Q_b = B·L₁⁻ᵀ, G₂ = Σ Q_bᵀQ_b = L₂L₂ᵀ, and S's singular values are
    those of R = R₂R₁ = (L₁L₂)ᵀ. L₁⁻¹ is applied as an explicit inverse,
    one GEMM a block; its rounding bounds the error by a small multiple
    of n·u·κ̂·σ_max rather than the u·σ_max of a triangular solve. The
    Grams ignore overflow, which leaves them non-finite.
    """
    n, m = short_fat.shape
    # BLAS reads a block in place when its rows are contiguous; any other
    # layout is copied into one reused buffer, so that the arithmetic, and
    # so the bits, do not depend on the input's layout
    step = short_fat.itemsize
    buffer = (None if short_fat.strides[1] == step and short_fat.strides[0] >= step * m
              else np.empty((n, min(width, m))))
    with np.errstate(over="ignore", invalid="ignore"):
        G = np.zeros((n, n))
        for block in _column_blocks(short_fat, width, buffer):
            G += block @ block.T
    L1 = _gram_cholesky(G)
    if L1 is None:
        return None
    sv = np.linalg.svd(L1, compute_uv=False)
    u = np.finfo(np.float64).eps / 2
    if not (sv[0] >= math.sqrt(np.finfo(np.float64).tiny)
            and 16 * sv[0] * math.sqrt(u * (m * n + n * (n + 1))) <= sv[-1]):
        return None
    inverse = np.linalg.inv(L1)
    Q = np.empty((n, min(width, m)))  # Q_bᵀ, one block at a time
    with np.errstate(over="ignore", invalid="ignore"):
        G = np.zeros((n, n))
        for block in _column_blocks(short_fat, width, buffer):
            Qb = np.matmul(inverse, block, out=Q[:, :block.shape[1]])
            G += Qb @ Qb.T
    L2 = _gram_cholesky(G)
    if L2 is None:
        return None
    return np.linalg.svd(L1 @ L2, compute_uv=False)


def _singular_values(A: np.ndarray) -> np.ndarray:
    """Singular values of a non-empty finite matrix, largest first.

    A matrix of at most ``RANK_TILE`` entries goes to one
    ``np.linalg.svd``. Above the tile, if a block of ``RANK_TILE // short``
    rows of the tall orientation holds at least twice the short side, the
    values come from ``_cholesky_qr2`` over those row blocks when its guard
    vouches for them, which it does only for a finite, well-conditioned
    matrix of full rank, so that its Gram alone proves A finite. Every
    other matrix is scanned for non-finite entries with ``_all_finite``
    first. Then the blocks are replaced by their Householder R factors
    until the stack fits in one block (a sequential TSQR), and the stack's
    singular values, which are A's, are returned. A matrix too square for
    a block to halve the stack goes to the direct call. A malformed, empty
    or non-finite matrix raises StructuralError and a LAPACK failure
    NumericError.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.size == 0:
        raise StructuralError(f"expected a non-empty matrix, got shape {A.shape}")
    tall = A.T if A.shape[0] < A.shape[1] else A
    short = tall.shape[1]
    blocked = A.size > RANK_TILE and 2 * short * short <= RANK_TILE
    block = RANK_TILE // short  # at least 2 * short rows when blocked
    try:
        # a non-finite entry makes its diagonal Gram entry non-finite, so
        # a matrix that CholeskyQR2 accepts is finite; any other is scanned
        sv = _cholesky_qr2(tall.T, block) if blocked else None
        if sv is not None:
            return sv
        with np.errstate(over="ignore", invalid="ignore"):
            if not _all_finite(A):  # a sum, not an A.size boolean mask
                raise StructuralError("matrix contains non-finite entries")
        if blocked:
            while tall.shape[0] > block:
                tall = np.vstack([np.linalg.qr(tall[i:i + block], mode="r")
                                  for i in range(0, tall.shape[0], block)])
            A = tall
        return np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed to converge: {exc}") from exc


def _rank_report(shape: tuple[int, int], sv: np.ndarray) -> RankReport:
    m, n = shape
    eps = float(np.finfo(np.float64).eps)
    sigma_max = float(sv[0])
    threshold = 0.5 * np.sqrt(m + n + 1.0) * sigma_max * eps
    return RankReport(m, n, int(np.sum(sv > threshold)), float(sv[-1]), sigma_max,
                      float(threshold), eps)


def estimate_rank(A: np.ndarray) -> RankReport:
    """Estimate rank by counting singular values above the threshold
    ``0.5 * sqrt(m + n + 1) * sigma_max * eps``, with m and n the shape
    of A.

    The singular values are LAPACK's for a matrix of at most
    ``RANK_TILE`` entries. Above it they come from a blocked reduction to
    an R factor (see ``_singular_values``): CholeskyQR2 where its guard
    holds (``_cholesky_qr2`` states the guard and the error bound), else
    Householder blocks, which are the only path that can report a
    deficient rank. The CholeskyQR2 Gram proves the matrix finite; only a
    matrix that path does not take is scanned for non-finite entries. A
    malformed, empty or non-finite matrix raises StructuralError; a
    convergence failure raises NumericError rather than being reported as
    rank 0.
    """
    return _rank_report(np.shape(A), _singular_values(A))


def _lifted_full_rank(spec: NetworkSpec, k: int, W: np.ndarray) -> bool:
    """Whether ``lift_weights(spec, k, W)``, the n_{k-1} x n_k matrix U_k,
    has full rank min(n_{k-1}, n_k) as ``estimate_rank`` ranks it."""
    return estimate_rank(lift_weights(spec, k, W)).full_rank


@dataclass(frozen=True)
class BoundReport:
    """Sandwich bounds on the gradient norm at the layer after the wide
    layer; ``factors[i]`` holds (sigma_min(U), sigma_max(U),
    min|sigma'(G)|, max|sigma'(G)|) for each layer between the wide layer
    and the output."""

    lower: float
    upper: float
    grad_norm: float
    residual: float
    factors: tuple[tuple[float, float, float, float], ...]


def _spectra(spec: NetworkSpec, params: Params, trace: ForwardTrace, wide_layer: int):
    """(shape, singular values) of F_k, then of each lifted U_{k+2}..U_L:
    the one decomposition of each matrix of the full-rank set."""
    L = spec.depth
    if not 1 <= wide_layer <= L - 1:
        raise StructuralError(f"wide layer {wide_layer} outside [1, {L - 1}]")
    if trace.last_layer < wide_layer:
        raise StructuralError(f"trace ends at layer {trace.last_layer}, "
                              f"below wide layer {wide_layer}")
    matrices = chain([trace.F[wide_layer]], (lift_weights(spec, l, params.weights[l])
                                             for l in range(wide_layer + 2, L + 1)))
    return [(A.shape, _singular_values(A)) for A in matrices]


def _sandwich(
    spec: NetworkSpec, params: Params, trace: ForwardTrace, Y: np.ndarray, wide_layer: int
):
    """The spectra, the upper factor (the upper bound without the residual)
    and the BoundReport at one point: the one evaluation behind
    ``gradient_bounds`` and ``critical_point_check``."""
    from .assumptions import ensure_wide_pyramid_assumptions

    ensure_wide_pyramid_assumptions(spec, wide_layer, trace.F[0].shape[0])
    # backward checks that the trace reaches the output and Y matches it
    grads = backward(spec, params, trace, Y, start_layer=wide_layer + 1)
    spectra = _spectra(spec, params, trace, wide_layer)
    factors = []
    for l, (_, sv) in zip(range(wide_layer + 1, spec.depth), spectra[1:]):
        d = np.abs(_sigma_prime(trace, spec.activation(l), l))
        factors.append((float(sv[-1]), float(sv[0]), float(d.min()), float(d.max())))
    sv_f = spectra[0][1]
    lower = float(sv_f[-1]) * math.prod(f[0] * f[2] for f in factors)
    upper_factor = float(sv_f[0]) * math.prod(f[1] * f[3] for f in factors)
    residual = float(np.linalg.norm(grads.deltas[spec.depth]))  # ||F_L - Y||_F
    # the gradient with respect to the lifted matrix U_{k+1}; with one patch
    # U_{k+1} is a row permutation of W_{k+1}, whose gradient backward formed
    grad_norm = float(np.linalg.norm(
        grads.grad_W[wide_layer + 1] if spec.plan[wide_layer + 1].layout.patch_count == 1
        else trace.F[wide_layer].T @ grads.deltas[wide_layer + 1]))
    return spectra, upper_factor, BoundReport(
        lower * residual, upper_factor * residual, grad_norm, residual, tuple(factors))


def gradient_bounds(
    spec: NetworkSpec, params: Params, trace: ForwardTrace, Y: np.ndarray, wide_layer: int
) -> BoundReport:
    """Evaluate both sides of the gradient sandwich at one point.

    lower = sigma_min(F_k) * prod_l [sigma_min(U_{l+1}) * min|sigma_l'(G_l)|] * ||F_L - Y||_F
    upper = the same with maxima. The actual gradient norm is computed by
    exact backpropagation and lies between the two (up to roundoff).
    Decomposes F_k and each lifted U once. Raises what
    ``ensure_wide_pyramid_assumptions`` raises, and StructuralError for a
    trace that stops short of the output or a Y not shaped like it.
    """
    return _sandwich(spec, params, trace, Y, wide_layer)[2]


@dataclass(frozen=True)
class MembershipReport:
    """Full-rank status of the wide-layer features and downstream weights."""

    in_good_set: bool
    detail: tuple[RankReport, ...]  # F_k first, then U_{k+2}..U_L


def _membership(spectra, n_samples: int) -> MembershipReport:
    reports = tuple(_rank_report(shape, sv) for shape, sv in spectra)
    ok = reports[0].estimated_rank == n_samples and all(r.full_rank for r in reports[1:])
    return MembershipReport(ok, reports)


def s_k_membership(
    spec: NetworkSpec, params: Params, trace: ForwardTrace, wide_layer: int
) -> MembershipReport:
    """Check rank(F_k) = N and full rank of every weight matrix from layer
    k+2 to the output; critical points inside this set are global minima.

    Each matrix is decomposed once and ranked as ``estimate_rank`` ranks
    it. Raises StructuralError for a wide layer outside [1, L-1], a trace
    that stops below it, or a malformed or non-finite matrix.
    """
    return _membership(_spectra(spec, params, trace, wide_layer), trace.F[0].shape[0])


@dataclass(frozen=True)
class CriticalPointReport:
    """Loss/gradient pairing at one parameter point.

    ``applicable`` is False when the point is outside the full-rank set,
    in which case the equivalence is not claimed. ``grad_tolerance`` is
    the loss tolerance transported through the upper sandwich factor.
    """

    loss: float
    grad_norm: float
    equivalence_holds: bool
    applicable: bool
    grad_tolerance: float


# Loss at or below which ``critical_point_check`` counts a point as zero loss.
ZERO_LOSS_TOL = 1e-12


def critical_point_check(
    spec: NetworkSpec, params: Params, dataset: Dataset, wide_layer: int
) -> CriticalPointReport:
    """Test that zero loss and zero gradient coincide at one point.

    A loss counts as zero at or below ``ZERO_LOSS_TOL``. The gradient is
    judged against ``upper_factor * sqrt(2 * ZERO_LOSS_TOL)``, the largest
    gradient norm compatible with that loss under the sandwich upper bound,
    making the comparison scale-aware. The point is evaluated as
    ``gradient_bounds`` evaluates it, and raises what that raises; its
    membership reads the same decompositions.
    """
    trace = forward(spec, params, dataset.X)
    spectra, upper_factor, bounds = _sandwich(spec, params, trace, dataset.Y, wide_layer)
    value, grad_norm = loss(trace, dataset.Y), bounds.grad_norm
    grad_tol = upper_factor * np.sqrt(2.0 * ZERO_LOSS_TOL)
    if not _membership(spectra, dataset.sample_count).in_good_set:
        return CriticalPointReport(value, grad_norm, False, False, grad_tol)
    equivalence = (value <= ZERO_LOSS_TOL) == (grad_norm <= grad_tol)
    return CriticalPointReport(value, grad_norm, equivalence, True, grad_tol)


@dataclass(frozen=True)
class WidthAudit:
    """Maximum hidden width vs sample count, plus where the widths start
    being nonincreasing toward the output."""

    max_width: int
    arg_layer: int | None
    wide_enough: bool
    pyramidal_from: int | None


def width_audit(spec: NetworkSpec, n_samples: int) -> WidthAudit:
    """Report max hidden-layer width M, the first layer attaining it,
    whether M >= N, and the smallest hidden k whose suffix widths
    n_{k+1} >= ... >= n_L are nonincreasing."""
    widths = spec.widths
    L = spec.depth
    hidden = list(range(1, L))
    if not hidden:
        return WidthAudit(0, None, False, None)
    max_width = max(widths[k] for k in hidden)
    arg_layer = next(k for k in hidden if widths[k] == max_width)
    pyramidal_from = None
    for k in hidden:
        tail = widths[k + 1 :]
        if all(tail[i] >= tail[i + 1] for i in range(len(tail) - 1)):
            pyramidal_from = k
            break
    return WidthAudit(max_width, arg_layer, max_width >= n_samples, pyramidal_from)
