"""SVD rank estimation, gradient sandwich bounds, and landscape probes.

Numerical rank counts the singular values above
``0.5 * sqrt(m + n + 1) * sigma_max * eps`` (working-precision machine
epsilon). Singular values come from one LAPACK SVD for a matrix of at
most ``RANK_TILE`` entries. A larger matrix, such as the short-fat
feature matrix of a wide layer, is first reduced to the R factors of
cache-sized row blocks of its tall orientation (a sequential TSQR), so
that the SVD reads it about once instead of once per Householder
reflector. The gradient bounds sandwich the Frobenius norm of the
full-matrix gradient at the layer after a wide layer between products of
extreme singular values, extreme activation derivatives, and the
residual norm; at points where the feature matrix of the wide layer and
all downstream weight matrices have full rank, zero loss and zero
gradient are therefore equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, StructuralError
from .gradients import backward, loss
from .network import Dataset, ForwardTrace, NetworkSpec, Params, forward, lift_weights


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


# Entries above which a matrix's singular values are taken from the R
# factors of row blocks of about this many entries (2 MiB of float64, which
# stays in cache while LAPACK's unblocked reflectors sweep it). Above the
# largest matrix the desk sweep, rank genericity and the constructions
# rank, 256 x 896, so their singular values are LAPACK's own bits.
RANK_TILE = 1 << 18


def _singular_values(A: np.ndarray) -> np.ndarray:
    """Singular values of a float64 matrix, largest first.

    A matrix of at most ``RANK_TILE`` entries goes to one
    ``np.linalg.svd``. Above the tile, row blocks of the tall orientation
    are replaced by their R factors until the stack fits in one block,
    and the stack's singular values, which are A's, are returned. A block
    must hold at least twice the short side for a round to shrink the
    stack, so a matrix too square for that goes to the direct call. A
    LAPACK failure raises NumericError.
    """
    tall = A.T if A.shape[0] < A.shape[1] else A
    short = tall.shape[1]
    try:
        if A.size > RANK_TILE and 2 * short * short <= RANK_TILE:
            block = RANK_TILE // short  # at least 2 * short rows
            while tall.shape[0] > block:
                tall = np.vstack([np.linalg.qr(tall[i:i + block], mode="r")
                                  for i in range(0, tall.shape[0], block)])
            A = tall
        return np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed to converge: {exc}") from exc


def estimate_rank(A: np.ndarray) -> RankReport:
    """Estimate rank by counting singular values above the threshold
    ``0.5 * sqrt(m + n + 1) * sigma_max * eps``, with m and n the shape
    of A.

    The singular values are LAPACK's for a matrix of at most
    ``RANK_TILE`` entries and come from a blocked QR reduction above it
    (see ``_singular_values``). A convergence failure raises
    NumericError rather than being reported as rank 0.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.size == 0:
        raise StructuralError(f"expected a non-empty matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise StructuralError("matrix contains non-finite entries")
    sv = _singular_values(A)
    m, n = A.shape
    eps = float(np.finfo(np.float64).eps)
    sigma_max = float(sv[0])
    threshold = 0.5 * np.sqrt(m + n + 1.0) * sigma_max * eps
    return RankReport(
        rows=m,
        cols=n,
        estimated_rank=int(np.sum(sv > threshold)),
        sigma_min=float(sv[-1]),
        sigma_max=sigma_max,
        threshold=float(threshold),
        machine_eps=eps,
    )


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

    def csv_row(self) -> list[str]:
        """The ``grad-bounds.v1`` columns after ``trial``; factors are packed
        as ';'-joined 4-tuples within one field."""
        packed = ";".join(
            "({},{},{},{})".format(*(repr(v) for v in f)) for f in self.factors
        )
        return [
            repr(self.lower),
            repr(self.upper),
            repr(self.grad_norm),
            repr(self.residual),
            packed,
        ]


def _sandwich_factors(
    spec: NetworkSpec, params: Params, trace: ForwardTrace, wide_layer: int
):
    """Per-layer singular-value and derivative extremes for the sandwich."""
    factors = []
    lower_prod, upper_prod = 1.0, 1.0
    for l in range(wide_layer + 1, spec.depth):
        sv = _singular_values(lift_weights(spec, l + 1, params.weights[l + 1]))
        d = np.abs(spec.activation(l).derivative_at(trace.G[l], trace.F[l]))
        entry = (float(sv[-1]), float(sv[0]), float(d.min()), float(d.max()))
        factors.append(entry)
        lower_prod *= entry[0] * entry[2]
        upper_prod *= entry[1] * entry[3]
    sv_f = _singular_values(trace.F[wide_layer])
    return float(sv_f[-1]), float(sv_f[0]), lower_prod, upper_prod, tuple(factors)


def gradient_bounds(
    spec: NetworkSpec,
    params: Params,
    trace: ForwardTrace,
    Y: np.ndarray,
    wide_layer: int,
) -> BoundReport:
    """Evaluate both sides of the gradient sandwich at one point.

    lower = sigma_min(F_k) * prod_l [sigma_min(U_{l+1}) * min|sigma_l'(G_l)|] * ||F_L - Y||_F
    upper = the same with maxima. The actual gradient norm is computed by
    exact backpropagation and lies between the two (up to roundoff).
    """
    from .assumptions import ensure_wide_pyramid_assumptions

    N = trace.F[0].shape[0]
    ensure_wide_pyramid_assumptions(spec, wide_layer, N)
    Y = np.asarray(Y, dtype=np.float64)
    residual = float(np.linalg.norm(trace.output - Y))
    smin_f, smax_f, lower_prod, upper_prod, factors = _sandwich_factors(
        spec, params, trace, wide_layer
    )
    grads = backward(spec, params, trace, Y, start_layer=wide_layer + 1)
    grad_norm = float(np.linalg.norm(grads.grad_U[wide_layer + 1]))
    return BoundReport(
        lower=smin_f * lower_prod * residual,
        upper=smax_f * upper_prod * residual,
        grad_norm=grad_norm,
        residual=residual,
        factors=factors,
    )


@dataclass(frozen=True)
class MembershipReport:
    """Full-rank status of the wide-layer features and downstream weights."""

    in_good_set: bool
    detail: tuple[RankReport, ...]  # F_k first, then U_{k+2}..U_L


def s_k_membership(
    spec: NetworkSpec, params: Params, trace: ForwardTrace, wide_layer: int
) -> MembershipReport:
    """Check rank(F_k) = N and full rank of every weight matrix from layer
    k+2 to the output; critical points inside this set are global minima."""
    N = trace.F[0].shape[0]
    reports = [estimate_rank(trace.F[wide_layer])]
    ok = reports[0].estimated_rank == N
    for l in range(wide_layer + 2, spec.depth + 1):
        rep = estimate_rank(lift_weights(spec, l, params.weights[l]))
        reports.append(rep)
        ok = ok and rep.full_rank
    return MembershipReport(ok, tuple(reports))


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
    spec: NetworkSpec,
    params: Params,
    dataset: Dataset,
    wide_layer: int,
) -> CriticalPointReport:
    """Test that zero loss and zero gradient coincide at one point.

    A loss counts as zero at or below ``ZERO_LOSS_TOL``. The gradient is
    judged against ``upper_factor * sqrt(2 * ZERO_LOSS_TOL)``, the largest
    gradient norm compatible with that loss under the sandwich upper bound,
    making the comparison scale-aware.
    """
    from .assumptions import ensure_wide_pyramid_assumptions

    ensure_wide_pyramid_assumptions(spec, wide_layer, dataset.sample_count)
    trace = forward(spec, params, dataset.X)
    membership = s_k_membership(spec, params, trace, wide_layer)
    value = loss(trace, dataset.Y)
    grads = backward(spec, params, trace, dataset.Y, start_layer=wide_layer + 1)
    grad_norm = float(np.linalg.norm(grads.grad_U[wide_layer + 1]))
    _, smax_f, _, upper_prod, _ = _sandwich_factors(spec, params, trace, wide_layer)
    grad_tol = smax_f * upper_prod * np.sqrt(2.0 * ZERO_LOSS_TOL)
    if not membership.in_good_set:
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
