"""Independent reference implementations used only by the tests.

These deliberately avoid the library's code paths: rank by Gaussian
elimination instead of SVD, convolution by a scalar per-patch loop
instead of lifted matrix products, backpropagation through dense
lifted matrices instead of the patch scatter, the sigmoid as two
masked passes instead of one, and patch distinctness by a scan over
sample pairs instead of tiles of later samples.
"""

import numpy as np

from widecnn.assumptions import DistinctPatchesReport
from widecnn.gradients import GradientSet
from widecnn.network import lift_adjoint, lift_weights


def elimination_rank(A, rel_cutoff=1e-10):
    """Rank via row reduction with partial pivoting; a pivot counts if its
    magnitude exceeds ``rel_cutoff`` times the largest input entry."""
    A = np.array(A, dtype=np.float64)
    m, n = A.shape
    scale = np.abs(A).max()
    if scale == 0.0:
        return 0
    cutoff = rel_cutoff * scale
    rank = 0
    row = 0
    for col in range(n):
        if row >= m:
            break
        piv = row + int(np.argmax(np.abs(A[row:, col])))
        if np.abs(A[piv, col]) <= cutoff:
            continue
        A[[row, piv]] = A[[piv, row]]
        factors = A[row + 1 :, col] / A[row, col]
        A[row + 1 :, col:] -= np.outer(factors, A[row, col:])
        row += 1
        rank += 1
    return rank


def planted_rank_matrix(rng, m, n, r):
    """m x n matrix of exact rank r (Gaussian factors), r <= min(m, n)."""
    if r == 0:
        return np.zeros((m, n))
    return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))


def two_pass_sigmoid(t):
    """The masked two-pass sigmoid: ``1/(1+exp(-t))`` on ``t >= 0`` and
    ``exp(t)/(1+exp(t))`` on the rest, each over its own gathered half."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def pairwise_distinct_patches(X, layout):
    """Patch distinctness one sample pair (i, j) at a time, i < j in
    row-major order: the first pair with equal patches gives the witness,
    its first (p, q) in row-major order."""
    X = np.asarray(X, dtype=np.float64)
    PX = layout.extract(X)  # (N, P, l)
    n = PX.shape[0]
    min_gap = np.inf
    for i in range(n):
        for j in range(i + 1, n):
            dist = np.abs(PX[i][:, None, :] - PX[j][None, :, :]).max(axis=2)
            gap = float(dist.min())
            if gap < min_gap:
                min_gap = gap
            if gap == 0.0:
                p, q = np.unravel_index(int(dist.argmin()), dist.shape)
                return DistinctPatchesReport(False, (i, j, int(p), int(q)), min_gap)
    return DistinctPatchesReport(True, None, min_gap)


def naive_conv_forward(F_prev, layout, W, b, sigma=None):
    """Per-patch scalar evaluation of a convolutional layer: unit
    h = p*T + t is <filter_t, patch_p> + b_h, then the activation."""
    N = F_prev.shape[0]
    T = W.shape[1]
    out = np.zeros((N, layout.patch_count * T))
    for i in range(N):
        for p, idx in enumerate(layout.patches):
            patch = F_prev[i, list(idx)]
            for t in range(T):
                h = p * T + t
                out[i, h] = float(np.dot(W[:, t], patch)) + b[h]
    return sigma(out) if sigma is not None else out


def lifted_backward(spec, params, trace, Y, start_layer=1):
    """Backpropagation with every layer above ``start_layer`` lifted to its
    dense matrix: ``D_l = (D_{l+1} @ U_{l+1}^T) * sigma_l'(G_l)``. Deltas
    are always kept."""
    L = spec.depth
    delta = trace.output - np.asarray(Y, dtype=np.float64)
    deltas = {L: delta}
    for l in range(L - 1, start_layer - 1, -1):
        U = lift_weights(spec, l + 1, params.weights[l + 1])
        delta = (delta @ U.T) * spec.activation(l).derivative(trace.G[l])
        deltas[l] = delta
    grad_U, grad_W, grad_b = ([None] * (L + 1) for _ in range(3))
    for l in range(start_layer, L + 1):
        grad_U[l] = trace.F[l - 1].T @ deltas[l]
        grad_W[l] = lift_adjoint(spec, l, grad_U[l])
        grad_b[l] = deltas[l].sum(axis=0)
    kept = tuple(deltas.get(l) for l in range(L + 1))
    return GradientSet(tuple(grad_U), tuple(grad_W), tuple(grad_b), kept)
