"""Independent reference implementations used only by the tests.

These deliberately avoid the library's code paths: rank by Gaussian
elimination instead of SVD, convolution by a scalar per-patch loop
instead of lifted matrix products, backpropagation through dense
lifted matrices instead of the patch scatter, the sigmoid as two
masked passes instead of one, and patch distinctness by a scan over
sample pairs instead of tiles of later samples; Adam is a loop over
per-layer arrays instead of one in-place step over flat vectors.
"""

import numpy as np

from widecnn.assumptions import DistinctPatchesReport
from widecnn.errors import NumericOverflowError, TrainingDivergedError
from widecnn.gradients import GradientSet, backward, loss
from widecnn.network import (
    Dataset,
    NetworkSpec,
    Params,
    _seal,
    forward,
    lift_adjoint,
    lift_weights,
)
from widecnn.training import (
    ERROR_CHECK_INTERVAL,
    TrainConfig,
    TrainResult,
    classification_errors,
)


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


def per_layer_adam(
    spec: NetworkSpec,
    params0: Params,
    dataset: Dataset,
    cfg: TrainConfig,
    test_dataset: Dataset | None = None,
) -> TrainResult:
    """``train_adam`` as a per-layer loop: every step replaces each layer's
    read-only W and b with new arrays, and keeps Adam's moments in per-layer
    state dicts. The library's flat, in-place step must equal it bit for
    bit."""
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
