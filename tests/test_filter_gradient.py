"""Every filter gradient is the sum over patches of patch^T @ delta, formed
from the layer's gathered patches: it agrees with the lift adjoint of the
dense F_{l-1}^T D_l to rounding, meets the oracles on 2D and multichannel
layouts, and never allocates the dense product."""

import tracemalloc

import numpy as np
import pytest

from widecnn import (
    Conv,
    FullyConnected,
    NetworkSpec,
    Output,
    Params,
    Sigmoid,
    Softplus,
    backward,
    forward,
    lift_adjoint,
)
from widecnn.layout import (
    PatchLayout,
    conv1d_layout,
    conv2d_layout,
    conv2d_multichannel_layout,
)

from oracles import (
    finite_difference_gradient,
    lifted_backward,
    max_relative_gradient_error,
)

EPS = np.finfo(np.float64).eps

NETS = {
    "1d-stride-1": NetworkSpec(12, (
        Conv(conv1d_layout(12, 3, 1), 5, Sigmoid()),
        FullyConnected(6, Softplus(3.0)),
        Output(2),
    )),
    "1d-stride-2": NetworkSpec(14, (
        Conv(conv1d_layout(14, 4, 2), 5, Softplus(2.0)),  # 6 patches
        Conv(conv1d_layout(30, 4, 2), 3, Sigmoid()),
        Output(3),
    )),
    # one filter: its (l, N) x (N, 1) blocks round differently from the
    # dense GEMM's columns, in the last bit
    "1d-one-filter": NetworkSpec(8, (
        Conv(conv1d_layout(8, 4, 2), 1, Sigmoid()),
        Output(2),
    )),
    "2d": NetworkSpec(36, (
        Conv(conv2d_layout(6, 6, 3, 3, 1, 1), 5, Sigmoid()),
        Output(2),
    )),
    "multichannel": NetworkSpec(36, (
        Conv(conv2d_layout(6, 6, 2, 2), 3, Softplus(4.0)),
        Conv(conv2d_multichannel_layout(5, 5, 3, 2, 2, 1, 1), 5, Sigmoid()),
        Output(2),
    )),
    # one patch that reads the layer out of order
    "permuted": NetworkSpec(4, (
        FullyConnected(5, Sigmoid()),
        Conv(PatchLayout(5, [[3, 0, 4, 1, 2]]), 3, Softplus(3.0)),
        Output(2),
    )),
}


@pytest.mark.parametrize("name", sorted(NETS))
@pytest.mark.parametrize("N", [1, 5, 8, 33])
def test_patch_sums_equal_the_lift_adjoint_to_rounding(name, N):
    """|grad_W - lift_adjoint(F^T D)| <= 2 eps lift_adjoint(|F|^T |D|) entry
    by entry: both sum the same N-term dot products of each (l, T) block in
    patch order, and only the BLAS kernel that forms a block differs."""
    spec = NETS[name]
    rng = np.random.default_rng(N)
    for _ in range(3):
        params = Params.gaussian(spec, rng, weight_scale=0.8)
        X = rng.standard_normal((N, spec.input_width))
        Y = rng.standard_normal((N, spec.widths[-1]))
        trace = forward(spec, params, X)
        grads = backward(spec, params, trace, Y)
        for l in range(1, spec.depth + 1):
            F, D = trace.F[l - 1], grads.deltas[l]
            dense = lift_adjoint(spec, l, F.T @ D)
            scale = lift_adjoint(spec, l, np.abs(F).T @ np.abs(D))
            assert np.all(np.abs(grads.grad_W[l] - dense) <= 2 * EPS * scale), (name, l)


def two_d_net(rng):
    """2D conv -> multichannel conv -> dense -> output over a 5x5 input."""
    act = Sigmoid() if rng.integers(2) == 0 else Softplus(2.0)
    spec = NetworkSpec(25, (
        Conv(conv2d_layout(5, 5, 2, 2), 2, act),  # 4x4 grid, 2 channels
        Conv(conv2d_multichannel_layout(4, 4, 2, 2, 2, 1, 1), 2, act),  # 3x3x2
        FullyConnected(4, act),
        Output(2),
    ))
    X = rng.standard_normal((4, 25))
    Y = rng.standard_normal((4, 2))
    return spec, Params.gaussian(spec, rng, weight_scale=0.8), X, Y


def test_2d_and_multichannel_backward_meets_the_oracles():
    rng = np.random.default_rng(14)
    for _ in range(4):
        spec, params, X, Y = two_d_net(rng)
        trace = forward(spec, params, X)
        grads = backward(spec, params, trace, Y)
        reference = lifted_backward(spec, params, trace, Y)
        for l in range(1, spec.depth + 1):
            np.testing.assert_allclose(grads.deltas[l], reference.deltas[l],
                                       rtol=1e-12, atol=1e-14)
        assert max_relative_gradient_error(grads, reference) <= 1e-12
        fd = finite_difference_gradient(spec, params, X, Y)
        assert max_relative_gradient_error(grads, fd) <= 1e-5


def test_backward_never_forms_the_dense_lifted_product():
    """On a 28x28 input the first layer's F_0^T D_1 is 784 x 5408 float64,
    32.3 MiB; a backward that forms it peaks above that."""
    spec = NetworkSpec(784, (
        Conv(conv2d_layout(28, 28, 3, 3), 8, Sigmoid()),
        Conv(conv2d_multichannel_layout(26, 26, 8, 3, 3, 1, 1), 2, Softplus(4.0)),
        FullyConnected(20, Sigmoid()),
        Output(3),
    ))
    rng = np.random.default_rng(0)
    params = Params.fan_in_gaussian(spec, rng)
    X, Y = rng.uniform(size=(8, 784)), rng.standard_normal((8, 3))
    trace = forward(spec, params, X)
    dense_bytes = spec.widths[0] * spec.widths[1] * 8
    tracemalloc.start()
    try:
        backward(spec, params, trace, Y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes
