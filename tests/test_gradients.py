"""Backpropagation against finite differences and closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widecnn import (
    Conv,
    FullyConnected,
    Identity,
    MaxPool,
    NetworkSpec,
    Output,
    Params,
    Sigmoid,
    Softplus,
    StructuralError,
    UnsupportedLayerError,
    backward,
    forward,
    loss,
)
from widecnn.layout import PatchLayout, conv1d_layout

import oracles
from oracles import (
    finite_difference_gradient,
    lifted_backward,
    max_relative_gradient_error,
)


def random_smooth_net(rng, depth=None, max_width=8):
    """Random sigmoid/softplus net with a conv or dense first layer."""
    d = int(rng.integers(3, 7))
    act = Sigmoid() if rng.integers(2) == 0 else Softplus(float(rng.integers(1, 7)))
    layers = []
    width = d
    if rng.integers(2) == 0:
        kernel = int(rng.integers(2, width + 1))
        filters = int(rng.integers(1, 4))
        layers.append(Conv(conv1d_layout(width, kernel, 1), filters, act))
        width = (width - kernel + 1) * filters
    else:
        width = int(rng.integers(2, max_width))
        layers.append(FullyConnected(width, act))
    for _ in range(int(rng.integers(0, 2 if depth is None else depth - 2))):
        width = int(rng.integers(2, max_width))
        layers.append(FullyConnected(width, act))
    m = int(rng.integers(1, 4))
    layers.append(Output(m))
    spec = NetworkSpec(d, tuple(layers))
    N = int(rng.integers(2, 6))
    X = rng.standard_normal((N, d))
    Y = rng.standard_normal((N, m))
    return spec, Params.gaussian(spec, rng, weight_scale=0.8), X, Y


class TestLoss:
    def test_zero_at_exact_fit(self):
        spec = NetworkSpec(2, (Output(2),))
        params = Params.zeros(spec)
        X = np.zeros((3, 2))
        trace = forward(spec, params, X)
        assert loss(trace, np.zeros((3, 2))) == 0.0

    def test_single_entry_two_gives_two(self):
        spec = NetworkSpec(2, (Output(2),))
        trace = forward(spec, Params.zeros(spec), np.zeros((1, 2)))
        Y = np.array([[-2.0, 0.0]])
        assert loss(trace, Y) == 2.0  # 0.5 * 2^2

    def test_matches_elementwise_sum(self):
        rng = np.random.default_rng(5)
        spec = NetworkSpec(3, (Output(2),))
        params = Params.gaussian(spec, rng)
        X = rng.standard_normal((3, 3))
        Y = rng.standard_normal((3, 2))
        trace = forward(spec, params, X)
        direct = 0.5 * sum(
            (trace.output[i, j] - Y[i, j]) ** 2 for i in range(3) for j in range(2)
        )
        assert abs(loss(trace, Y) - direct) <= 1e-14 * max(1.0, direct)

    def test_shape_mismatch(self):
        spec = NetworkSpec(2, (Output(2),))
        trace = forward(spec, Params.zeros(spec), np.zeros((1, 2)))
        with pytest.raises(StructuralError):
            loss(trace, np.zeros((1, 3)))


class TestBackward:
    def test_zero_residual_means_zero_gradients(self):
        rng = np.random.default_rng(1)
        spec, params, X, _ = random_smooth_net(rng)
        trace = forward(spec, params, X)
        grads = backward(spec, params, trace, trace.output)
        for l in range(1, spec.depth + 1):
            assert not grads.grad_W[l].any()
            assert not grads.grad_b[l].any()

    def test_tiny_sigmoid_conv_net_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        spec = NetworkSpec(
            3, (Conv(conv1d_layout(3, 2, 1), 2, Sigmoid()), Output(2))
        )
        params = Params.gaussian(spec, rng)
        X = rng.standard_normal((4, 3))
        Y = rng.standard_normal((4, 2))
        grads = backward(spec, params, forward(spec, params, X), Y)
        fd = finite_difference_gradient(spec, params, X, Y)
        assert max_relative_gradient_error(grads, fd) <= 1e-5

    def test_linear_chain_matches_closed_form(self):
        """With identity activations, grad_W1 = X^T (X W1 W2 - Y) W2^T."""
        rng = np.random.default_rng(3)
        spec = NetworkSpec(4, (FullyConnected(3, Identity()), Output(2)))
        params = Params.gaussian(spec, rng)
        W1, W2 = params.weights[1], params.weights[2]
        params = params.with_layer(1, W1, np.zeros(3)).with_layer(2, W2, np.zeros(2))
        X = rng.standard_normal((5, 4))
        Y = rng.standard_normal((5, 2))
        grads = backward(spec, params, forward(spec, params, X), Y)
        closed = X.T @ (X @ W1 @ W2 - Y) @ W2.T
        np.testing.assert_allclose(grads.grad_W[1], closed, rtol=1e-12, atol=1e-12)

    def test_start_layer_skips_below(self):
        rng = np.random.default_rng(4)
        spec, params, X, Y = random_smooth_net(rng)
        grads = backward(spec, params, forward(spec, params, X), Y, start_layer=spec.depth)
        assert grads.grad_W[1] is None
        assert grads.grad_W[spec.depth] is not None

    def test_start_layer_outside_the_layers(self):
        spec, params, X, Y = random_smooth_net(np.random.default_rng(4))
        trace, L = forward(spec, params, X), spec.depth
        for start in (0, L + 1):
            with pytest.raises(StructuralError) as caught:
                backward(spec, params, trace, Y, start_layer=start)
            assert str(caught.value) == f"start layer {start} outside [1, {L}]"

    def test_headless_network_rejected(self):
        spec = NetworkSpec(3, (FullyConnected(2, Sigmoid()),))
        params = Params.zeros(spec)
        trace = forward(spec, params, np.zeros((1, 3)))
        with pytest.raises(StructuralError, match="Output last layer"):
            backward(spec, params, trace, np.zeros((1, 2)))

    def test_pooling_in_segment_unsupported(self):
        spec = NetworkSpec(
            4,
            (
                FullyConnected(4, Sigmoid()),
                MaxPool(conv1d_layout(4, 2, 2)),
                Output(2),
            ),
        )
        params = Params.gaussian(spec, np.random.default_rng(0))
        X = np.random.default_rng(1).standard_normal((3, 4))
        trace = forward(spec, params, X)
        with pytest.raises(UnsupportedLayerError):
            backward(spec, params, trace, np.zeros((3, 2)))

    def test_pooling_below_start_layer_is_fine(self):
        rng = np.random.default_rng(5)
        spec = NetworkSpec(
            4,
            (
                FullyConnected(4, Sigmoid()),
                MaxPool(conv1d_layout(4, 2, 2)),
                FullyConnected(3, Sigmoid()),
                Output(2),
            ),
        )
        params = Params.gaussian(spec, rng)
        X = rng.standard_normal((3, 4))
        Y = rng.standard_normal((3, 2))
        trace = forward(spec, params, X)
        grads = backward(spec, params, trace, Y, start_layer=3)
        fd = finite_difference_gradient(spec, params, X, Y, start_layer=3)
        assert max_relative_gradient_error(grads, fd) <= 1e-5

    def test_relu_gradients_away_from_kinks(self):
        """ReLU uses the derivative-at-0 = 0 convention; finite differences
        agree wherever no pre-activation sits near the kink, so sampled
        points with any |G| < 1e-3 at a ReLU layer are rejected."""
        from widecnn import ReLU

        rng = np.random.default_rng(9)
        spec = NetworkSpec(
            4, (Conv(conv1d_layout(4, 3, 1), 3, ReLU()), Output(2))
        )
        checked = 0
        while checked < 5:
            params = Params.gaussian(spec, rng)
            X = rng.standard_normal((3, 4))
            Y = rng.standard_normal((3, 2))
            trace = forward(spec, params, X)
            if np.abs(trace.G[1]).min() < 1e-3:
                continue
            checked += 1
            grads = backward(spec, params, trace, Y)
            fd = finite_difference_gradient(spec, params, X, Y)
            assert max_relative_gradient_error(grads, fd) <= 1e-5
            reference = lifted_backward(spec, params, trace, Y)
            assert np.array_equal(grads.grad_W[1], reference.grad_W[1])
            assert np.array_equal(grads.grad_b[1], reference.grad_b[1])


def conv_above_first_layer_net(rng, first_conv):
    """Conv->Conv->Output or FC->Conv->Output. The upper Conv reads
    overlapping, non-contiguous and unordered patches, so its backward
    step adds several patches' contributions onto one neuron."""
    act = Sigmoid() if rng.integers(2) == 0 else Softplus(2.0)
    if first_conv:
        first = Conv(conv1d_layout(5, 2, 1), 2, act)  # width 4 * 2 = 8
        upper = PatchLayout(8, ((0, 3, 6), (1, 4, 7), (5, 2, 0), (3, 6, 1)))
    else:
        first = FullyConnected(6, act)
        upper = PatchLayout(6, ((0, 2, 4), (1, 3, 5), (5, 0, 3)))
    spec = NetworkSpec(5, (first, Conv(upper, 2, act), Output(2)))
    X = rng.standard_normal((4, 5))
    Y = rng.standard_normal((4, 2))
    return spec, Params.gaussian(spec, rng, weight_scale=0.8), X, Y


class TestConvAboveFirstLayer:
    """Propagation through a Conv layer's patch scatter, which the dense
    nets above never reach."""

    @pytest.mark.parametrize("first_conv", [True, False])
    def test_matches_lifted_reference_and_finite_differences(self, first_conv):
        rng = np.random.default_rng(11 if first_conv else 12)
        for _ in range(5):
            spec, params, X, Y = conv_above_first_layer_net(rng, first_conv)
            trace = forward(spec, params, X)
            grads = backward(spec, params, trace, Y)
            reference = lifted_backward(spec, params, trace, Y)
            for l in range(1, spec.depth + 1):
                np.testing.assert_allclose(
                    grads.deltas[l], reference.deltas[l], rtol=1e-12, atol=1e-14
                )
            assert max_relative_gradient_error(grads, reference) <= 1e-12
            fd = finite_difference_gradient(spec, params, X, Y)
            assert max_relative_gradient_error(grads, fd) <= 1e-5

    def test_dense_layers_above_keep_the_lifted_rounding(self):
        """Above a dense layer the step is ``D @ W^T``, the same product the
        lifted reference takes with ``U = W``, so results agree bit for bit."""
        rng = np.random.default_rng(13)
        for _ in range(10):
            spec, params, X, Y = random_smooth_net(rng, depth=4)
            trace = forward(spec, params, X)
            grads = backward(spec, params, trace, Y)
            reference = lifted_backward(spec, params, trace, Y)
            for l in range(1, spec.depth + 1):
                assert np.array_equal(grads.grad_W[l], reference.grad_W[l])
                assert np.array_equal(grads.grad_b[l], reference.grad_b[l])


class TestFiniteDifferences:
    def test_exact_for_quadratic_objective(self, monkeypatch):
        """A single linear layer makes the loss quadratic in parameters, so
        central differences are exact up to roundoff."""
        monkeypatch.setattr(oracles, "FD_STEP", 1e-4)
        rng = np.random.default_rng(6)
        spec = NetworkSpec(3, (Output(2),))
        params = Params.gaussian(spec, rng)
        X = rng.standard_normal((4, 3))
        Y = rng.standard_normal((4, 2))
        grads = backward(spec, params, forward(spec, params, X), Y)
        fd = finite_difference_gradient(spec, params, X, Y)
        assert max_relative_gradient_error(grads, fd) <= 1e-8

    def test_random_softplus_net(self):
        rng = np.random.default_rng(7)
        spec = NetworkSpec(
            4,
            (
                Conv(conv1d_layout(4, 3, 1), 3, Softplus(4.0)),
                FullyConnected(4, Softplus(4.0)),
                Output(1),
            ),
        )
        params = Params.gaussian(spec, rng)
        X = rng.standard_normal((3, 4))
        Y = rng.standard_normal((3, 1))
        grads = backward(spec, params, forward(spec, params, X), Y)
        fd = finite_difference_gradient(spec, params, X, Y)
        assert max_relative_gradient_error(grads, fd) <= 1e-5

    def test_error_decreases_as_step_shrinks(self, monkeypatch):
        """h=1 is documented to degrade; the error must fall as h drops
        from 1e-2 to 1e-6."""
        rng = np.random.default_rng(8)
        spec = NetworkSpec(3, (FullyConnected(4, Sigmoid()), Output(2)))
        params = Params.gaussian(spec, rng)
        X = rng.standard_normal((4, 3))
        Y = rng.standard_normal((4, 2))
        grads = backward(spec, params, forward(spec, params, X), Y)

        def error_at(h):
            monkeypatch.setattr(oracles, "FD_STEP", h)
            fd = finite_difference_gradient(spec, params, X, Y)
            return max_relative_gradient_error(grads, fd)

        errors = [error_at(h) for h in (1e-2, 1e-4, 1e-6)]
        assert errors[0] > errors[1] > errors[2]
        assert error_at(1.0) > errors[0]


class TestGradientCheckSweep:
    """50 random smooth nets of depth <= 4 and width <= 32: backprop must
    match central differences to 1e-5 relative."""

    def test_fifty_random_nets(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(50):
            spec, params, X, Y = random_smooth_net(rng, depth=4, max_width=32)
            grads = backward(spec, params, forward(spec, params, X), Y)
            fd = finite_difference_gradient(spec, params, X, Y)
            worst = max(worst, max_relative_gradient_error(grads, fd))
        assert worst <= 1e-5


class TestSingularValueInequalities:
    """Norm inequalities behind the sandwich bounds: for tall A,
    smin(A)||x|| <= ||Ax|| <= smax(A)||x|| and the Frobenius analogue."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_vector_bound(self, seed, n):
        rng = np.random.default_rng(seed)
        m = n + int(rng.integers(0, 4))
        A = rng.standard_normal((m, n))
        x = rng.standard_normal(n)
        sv = np.linalg.svd(A, compute_uv=False)
        ax = float(np.linalg.norm(A @ x))
        nx = float(np.linalg.norm(x))
        assert sv[0] * nx >= ax - 1e-10
        assert ax >= sv[-1] * nx - 1e-10

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
    def test_frobenius_bound(self, seed, n, p):
        rng = np.random.default_rng(seed)
        m = n + int(rng.integers(0, 4))
        A = rng.standard_normal((m, n))
        B = rng.standard_normal((n, p))
        sv = np.linalg.svd(A, compute_uv=False)
        ab = float(np.linalg.norm(A @ B))
        nb = float(np.linalg.norm(B))
        assert sv[0] * nb >= ab - 1e-10
        assert ab >= sv[-1] * nb - 1e-10


class TestDeltaDiagnostics:
    def test_kept_deltas_start_from_the_residual(self):
        rng = np.random.default_rng(10)
        spec, params, X, Y = random_smooth_net(rng)
        trace = forward(spec, params, X)
        grads = backward(spec, params, trace, Y)
        np.testing.assert_allclose(grads.deltas[spec.depth], trace.output - Y)
