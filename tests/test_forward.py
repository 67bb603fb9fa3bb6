"""Forward pass: per-patch semantics, pooling, purity, and overflow."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widecnn import (
    Conv,
    Dataset,
    FullyConnected,
    Identity,
    MaxPool,
    NetworkSpec,
    NumericOverflowError,
    Output,
    Params,
    ReLU,
    Sigmoid,
    StructuralError,
    Workspace,
    forward,
    lift_weights,
)
from widecnn.architectures import mnist_conv_pool_network
from widecnn.data import synthesize_dataset
from widecnn.layout import (
    PatchLayout,
    conv1d_layout,
    full_layout,
    pool2d_multichannel_layout,
)
from widecnn.network import max_pool

from oracles import gather_max_pool, naive_conv_forward


class TestBasics:
    def test_zero_sigmoid_layer_outputs_one_half(self):
        spec = NetworkSpec(3, (FullyConnected(4, Sigmoid()),))
        X = np.random.default_rng(0).standard_normal((5, 3))
        trace = forward(spec, Params.zeros(spec), X)
        np.testing.assert_array_equal(trace.F[1], np.full((5, 4), 0.5))

    def test_max_pool_takes_patch_maxima(self):
        layout = conv1d_layout(3, 2, 1)  # patches {0,1}, {1,2}
        spec = NetworkSpec(3, (MaxPool(layout),))
        trace = forward(spec, Params.empty(spec), np.array([[3.0, -1.0, 7.0]]))
        np.testing.assert_array_equal(trace.F[1], [[3.0, 7.0]])

    def test_output_layer_applies_no_nonlinearity(self):
        spec = NetworkSpec(2, (Output(2),))
        params = Params.zeros(spec).with_layer(1, np.eye(2) * 3.0, np.zeros(2))
        X = np.array([[1.0, -4.0]])
        trace = forward(spec, params, X)
        np.testing.assert_array_equal(trace.F[1], [[3.0, -12.0]])
        np.testing.assert_array_equal(trace.F[1], trace.G[1])


class TestAgainstNaiveDefinition:
    """The lifted/gathered matrix product must equal the scalar per-patch
    evaluation of the layer definition."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 4))
    def test_conv_layer_matches_per_patch_loop(self, seed, filters, kernel):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(kernel, kernel + 5))
        layout = conv1d_layout(width, kernel, 1)
        spec = NetworkSpec(width, (Conv(layout, filters, Sigmoid()),))
        params = Params.gaussian(spec, rng)
        X = rng.standard_normal((3, width))
        got = forward(spec, params, X).F[1]
        want = naive_conv_forward(
            X, layout, params.weights[1], params.biases[1], Sigmoid()
        )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_matches_explicit_lifted_product(self):
        """The worked lifting example: forward equals sigma(X U + b)."""
        rng = np.random.default_rng(7)
        layout = conv1d_layout(5, 3, 1)
        spec = NetworkSpec(5, (Conv(layout, 2, Sigmoid()),))
        params = Params.gaussian(spec, rng)
        X = rng.standard_normal((4, 5))
        U = lift_weights(spec, 1, params.weights[1])
        want = Sigmoid()(X @ U + params.biases[1])
        got = forward(spec, params, X).F[1]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_arbitrary_layouts_match_per_patch_loop(self, seed):
        """Lifting consistency on non-contiguous, unordered patches: the
        lifted product must equal the scalar per-patch evaluation."""
        rng = np.random.default_rng(seed)
        width = int(rng.integers(3, 8))
        size = int(rng.integers(1, width + 1))
        patches = [tuple(range(s, s + size)) for s in range(width - size + 1)]
        seen = {frozenset(p) for p in patches}
        for _ in range(int(rng.integers(0, 3))):
            extra = tuple(rng.permutation(width)[:size])
            if frozenset(extra) not in seen:
                seen.add(frozenset(extra))
                patches.append(extra)
        layout = PatchLayout(width, tuple(patches))
        filters = int(rng.integers(1, 4))
        spec = NetworkSpec(width, (Conv(layout, filters, Sigmoid()),))
        params = Params.gaussian(spec, rng)
        X = rng.standard_normal((3, width))
        lifted = Sigmoid()(
            X @ lift_weights(spec, 1, params.weights[1]) + params.biases[1]
        )
        naive = naive_conv_forward(
            X, layout, params.weights[1], params.biases[1], Sigmoid()
        )
        np.testing.assert_allclose(lifted, naive, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            forward(spec, params, X).F[1], naive, rtol=1e-12, atol=1e-12
        )

    def test_fully_connected_equals_whole_layer_conv(self):
        rng = np.random.default_rng(3)
        fc = NetworkSpec(4, (FullyConnected(3, Sigmoid()),))
        conv = NetworkSpec(4, (Conv(full_layout(4), 3, Sigmoid()),))
        params = Params.gaussian(fc, rng)
        X = rng.standard_normal((5, 4))
        np.testing.assert_allclose(
            forward(fc, params, X).F[1],
            forward(conv, params, X).F[1],
            rtol=1e-12,
        )


# the pooling layouts of the library's and the tests' nets, with fewer
# channels than the reference net's 100 and 80
POOL_LAYOUTS = {
    "1d-3-2-1": conv1d_layout(3, 2, 1),
    "1d-4-2-2": conv1d_layout(4, 2, 2),
    "1d-18-2-2": conv1d_layout(18, 2, 2),
    "1d-40-8-4": conv1d_layout(40, 8, 4),
    "2d-26x26x3": pool2d_multichannel_layout(26, 26, 3, 2, 2, 2, 2),
    "2d-6x6x5": pool2d_multichannel_layout(6, 6, 5, 2, 2, 2, 2),
}
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 0.5])


def _bits(a):
    return a.shape, a.tobytes()


def _special_rows(rng, n, width):
    """Gaussian rows with about half of the entries replaced by signed
    zeros, infinities, NaN and repeated values, so that windows hold
    ties, ±0 pairs and non-finite entries."""
    F = rng.standard_normal((n, width))
    mask = rng.random(F.shape) < 0.5
    F[mask] = SPECIAL[rng.integers(len(SPECIAL), size=int(mask.sum()))]
    return F


class TestMaxPoolRunningMaximum:
    """``max_pool``'s running maximum over taps equals the reduce over the
    whole patch gather bit for bit on windows of up to 8 taps."""

    @pytest.mark.parametrize("name", sorted(POOL_LAYOUTS))
    def test_matches_gather_reduce(self, name):
        layout = POOL_LAYOUTS[name]
        rng = np.random.default_rng(len(name))
        workspace = Workspace()
        for n in (1, 5, 3):  # the workspace shrinks after growing
            F = _special_rows(rng, n, layout.width)
            shape = (n, layout.patch_count)
            expected = _bits(gather_max_pool(layout, F))
            assert _bits(max_pool(layout, F)) == expected
            out = workspace.take("F", shape)
            scratch = workspace.take("scratch", (n, *layout.patches.shape))
            out[...] = scratch[...] = np.nan  # stale contents must not leak
            del scratch  # so that max_pool's gather recycles it
            result = max_pool(layout, F, out, workspace)
            assert result is out
            assert _bits(result) == expected
            del out, result  # so that the next size recycles the buffer

    def test_non_contiguous_rows(self):
        layout = POOL_LAYOUTS["2d-6x6x5"]
        F = _special_rows(np.random.default_rng(4), 7, 2 * layout.width)[:, ::2]
        assert _bits(max_pool(layout, F)) == _bits(gather_max_pool(layout, F))

    @pytest.mark.parametrize("name", ["1d-18-2-2", "1d-40-8-4", "2d-26x26x3", "2d-6x6x5",
                                      "1d-18-4-2", "2d-5x5x3-s1"])
    def test_window_view_matches_the_gather_path(self, name):
        """The strided view gives the bits of the gather path, which the
        same patches take with their first two rows swapped (no window
        grid then), and of the gather reduce: on zero rows, on rows that
        are not contiguous, and on overlapping windows (the last two)."""
        layout = {**POOL_LAYOUTS, "1d-18-4-2": conv1d_layout(18, 4, 2),
                  "2d-5x5x3-s1": pool2d_multichannel_layout(5, 5, 3, 2, 2, 1, 1)}[name]
        order = [1, 0, *range(2, layout.patch_count)]
        swapped = PatchLayout(layout.width, layout.patches[order])
        assert layout.window_grid is not None and swapped.window_grid is None
        rng = np.random.default_rng(len(name))
        for F in (_special_rows(rng, 0, layout.width), _special_rows(rng, 6, layout.width),
                  _special_rows(rng, 5, 3 * layout.width)[:, 1::3]):
            ours = max_pool(layout, F)
            assert _bits(ours[:, order]) == _bits(max_pool(swapped, F))
            assert _bits(ours) == _bits(gather_max_pool(layout, F))

    def test_window_view_allocates_only_the_maxima(self):
        """On the reference net's first pooling layer the view path takes
        no scratch: it allocates the (N, P) maxima, or nothing when it
        writes into a workspace, beyond the one buffer of
        ``np.getbufsize()`` entries that a ufunc over strided operands
        may take and the view's small Python objects (4 KiB)."""
        layout = pool2d_multichannel_layout(26, 26, 100, 2, 2, 2, 2)
        F = np.random.default_rng(3).standard_normal((32, layout.width))
        assert layout.window_grid is not None  # worked out once, before the trace
        workspace = Workspace()
        out = workspace.take(("F", 2), (32, layout.patch_count))
        for args in ((), (out, workspace)):
            tracemalloc.start()
            try:
                maxima = max_pool(layout, F, *args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            allocated = 0 if args else maxima.nbytes
            assert peak <= allocated + 8 * np.getbufsize() + 4096
        assert maxima is out and list(workspace._buffers) == [("F", 2)]

    def test_wide_windows_agree_up_to_the_sign_of_zero(self):
        # np.max reduces a window of 9 or more taps in its own order, so a
        # tie between +0 and -0 may keep the other zero
        layout = pool2d_multichannel_layout(9, 9, 2, 3, 3, 3, 3)
        F = _special_rows(np.random.default_rng(9), 40, layout.width)
        ours, theirs = max_pool(layout, F), gather_max_pool(layout, F)
        np.testing.assert_array_equal(ours, theirs)
        zero_or_nan = (ours == 0.0) | np.isnan(ours)
        assert _bits(ours[~zero_or_nan]) == _bits(theirs[~zero_or_nan])

    @pytest.mark.parametrize("name", ["1d-18-2-2", "2d-6x6x5", "2d-26x26x3"])
    def test_first_nan_in_tap_order_wins(self, name):
        """Every window holds a +NaN and a -NaN, each with its own payload,
        at two random taps, in both orders across the windows. The window
        view and the gather path (the same patches with the first two rows
        swapped) both return the bits of the NaN at the lower tap. The
        oracle's ``np.max`` does not keep the sign, so it is not compared."""
        layout = POOL_LAYOUTS[name]  # windows that do not overlap
        order = [1, 0, *range(2, layout.patch_count)]
        swapped = PatchLayout(layout.width, layout.patches[order])
        assert layout.window_grid is not None and swapped.window_grid is None
        nans = np.array([0x7FF8000000000001, 0xFFF8000000000002], np.uint64).view(np.float64)
        rng = np.random.default_rng(len(name))
        n, (P, l) = 4, layout.patches.shape
        F = rng.standard_normal((n, layout.width))
        taps = np.array([rng.choice(l, 2, replace=False) for _ in range(n * P)]).reshape(n, P, 2)
        signs = rng.integers(2, size=(n, P))  # which NaN takes the first of the two taps
        first_taps = taps.min(axis=2)
        rows = np.arange(n)[:, None]
        F[rows, layout.patches[np.arange(P), taps[..., 0]]] = nans[signs]
        F[rows, layout.patches[np.arange(P), taps[..., 1]]] = nans[1 - signs]
        expected = np.where(first_taps == taps[..., 0], nans[signs], nans[1 - signs])
        assert set(np.unique(expected.view(np.uint64))) == set(nans.view(np.uint64))
        assert _bits(max_pool(layout, F)) == _bits(expected)
        assert _bits(max_pool(swapped, F)) == _bits(expected[:, order])

    @pytest.mark.parametrize("use_workspace", [False, True])
    def test_forward_pools_match_gather_reduce(self, use_workspace):
        rng = np.random.default_rng(12)
        nets = (
            mnist_conv_pool_network(2, 3, 4),
            NetworkSpec(12, (
                Conv(conv1d_layout(12, 3, 1), 4, ReLU()),  # zero ties
                MaxPool(conv1d_layout(40, 8, 4)),
                FullyConnected(6, Sigmoid()),
                Output(3),
            )),
        )
        for spec in nets:
            params = Params.fan_in_gaussian(spec, rng)
            workspace = Workspace() if use_workspace else None
            for n in (6, 2):
                X = rng.uniform(-1.0, 1.0, size=(n, spec.input_width))
                trace = forward(spec, params, X, workspace=workspace)
                for k in range(1, spec.depth + 1):
                    if spec.is_pooling(k):
                        expected = gather_max_pool(spec.layer(k).layout, trace.F[k - 1])
                        assert _bits(trace.F[k]) == _bits(expected)


class TestContract:
    def test_pure_function(self):
        rng = np.random.default_rng(11)
        spec = NetworkSpec(
            6,
            (
                Conv(conv1d_layout(6, 3, 1), 2, Sigmoid()),
                MaxPool(conv1d_layout(8, 2, 2)),
                Output(2),
            ),
        )
        params = Params.gaussian(spec, rng)
        X = rng.standard_normal((4, 6))
        first = forward(spec, params, X)
        second = forward(spec, params, X)
        for a, b in zip(first.F, second.F):
            np.testing.assert_array_equal(a, b)

    def test_trace_invariants(self):
        rng = np.random.default_rng(2)
        spec = NetworkSpec(
            5,
            (
                FullyConnected(4, Sigmoid()),
                MaxPool(conv1d_layout(4, 2, 2)),
                Output(3),
            ),
        )
        params = Params.gaussian(spec, rng)
        trace = forward(spec, params, rng.standard_normal((6, 5)))
        np.testing.assert_allclose(trace.F[1], Sigmoid()(trace.G[1]))
        assert trace.G[2] is None  # pooling has no pre-activation
        np.testing.assert_array_equal(trace.F[3], trace.G[3])

    def test_overflow_error_names_layer(self):
        # layer 1 stays finite (~1e200); the layer-2 product overflows
        spec = NetworkSpec(2, (FullyConnected(2, Identity()), Output(1)))
        params = Params.zeros(spec).with_layer(1, np.full((2, 2), 1e200), np.zeros(2))
        params = params.with_layer(2, np.full((2, 1), 1e200), np.zeros(1))
        with pytest.raises(NumericOverflowError, match="layer 2"):
            forward(spec, params, np.ones((1, 2)))


class TestFiniteErrorSplit:
    """A non-finite parameter is a StructuralError naming its layer, wherever
    the batch overflows; overflow with finite parameters is a
    NumericOverflowError naming the layer where it happens. No
    RuntimeWarning escapes either way."""

    SPEC = NetworkSpec(6, (Conv(conv1d_layout(6, 3, 1), 2, Sigmoid()),
                           FullyConnected(4, Sigmoid()), Output(2)))

    def params(self):
        return Params.gaussian(self.SPEC, np.random.default_rng(31))

    def with_entry(self, params, k, which, value):
        W, b = params.weights[k].copy(), params.biases[k].copy()
        (W if which == "W" else b).flat[1] = value
        return params.with_layer(k, W, b)

    def huge(self, params, k):
        W = np.full_like(params.weights[k], np.finfo(np.float64).max)
        return params.with_layer(k, W, params.biases[k])

    def raises(self, error, match, params, X):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=match):
                forward(self.SPEC, params, X)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["W", "b"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_non_finite_parameter_names_its_layer(self, k, which, value):
        X = np.random.default_rng(32).standard_normal((5, 6))
        params = self.with_entry(self.params(), k, which, value)
        self.raises(StructuralError, f"layer {k} ", params, X)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_overflow_with_finite_parameters_names_its_layer(self, k):
        X = np.random.default_rng(33).standard_normal((5, 6))
        if k == 1:
            X = 1e300 * X
        params = self.huge(self.params(), k)
        self.raises(NumericOverflowError, f"layer {k}$", params, X)

    def test_non_finite_parameter_above_an_overflow(self):
        X = 1e300 * np.random.default_rng(34).standard_normal((5, 6))
        params = self.huge(self.params(), 1)
        params = self.with_entry(params, 3, "W", np.nan)
        self.raises(StructuralError, "layer 3 ", params, X)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_rows_with_non_finite_parameter(self, k):
        params = self.with_entry(self.params(), k, "W", np.inf)
        self.raises(StructuralError, f"layer {k} ", params, np.zeros((0, 6)))

    def test_finite_batch_that_sums_to_infinity_is_accepted(self):
        X = np.full((4, 6), 1e308)  # every entry finite, the sum is not
        trace = forward(self.SPEC, self.params(), X)
        assert np.all(np.isfinite(trace.output))


class TestTypedErrors:
    """Malformed batches and parameter sets end in a StructuralError that
    says what is wrong."""

    SPEC = NetworkSpec(6, (Conv(conv1d_layout(6, 3, 1), 2, Sigmoid()),
                           MaxPool(conv1d_layout(8, 2, 2)), Output(2)))

    def params(self):
        return Params.gaussian(self.SPEC, np.random.default_rng(41))

    def raises(self, match, params=None, X=None):
        X = np.zeros((3, 6)) if X is None else X
        with pytest.raises(StructuralError, match=match):
            forward(self.SPEC, self.params() if params is None else params, X)

    def test_wrong_layer_count(self):
        params = self.params()
        short = Params(params.weights[:-1], params.biases[:-1])
        self.raises(r"^params cover 2 layers, spec has 3$", short)

    def test_missing_parameters(self):
        params = self.params()
        weights = list(params.weights)
        weights[3] = None
        self.raises(r"^layer 3 is missing parameters$", Params(tuple(weights), params.biases))

    def test_parameters_on_a_max_pool_layer(self):
        params = self.params()
        biases = list(params.biases)
        biases[2] = np.zeros(4)
        self.raises(r"^layer 2 is max-pool but has parameters$",
                    Params(params.weights, tuple(biases)))

    def test_wrong_weight_shape(self):
        params = self.params().with_layer(1, np.zeros((2, 3)), np.zeros(8))
        self.raises(r"^layer 1 weights \(2, 3\), expected \(3, 2\)$", params)

    def test_wrong_bias_shape(self):
        params = self.params()
        params = params.with_layer(3, params.weights[3], np.zeros(3))
        self.raises(r"^layer 3 bias \(3,\), expected \(2,\)$", params)

    @pytest.mark.parametrize("shape", [(3, 5), (6,), (2, 6, 1)])
    def test_misshapen_batch(self, shape):
        self.raises(rf"^X must be \(N, 6\), got {re.escape(str(shape))}$",
                    X=np.zeros(shape))

    @pytest.mark.parametrize("up_to", [-1, 4])
    def test_up_to_outside_the_layers(self, up_to):
        with pytest.raises(StructuralError, match=rf"^up_to {up_to} outside \[0, 3\]$"):
            forward(self.SPEC, self.params(), np.zeros((3, 6)), up_to=up_to)

    def test_up_to_zero_is_the_input_alone(self):
        trace = forward(self.SPEC, self.params(), np.ones((3, 6)), up_to=0)
        assert trace.last_layer == 0 and trace.G == (None,)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_batch(self, value):
        X = np.zeros((3, 6))
        X[1, 4] = value
        self.raises(r"^X contains non-finite values$", X=X)


class TestFreezing:
    """Frozen containers copy every array a caller owns and share the arrays
    the library has just created."""

    def test_caller_arrays_stay_writable_and_unshared(self):
        rng = np.random.default_rng(12)
        spec = NetworkSpec(5, (Conv(conv1d_layout(5, 2, 1), 2, Sigmoid()), Output(3)))
        mine = Params.gaussian(spec, rng)
        W1, W2, b1, b2 = (a.copy() for a in (*mine.weights[1:], *mine.biases[1:]))
        X, Y, Z = rng.standard_normal((4, 5)), np.eye(3)[[0, 1, 2, 0]], np.eye(3)
        view = W2.view()
        view.setflags(write=False)  # read-only, but W2 can still change it
        params = Params((None, W1, view), (None, b1, b2))
        trace = forward(spec, params, X)
        dataset = Dataset(X, Y, (0, 1, 2, 0), Z)
        frozen = (*params.weights[1:], *params.biases[1:], *trace.F, trace.G[1],
                  trace.G[2], dataset.X, dataset.Y, dataset.Z)
        before = [a.copy() for a in frozen]
        for arr in (W1, b1, W2, b2, X, Y, Z):
            assert arr.flags.writeable
            arr += 1.0
        for arr, old in zip(frozen, before):
            assert not arr.flags.writeable
            np.testing.assert_array_equal(arr, old)

    def test_library_arrays_are_shared(self):
        rng = np.random.default_rng(13)
        spec = NetworkSpec(3, (FullyConnected(4, Sigmoid()), Output(2)))
        params = Params.gaussian(spec, rng)
        again = Params(params.weights, params.biases)
        assert all(a is b for a, b in zip(again.weights[1:], params.weights[1:]))
        dataset = Dataset(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
        trace = forward(spec, params, dataset.X)
        assert trace.F[0] is dataset.X

    def test_slice_of_a_sealed_dataset_is_shared(self):
        full = synthesize_dataset(12, 4, 3, seed=14)
        part = Dataset(full.X[3:9], full.Y[3:9], full.labels[3:9], full.Z)
        assert part.X.base is full.X and part.Y.base is full.Y
        assert part.Z is full.Z
        np.testing.assert_array_equal(part.X, full.X[3:9])

    def test_read_only_view_of_a_writable_array_is_copied(self):
        X = np.random.default_rng(15).standard_normal((6, 3))
        rows = X[1:5]
        rows.setflags(write=False)  # read-only, but X can still change it
        before = rows.copy()
        dataset = Dataset(rows, np.zeros((4, 2)))
        assert not np.shares_memory(dataset.X, X)
        X += 1.0
        np.testing.assert_array_equal(dataset.X, before)


class TestSpecValidation:
    def test_output_must_be_last(self):
        import pytest
        from widecnn import StructuralError

        with pytest.raises(StructuralError, match="not last"):
            NetworkSpec(3, (Output(2), FullyConnected(2, Sigmoid())))

    def test_width_chain_mismatch_rejected(self):
        import pytest
        from widecnn import StructuralError

        with pytest.raises(StructuralError):
            NetworkSpec(4, (Conv(conv1d_layout(5, 3, 1), 2, Sigmoid()),))

    @pytest.mark.parametrize("build,message", [
        (lambda: Conv(conv1d_layout(4, 2), 0, Sigmoid()), "filter count must be positive"),
        (lambda: NetworkSpec(4, (MaxPool(conv1d_layout(5, 2)),)),
         "pool layout indexes width 5, previous layer has width 4"),
        (lambda: Output(0), "output width must be positive"),
        (lambda: NetworkSpec(0, (Output(2),)), "input width must be positive"),
        (lambda: NetworkSpec(4, ()), "network needs at least one layer"),
        (lambda: NetworkSpec(4, (Output(2),)).layer(2), "layer index 2 outside [1, 1]"),
        (lambda: Params((None, None), (None,)), "weights and biases must have equal length"),
    ], ids=["filters", "pool-width", "output-width", "input-width", "no-layers",
            "layer-index", "params-length"])
    def test_malformed_structure(self, build, message):
        with pytest.raises(StructuralError) as caught:
            build()
        assert str(caught.value) == message



class TestParamsInitializers:
    def test_draw_order_is_weights_then_bias_layer_by_layer(self):
        """Seeded runs depend on this order: pooling layers and layers above
        ``up_to`` draw nothing."""
        spec = NetworkSpec(
            4,
            (
                Conv(conv1d_layout(4, 2, 1), 2, Sigmoid()),
                MaxPool(conv1d_layout(6, 2, 2)),
                FullyConnected(3, Sigmoid()),
                Output(2),
            ),
        )
        weighted = [(1, (2, 2), 6), (3, (3, 3), 3), (4, (3, 2), 2)]
        for up_to in (4, 3):
            params = Params.gaussian(spec, np.random.default_rng(0), 2.0, 0.5, up_to)
            rng = np.random.default_rng(0)
            for k, shape, width in weighted:
                if k > up_to:
                    assert params.weights[k] is None and params.biases[k] is None
                    continue
                W = 2.0 * rng.standard_normal(shape)
                b = 0.5 * rng.standard_normal(width)
                np.testing.assert_array_equal(params.weights[k], W)
                np.testing.assert_array_equal(params.biases[k], b)
        params = Params.fan_in_gaussian(spec, np.random.default_rng(1))
        rng = np.random.default_rng(1)
        for k, shape, width in weighted:
            W = rng.standard_normal(shape) / np.sqrt(shape[0])
            b = 0.01 * rng.standard_normal(width)
            np.testing.assert_array_equal(params.weights[k], W)
            np.testing.assert_array_equal(params.biases[k], b)
        assert params.weights[2] is None and params.biases[2] is None
