"""Data distinctness, perturbation, and structural assumption checkers."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widecnn import (
    AssumptionError,
    Conv,
    FullyConnected,
    MaxPool,
    NetworkSpec,
    Output,
    ReLU,
    Identity,
    Sigmoid,
    StructuralError,
    UnsupportedLayerError,
    WidthError,
    check_conv_structure,
    check_distinct_patches,
    ensure_hidden_activations,
    ensure_wide_pyramid_assumptions,
    perturb_dataset,
)
from widecnn import assumptions
from widecnn.layout import (
    conv1d_layout,
    conv2d_layout,
    conv2d_multichannel_layout,
    full_layout,
)

from oracles import pairwise_distinct_patches


class TestDistinctPatches:
    def test_duplicate_rows_yield_witness(self):
        X = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 5.0, 9.0]])
        report = check_distinct_patches(X, full_layout(3))
        assert not report.holds
        assert report.witness == (0, 1, 0, 0)

    def test_cross_patch_collision_detected(self):
        # patch {0,1} of sample 0 equals patch {1,2} of sample 1
        X = np.array([[1.0, 2.0, 9.0], [7.0, 1.0, 2.0]])
        report = check_distinct_patches(X, conv1d_layout(3, 2, 1))
        assert not report.holds
        assert report.witness == (0, 1, 0, 1)

    def test_single_sample_holds_vacuously(self):
        report = check_distinct_patches(np.zeros((1, 4)), full_layout(4))
        assert report.holds and report.witness is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        # patch 1 of sample 0 equals patch 1 of sample 1; a NaN in patch 0
        # made the pair's smallest distance NaN and hid the collision
        X = np.array([[5.0, 1.0], [bad, 1.0]])
        with pytest.raises(StructuralError, match="non-finite"):
            check_distinct_patches(X, conv1d_layout(2, 1, 1))

    def test_perturbation_separates_duplicates(self):
        X = np.zeros((6, 8))  # every patch identical
        noisy = perturb_dataset(X, sigma=1e-5, seed=42)
        assert check_distinct_patches(noisy, conv1d_layout(8, 3, 1)).holds


def _window(rng):
    """(extent, kernel, stride) of valid windows that cover every position."""
    kernel = int(rng.integers(1, 4))
    stride = int(rng.integers(1, kernel + 1))
    return kernel + stride * int(rng.integers(0, 4)), kernel, stride


def _random_layout(kind, rng):
    if kind == "full":
        return full_layout(int(rng.integers(1, 6)))
    width, kw, sw = _window(rng)
    if kind == "conv1d":
        return conv1d_layout(width, kw, sw)
    height, kh, sh = _window(rng)
    if kind == "conv2d":
        return conv2d_layout(height, width, kh, kw, sh, sw)
    channels = int(rng.integers(2, 4))
    return conv2d_multichannel_layout(height, width, channels, kh, kw, sh, sw)


def _assert_same_report(X, layout):
    got = check_distinct_patches(X, layout)
    want = pairwise_distinct_patches(X, layout)
    assert got.holds == want.holds
    assert got.witness == want.witness
    assert got.min_gap.hex() == want.min_gap.hex()
    return got


class TestTiledDistinctPatches:
    """The tiled search reports what the pair-by-pair scan reports, bit for
    bit, whatever the block boundaries."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["full", "conv1d", "conv2d", "multichannel"]),
        st.integers(1, 9),
        st.integers(0, 3),
    )
    def test_matches_pairwise_scan(self, seed, kind, n, grid):
        rng = np.random.default_rng(seed)
        layout = _random_layout(kind, rng)
        # small integer grid: grid 0 is all zeros, larger grids collide less
        X = rng.integers(-grid, grid + 1, size=(n, layout.width)) * 0.5
        X[(X == 0.0) & (rng.random(X.shape) < 0.5)] = -0.0
        if n > 1 and rng.random() < 0.5:
            i, j = sorted(rng.choice(n, size=2, replace=False))
            p, q = rng.integers(layout.patch_count, size=2)
            X[j, list(layout.patches[q])] = X[i, list(layout.patches[p])]
        # a tile of `block` pairs plus a part of one, so that blocks of
        # every size from 1 to n-1 and a partial last block are reached
        pair = layout.patch_size * layout.patch_count**2
        tile = int(rng.integers(1, n + 1)) * pair + int(rng.integers(pair))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assumptions, "DISTINCT_TILE", tile)
            _assert_same_report(X, layout)

    def _blocks_of_sixteen(self):
        # 4096 taps, one patch: 16 later samples per tile
        layout = full_layout(4096)
        assert assumptions.DISTINCT_TILE // layout.patch_size == 16
        X = np.random.default_rng(5).standard_normal((40, 4096))
        return X, layout

    def test_duplicate_in_a_later_block(self):
        X, layout = self._blocks_of_sixteen()
        X[25] = X[3]  # sample 3's blocks start at 4, 20 and 36
        report = _assert_same_report(X, layout)
        assert report.witness == (3, 25, 0, 0)
        assert report.min_gap == 0.0

    def test_duplicate_in_the_last_partial_block(self):
        X, layout = self._blocks_of_sixteen()
        X[38] = X[3]  # last block of sample 3 holds samples 36..39
        X[39] = X[7]
        assert _assert_same_report(X, layout).witness == (3, 38, 0, 0)

    def test_distinct_samples_across_blocks(self):
        X, layout = self._blocks_of_sixteen()
        assert _assert_same_report(X, layout).holds

    def test_pair_larger_than_the_tile(self):
        layout = conv1d_layout(108, 9, 1)  # P = 100, l = 9
        assert layout.patch_size * layout.patch_count**2 > assumptions.DISTINCT_TILE
        X = np.random.default_rng(8).standard_normal((5, 108))
        assert _assert_same_report(X, layout).holds
        X[3, 13:22] = X[1, 57:66]
        assert _assert_same_report(X, layout).witness == (1, 3, 57, 13)

    def test_memory_is_bounded_by_the_tile(self):
        # comparing sample 0 with all 299 later ones at once would take
        # 2.8 MB; a tile takes 0.5 MB, and the next one is made before the
        # last one is dropped
        layout = conv1d_layout(20, 4, 1)
        X = np.random.default_rng(2).standard_normal((300, 20))
        patch_bytes = X.shape[0] * layout.patch_count * layout.patch_size * 8
        tracemalloc.start()
        try:
            assert check_distinct_patches(X, layout).holds
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * patch_bytes + 3 * assumptions.DISTINCT_TILE * 8

    def test_signed_zeros_are_equal(self):
        X = np.array([[0.0, 1.0, -0.0], [2.0, -0.0, 1.0]])
        report = _assert_same_report(X, conv1d_layout(3, 2, 1))
        assert report.witness == (0, 1, 0, 1)
        assert report.min_gap.hex() == (0.0).hex()


class TestPerturb:
    def test_zero_sigma_is_identity(self):
        X = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(perturb_dataset(X, 0.0, seed=1), X)

    def test_deterministic_given_seed(self):
        X = np.zeros((3, 4))
        a = perturb_dataset(X, 1e-5, seed=9)
        b = perturb_dataset(X, 1e-5, seed=9)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, perturb_dataset(X, 1e-5, seed=10))

    def test_sigma_is_variance(self):
        X = np.zeros((200, 200))
        noise = perturb_dataset(X, sigma=1e-4, seed=0)
        assert abs(noise.var() - 1e-4) < 2e-5

    def test_negative_variance_rejected(self):
        with pytest.raises(StructuralError, match="^noise variance must be nonnegative$"):
            perturb_dataset(np.zeros((2, 3)), -1e-3, seed=0)


class TestConvStructure:
    def test_strided_example_layout_always_full_rank(self):
        spec = NetworkSpec(5, (Conv(conv1d_layout(5, 3, 1), 2, Sigmoid()),))
        report = check_conv_structure(spec, 1, trials=100, seed=0)
        assert report.holds
        assert report.full_rank_fraction == 1.0

    def test_fully_connected_always_full_rank(self):
        spec = NetworkSpec(4, (FullyConnected(6, Sigmoid()),))
        report = check_conv_structure(spec, 1, trials=50, seed=1)
        assert report.full_rank_fraction == 1.0

    def test_zero_trials_rejected(self):
        spec = NetworkSpec(4, (FullyConnected(6, Sigmoid()),))
        with pytest.raises(StructuralError, match="^at least one trial required$"):
            check_conv_structure(spec, 1, trials=0)

    def test_max_pool_layer_rejected(self):
        spec = NetworkSpec(4, (MaxPool(conv1d_layout(4, 2, 2)),))
        with pytest.raises(UnsupportedLayerError,
                           match="^layer 1 is max-pool and has no weights$"):
            check_conv_structure(spec, 1)


class TestArchitectureChecks:
    def wide_spec(self, act=Sigmoid()):
        return NetworkSpec(
            4,
            (
                FullyConnected(8, act),
                FullyConnected(4, act),
                Output(2),
            ),
        )

    def test_valid_architecture_passes(self):
        ensure_wide_pyramid_assumptions(self.wide_spec(), 1, 6)

    def test_headless_network_rejected(self):
        spec = NetworkSpec(4, (FullyConnected(8, Sigmoid()), FullyConnected(4, Sigmoid())))
        with pytest.raises(AssumptionError,
                           match="^last layer must be a fully connected Output$"):
            ensure_wide_pyramid_assumptions(spec, 1, 4)

    @pytest.mark.parametrize("wide_layer", [0, 3])
    def test_wide_layer_outside_the_hidden_layers(self, wide_layer):
        with pytest.raises(StructuralError,
                           match=rf"^wide layer {wide_layer} outside \[1, 2\]$"):
            ensure_wide_pyramid_assumptions(self.wide_spec(), wide_layer, 4)

    def test_narrow_wide_layer_rejected(self):
        with pytest.raises(WidthError):
            ensure_wide_pyramid_assumptions(self.wide_spec(), 1, 9)

    def test_pooling_rejected(self):
        spec = NetworkSpec(
            4,
            (
                FullyConnected(8, Sigmoid()),
                MaxPool(conv1d_layout(8, 2, 2)),
                Output(2),
            ),
        )
        with pytest.raises(AssumptionError):
            ensure_wide_pyramid_assumptions(spec, 1, 4)

    def test_non_pyramidal_rejected(self):
        spec = NetworkSpec(
            4,
            (
                FullyConnected(8, Sigmoid()),
                FullyConnected(2, Sigmoid()),
                FullyConnected(4, Sigmoid()),
                Output(2),
            ),
        )
        with pytest.raises(AssumptionError, match="nonincreasing"):
            ensure_wide_pyramid_assumptions(spec, 1, 4)

    def test_relu_above_wide_layer_rejected(self):
        # ReLU is fine below/at the wide layer but not strictly monotone above
        spec = NetworkSpec(
            4,
            (
                FullyConnected(8, ReLU()),
                FullyConnected(4, ReLU()),
                Output(2),
            ),
        )
        with pytest.raises(AssumptionError, match="monotone"):
            ensure_wide_pyramid_assumptions(spec, 1, 4)

    def test_identity_hidden_activation_rejected(self):
        spec = NetworkSpec(4, (FullyConnected(8, Identity()), Output(2)))
        with pytest.raises(AssumptionError, match="growth"):
            ensure_hidden_activations(spec)
