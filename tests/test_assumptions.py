"""Data distinctness, perturbation, and structural assumption checkers."""

import numpy as np
import pytest

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
    WidthError,
    check_conv_structure,
    check_distinct_patches,
    ensure_hidden_activations,
    ensure_wide_pyramid_assumptions,
    perturb_dataset,
)
from widecnn.layout import conv1d_layout, full_layout


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
