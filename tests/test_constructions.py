"""Constructive weight synthesis: transport, independence, interpolation,
and exact zero loss."""

from dataclasses import replace

import numpy as np
import pytest

from widecnn import (
    AssumptionError,
    Conv,
    ConstructionParams,
    Dataset,
    FullyConnected,
    MaxPool,
    NetworkSpec,
    Output,
    ReLU,
    Sigmoid,
    Softplus,
    StructuralError,
    UnsupportedLayerError,
    WidthError,
    backward,
    check_distinct_patches,
    estimate_rank,
    expressivity_fit,
    expressivity_params,
    forward,
    independence_construction,
    independence_construction_report,
    lift_weights,
    loss,
    s_k_membership,
    synthesize_dataset,
    transport_construction,
    zero_loss_construction,
)
from widecnn import constructions
from widecnn.architectures import single_conv_network
from widecnn.constructions import build_selection_permutation
from widecnn.errors import ConstructionFailedError
from widecnn.experiments import zero_loss_demo_case
from widecnn.layout import conv1d_layout
from widecnn.network import patch_products


def min_cross_gap(F):
    n = F.shape[0]
    gaps = [
        np.abs(F[i][:, None] - F[j][None, :]).min()
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return min(gaps)


class TestTransport:
    def test_two_samples_single_sigmoid_conv_layer(self):
        rng = np.random.default_rng(0)
        spec = NetworkSpec(4, (Conv(conv1d_layout(4, 2, 1), 2, Sigmoid()),))
        X = rng.standard_normal((2, 4))
        params = transport_construction(spec, X, 1, ConstructionParams(seed=1))
        F = forward(spec, params, X, up_to=1).F[1]
        assert min_cross_gap(F) > 1e-9

    def test_one_sample(self):
        """A lone sample has no other sample to differ from: every gap test
        passes, and the layer is still built."""
        spec = single_conv_network(8, 3, 2)
        X = np.random.default_rng(8).standard_normal((1, 8))
        params = transport_construction(spec, X, 1)
        assert params.weights[1].shape == spec.filter_shape(1)
        assert np.isfinite(forward(spec, params, X, up_to=1).F[1]).all()

    def test_duplicate_rows_rejected(self):
        spec = NetworkSpec(4, (Conv(conv1d_layout(4, 2, 1), 2, Sigmoid()),))
        X = np.ones((2, 4))
        witness = check_distinct_patches(X, spec.input_layout).witness
        for build in (transport_construction, independence_construction):
            with pytest.raises(AssumptionError) as info:
                build(spec, X, 1, ConstructionParams(seed=1))
            assert str(info.value) == f"input patches collide across samples at {witness}"
            assert info.value.witness == witness

    def test_distinctness_survives_max_pooling(self):
        rng = np.random.default_rng(2)
        spec = NetworkSpec(
            6,
            (
                Conv(conv1d_layout(6, 3, 1), 3, Sigmoid()),
                MaxPool(conv1d_layout(12, 2, 2)),
                FullyConnected(5, Softplus(4.0)),
            ),
        )
        X = rng.standard_normal((3, 6))
        params = transport_construction(spec, X, 3, ConstructionParams(seed=3))
        trace = forward(spec, params, X, up_to=3)
        assert min_cross_gap(trace.F[2]) > 0.0  # pooled layer keeps the gap
        assert min_cross_gap(trace.F[3]) > 1e-9

    def test_relu_transport_uses_positive_preactivations(self):
        rng = np.random.default_rng(4)
        spec = NetworkSpec(5, (Conv(conv1d_layout(5, 3, 1), 2, ReLU()),))
        X = rng.standard_normal((3, 5))
        params = transport_construction(spec, X, 1, ConstructionParams(seed=5))
        trace = forward(spec, params, X, up_to=1)
        assert np.all(trace.G[1] > 0.0)
        assert min_cross_gap(trace.F[1]) > 1e-9

    def test_constructed_lifted_matrices_have_full_rank(self):
        rng = np.random.default_rng(6)
        spec = NetworkSpec(
            6,
            (
                Conv(conv1d_layout(6, 3, 1), 2, Sigmoid()),
                FullyConnected(4, Sigmoid()),
            ),
        )
        X = rng.standard_normal((3, 6))
        params = transport_construction(spec, X, 2, ConstructionParams(seed=7))
        for l in (1, 2):
            U = lift_weights(spec, l, params.weights[l])
            assert estimate_rank(U).full_rank

    @pytest.mark.parametrize("layer", [0, 2])
    def test_target_layer_outside_the_network(self, layer):
        spec = NetworkSpec(4, (FullyConnected(6, Sigmoid()),))
        with pytest.raises(StructuralError, match=rf"^target layer {layer} outside \[1, 1\]$"):
            transport_construction(spec, np.eye(2, 4), layer)

    def test_pooling_first_layer_rejected(self):
        spec = NetworkSpec(4, (MaxPool(conv1d_layout(4, 2, 2)), FullyConnected(3, Sigmoid())))
        with pytest.raises(UnsupportedLayerError,
                           match="^layer 1 is max-pool and has no weights$"):
            transport_construction(spec, np.eye(2, 4), 2)


class TestSelectionPermutation:
    def test_is_a_permutation_and_orders_inner_products(self):
        rng = np.random.default_rng(8)
        N, P, T = 6, 3, 2
        ip = rng.standard_normal((N, P, T))
        gamma = build_selection_permutation(ip)
        assert sorted(gamma.tolist()) == list(range(N))
        flat = ip.reshape(N, -1)
        for j in range(N):
            later = gamma[j + 1 :]
            if later.size:
                assert flat[gamma[j], j] < flat[later, j].min()

    def test_layer_narrower_than_the_samples_rejected(self):
        with pytest.raises(StructuralError,
                           match="^wide layer narrower than the sample count$"):
            build_selection_permutation(np.zeros((4, 1, 3)))


class TestIndependence:
    @pytest.mark.parametrize("act", [Sigmoid(), Softplus(10.0), ReLU()])
    def test_single_conv_layer_reaches_rank_n(self, act):
        rng = np.random.default_rng(9)
        spec = NetworkSpec(6, (Conv(conv1d_layout(6, 3, 1), 2, act),))
        X = rng.standard_normal((8, 6))
        report = independence_construction_report(
            spec, X, 1, ConstructionParams(seed=10)
        )
        F = forward(spec, report.params, X, up_to=1).F[1]
        assert estimate_rank(F).estimated_rank == 8
        assert report.submatrix_sigma_min >= 1e-10
        assert estimate_rank(lift_weights(spec, 1, report.params.weights[1])).full_rank

    def test_single_sample_is_trivial(self):
        rng = np.random.default_rng(11)
        spec = NetworkSpec(4, (Conv(conv1d_layout(4, 2, 1), 1, Sigmoid()),))
        X = rng.standard_normal((1, 4))
        params = independence_construction(spec, X, 1, ConstructionParams(seed=12))
        F = forward(spec, params, X, up_to=1).F[1]
        assert estimate_rank(F).estimated_rank == 1

    def test_two_layer_softplus_wide_at_second(self):
        rng = np.random.default_rng(13)
        spec = NetworkSpec(
            8,
            (
                Conv(conv1d_layout(8, 3, 1), 2, Softplus(10.0)),
                FullyConnected(18, Softplus(10.0)),
            ),
        )
        X = rng.standard_normal((16, 8))
        report = independence_construction_report(
            spec, X, 2, ConstructionParams(seed=14)
        )
        F = forward(spec, report.params, X, up_to=2).F[2]
        rank = estimate_rank(F)
        assert rank.estimated_rank == 16
        assert rank.sigma_min > 0.0

    def test_narrow_layer_rejected(self):
        rng = np.random.default_rng(15)
        spec = NetworkSpec(4, (Conv(conv1d_layout(4, 2, 1), 1, Sigmoid()),))
        X = rng.standard_normal((5, 4))  # n_1 = 3 < 5
        with pytest.raises(WidthError):
            independence_construction(spec, X, 1, ConstructionParams(seed=16))

    def test_unreachable_floor_exhausts_schedule(self, monkeypatch):
        rng = np.random.default_rng(17)
        spec = NetworkSpec(4, (Conv(conv1d_layout(4, 2, 1), 2, Sigmoid()),))
        X = rng.standard_normal((3, 4))
        monkeypatch.setattr(constructions, "ALPHA_SCHEDULE", (1.0, 2.0))
        monkeypatch.setattr(constructions, "SIGMA_MIN_FLOOR", 10.0)
        monkeypatch.setattr(constructions, "RESAMPLE_BUDGET", 2)
        with pytest.raises(ConstructionFailedError):
            independence_construction(spec, X, 1, ConstructionParams(seed=18))

    def test_negated_scaled_filters_lift_linearly(self):
        """The wide layer stores W = -alpha * Q; its lifted matrix must be
        -alpha times the lifted Q."""
        rng = np.random.default_rng(19)
        spec = NetworkSpec(5, (Conv(conv1d_layout(5, 3, 1), 2, Sigmoid()),))
        Q = rng.standard_normal((3, 2))
        alpha = 7.5
        np.testing.assert_allclose(
            lift_weights(spec, 1, -alpha * Q),
            -alpha * lift_weights(spec, 1, Q),
            rtol=1e-12,
        )

    def test_overflowing_scales_end_the_sweep(self):
        """At 1e303 the inner products are finite, but the largest scales
        of the schedule overflow the submatrix; the sweep stops at the
        first of them and builds from the smaller ones, with no warning."""
        X = 1e303 * np.random.default_rng(0).standard_normal((6, 8))
        spec = single_conv_network(8, 3, 2)
        report = independence_construction_report(spec, X, 1)
        assert report.alpha == 1.0 and report.submatrix_sigma_min >= 1e-10
        assert estimate_rank(forward(spec, report.params, X, up_to=1).F[1]).estimated_rank == 6

    def test_draws_whose_inner_products_overflow_are_drawn_again(self):
        """Near the largest float64, the first filter draw of seed 1 gives
        inner products of +-inf, which order no samples. The draw counts as
        colliding and is drawn again, so the ordering is a permutation and
        F_1 has rank N, with no warning."""
        X = 1.7e308 * (1 - 0.1 * np.random.default_rng(1).random((4, 8)))
        spec = single_conv_network(8, 3, 2)
        first = constructions._sample_filters(np.random.default_rng(1), spec.filter_shape(1))
        with np.errstate(over="ignore"):
            assert not np.isfinite(patch_products(spec.layer_layout(1), X, first)).all()
        report = independence_construction_report(spec, X, 1, ConstructionParams(seed=1))
        assert sorted(report.permutation) == [0, 1, 2, 3]
        assert estimate_rank(forward(spec, report.params, X, up_to=1).F[1]).estimated_rank == 4

    def test_twenty_seed_sweep_always_full_rank(self):
        rng = np.random.default_rng(20)
        spec = NetworkSpec(8, (Conv(conv1d_layout(8, 4, 1), 8, Sigmoid()),))
        for seed in range(20):
            X = rng.standard_normal((12, 8))
            params = independence_construction(
                spec, X, 1, ConstructionParams(seed=seed)
            )
            F = forward(spec, params, X, up_to=1).F[1]
            assert estimate_rank(F).estimated_rank == 12


class TestExpressivity:
    def scalar_net(self):
        return NetworkSpec(
            6, (Conv(conv1d_layout(6, 3, 1), 3, Sigmoid()), Output(1))
        )

    def test_zero_targets_give_zero_weights(self):
        rng = np.random.default_rng(21)
        spec = self.scalar_net()
        X = rng.standard_normal((5, 6))
        _, lam = expressivity_fit(spec, X, np.zeros(5), ConstructionParams(seed=22))
        np.testing.assert_allclose(lam, 0.0, atol=1e-12)

    def test_random_targets_fit_exactly(self):
        rng = np.random.default_rng(23)
        spec = self.scalar_net()
        X = rng.standard_normal((8, 6))
        y = rng.standard_normal(8)
        hidden, lam = expressivity_fit(spec, X, y, ConstructionParams(seed=24))
        out = forward(spec, expressivity_params(spec, hidden, lam), X).output[:, 0]
        assert np.all(np.abs(out - y) <= 1e-8 * (1.0 + np.abs(y)))

    def test_random_sign_labels_n32(self):
        rng = np.random.default_rng(25)
        spec = NetworkSpec(
            10, (Conv(conv1d_layout(10, 4, 1), 5, Sigmoid()), Output(1))
        )
        X = rng.standard_normal((32, 10))
        y = rng.choice([-1.0, 1.0], size=32)
        hidden, lam = expressivity_fit(spec, X, y, ConstructionParams(seed=26))
        out = forward(spec, expressivity_params(spec, hidden, lam), X).output[:, 0]
        assert np.all(np.abs(out - y) <= 1e-8 * (1.0 + np.abs(y)))

    def test_requires_scalar_output(self):
        spec = NetworkSpec(
            6, (Conv(conv1d_layout(6, 3, 1), 3, Sigmoid()), Output(2))
        )
        with pytest.raises(StructuralError):
            expressivity_fit(spec, np.zeros((4, 6)), np.zeros(4))

    def test_one_target_per_sample(self):
        with pytest.raises(StructuralError, match="^one target per sample required$"):
            expressivity_fit(self.scalar_net(), np.zeros((4, 6)), np.zeros(5))


class TestZeroLoss:
    @pytest.mark.parametrize("act", [Sigmoid(), Softplus(10.0)])
    @pytest.mark.parametrize("rows,cols", [(1, 1), (4, 6), (200, 300)])
    def test_template_entries_are_distinct_inside_the_range(self, act, rows, cols):
        """Consecutive entries differ by at least (hi - lo) / (2 rows cols),
        up to rounding, and all lie strictly inside the interval."""
        lo, hi = act.comfortable_range
        A = constructions._distinct_entry_matrix(np.random.default_rng(rows), rows,
                                                 cols, (lo, hi))
        values = np.sort(A.ravel())
        assert A.shape == (rows, cols)
        assert lo < values[0] and values[-1] < hi
        assert (np.diff(values) >= (1 - 1e-9) * (hi - lo) / (2 * values.size)).all()

    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_all_cases_reach_machine_zero(self, case):
        spec, dataset, k = zero_loss_demo_case(case, seed=30 + case)
        params = zero_loss_construction(
            spec, dataset, k, ConstructionParams(seed=30 + case)
        )
        trace = forward(spec, params, dataset.X)
        budget = 1e-16 * (1.0 + float(np.sum(dataset.Y**2)))
        assert loss(trace, dataset.Y) <= budget

    def test_class_rows_equal_embedding_rows(self):
        spec, dataset, k = zero_loss_demo_case(2, seed=34)
        params = zero_loss_construction(spec, dataset, k, ConstructionParams(seed=34))
        out = forward(spec, params, dataset.X).output
        for i, c in enumerate(dataset.labels):
            np.testing.assert_allclose(out[i], dataset.Z[c], atol=1e-10)

    def test_gradient_vanishes_at_constructed_point(self):
        spec, dataset, k = zero_loss_demo_case(3, seed=35)
        params = zero_loss_construction(spec, dataset, k, ConstructionParams(seed=35))
        trace = forward(spec, params, dataset.X)
        grads = backward(spec, params, trace, dataset.Y, start_layer=k + 1)
        assert float(np.linalg.norm(grads.grad_W[k + 1])) <= 1e-10

    def test_distinct_seeds_give_distinct_minima(self):
        spec, dataset, k = zero_loss_demo_case(2, seed=36)
        a = zero_loss_construction(spec, dataset, k, ConstructionParams(seed=1))
        b = zero_loss_construction(spec, dataset, k, ConstructionParams(seed=2))
        gap = 0.0
        for l in range(1, spec.depth + 1):
            gap += float(np.sum((a.weights[l] - b.weights[l]) ** 2))
        assert np.sqrt(gap) > 1e-3
        for params in (a, b):
            value = loss(forward(spec, params, dataset.X), dataset.Y)
            assert value <= 1e-14 * (1.0 + float(np.sum(dataset.Y**2)))

    def test_non_pyramidal_architecture_rejected(self):
        rng = np.random.default_rng(37)
        spec = NetworkSpec(
            6,
            (
                FullyConnected(10, Sigmoid()),
                FullyConnected(3, Sigmoid()),
                FullyConnected(5, Sigmoid()),
                Output(2),
            ),
        )
        Z = np.eye(2)
        labels = (0, 1, 0, 1)
        dataset = Dataset(rng.standard_normal((4, 6)), Z[list(labels)], labels, Z)
        with pytest.raises(AssumptionError):
            zero_loss_construction(spec, dataset, 1, ConstructionParams(seed=38))

    def test_missing_embedding_rejected(self):
        spec, dataset, k = zero_loss_demo_case(1, seed=39)
        stripped = Dataset(dataset.X, dataset.Y)
        with pytest.raises(StructuralError):
            zero_loss_construction(spec, stripped, k, ConstructionParams(seed=39))

    def test_output_width_must_match_the_targets(self):
        spec, dataset, k = zero_loss_demo_case(1, seed=39)
        spec = NetworkSpec(spec.input_width, spec.layers[:-1] + (Output(3),))
        with pytest.raises(StructuralError,
                           match="^output width 3 does not match 2 target columns$"):
            zero_loss_construction(spec, dataset, k)

    def test_layer_above_the_wide_layer_must_be_dense(self):
        spec = NetworkSpec(10, (FullyConnected(12, Sigmoid()),
                                Conv(conv1d_layout(12, 3, 3), 1, Sigmoid()), Output(2)))
        dataset = synthesize_dataset(8, 10, 2, seed=5)
        with pytest.raises(AssumptionError, match="^layer 2 must be fully connected "
                                                  "for the zero-loss construction$"):
            zero_loss_construction(spec, dataset, 1)

    def test_softplus_hidden_activations(self):
        """The class-collapse route applies the softplus inverse, which
        must stay stable on its whole target interval."""
        spec = NetworkSpec(
            10,
            (
                FullyConnected(12, Softplus(4.0)),
                FullyConnected(6, Softplus(4.0)),
                Output(2),
            ),
        )
        dataset = synthesize_dataset(8, 10, 2, seed=5)
        params = zero_loss_construction(spec, dataset, 1, ConstructionParams(seed=5))
        value = loss(forward(spec, params, dataset.X), dataset.Y)
        assert value <= 1e-16 * (1.0 + float(np.sum(dataset.Y**2)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_softplus_layers_in_every_regime(self, case, seed):
        """Regime 3 draws its class template from the softplus comfortable
        range; regime 2 routes classes through softplus images."""
        spec, dataset, k = zero_loss_demo_case(case, seed=seed)
        spec = NetworkSpec(spec.input_width, tuple(
            layer if isinstance(layer, Output) else replace(layer, activation=Softplus(4.0))
            for layer in spec.layers))
        params = zero_loss_construction(spec, dataset, k, ConstructionParams(seed=seed))
        trace = forward(spec, params, dataset.X)
        assert loss(trace, dataset.Y) <= 1e-16 * (1.0 + float(np.sum(dataset.Y**2)))
        assert s_k_membership(spec, params, trace, k).in_good_set


class TestPoolingBelowWideLayer:
    def test_independence_through_max_pooling(self):
        rng = np.random.default_rng(2)
        spec = NetworkSpec(
            8,
            (
                Conv(conv1d_layout(8, 3, 1), 3, Sigmoid()),
                MaxPool(conv1d_layout(18, 2, 2)),
                FullyConnected(12, Sigmoid()),
            ),
        )
        X = rng.standard_normal((10, 8))
        params = independence_construction(spec, X, 3, ConstructionParams(seed=2))
        F = forward(spec, params, X, up_to=3).F[3]
        assert estimate_rank(F).estimated_rank == 10
        assert params.weights[2] is None  # pooling owns no parameters
