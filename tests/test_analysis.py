"""Rank estimation, sandwich bounds, membership, and the width audit."""

import numpy as np
import pytest

from widecnn import (
    ConstructionParams,
    FullyConnected,
    NetworkSpec,
    Output,
    Params,
    Sigmoid,
    StructuralError,
    critical_point_check,
    estimate_rank,
    forward,
    gradient_bounds,
    s_k_membership,
    width_audit,
    zero_loss_construction,
)
from widecnn.architectures import mnist_conv_pool_network
from widecnn.experiments import SCHEMAS, random_landscape_case, zero_loss_demo_case

from oracles import elimination_rank, planted_rank_matrix


class TestEstimateRank:
    def test_zero_matrix(self):
        report = estimate_rank(np.zeros((4, 6)))
        assert report.estimated_rank == 0
        assert report.sigma_max == 0.0
        assert report.threshold == 0.0

    def test_identity(self):
        report = estimate_rank(np.eye(5))
        assert report.estimated_rank == 5
        assert report.sigma_min == report.sigma_max == 1.0

    def test_threshold_formula(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((7, 3))
        report = estimate_rank(A)
        eps = np.finfo(np.float64).eps
        expected = 0.5 * np.sqrt(7 + 3 + 1) * report.sigma_max * eps
        assert report.threshold == pytest.approx(expected, rel=0)
        assert report.machine_eps == eps

    def test_low_rank_product_matches_elimination(self):
        rng = np.random.default_rng(1)
        A = planted_rank_matrix(rng, 8, 5, 3)
        report = estimate_rank(A)
        assert report.estimated_rank == 3
        assert elimination_rank(A) == 3

    def test_planted_ranks_agree_with_elimination(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            m = int(rng.integers(1, 13))
            n = int(rng.integers(1, 13))
            r = int(rng.integers(0, min(m, n) + 1))
            A = planted_rank_matrix(rng, m, n, r)
            assert estimate_rank(A).estimated_rank == r == elimination_rank(A)

    def test_rank_invariant_under_row_permutation_and_rotation(self):
        rng = np.random.default_rng(3)
        A = planted_rank_matrix(rng, 6, 9, 4)
        base = estimate_rank(A).estimated_rank
        perm = rng.permutation(6)
        assert estimate_rank(A[perm]).estimated_rank == base
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        assert estimate_rank(Q @ A).estimated_rank == base

    def test_rejects_non_finite(self):
        with pytest.raises(StructuralError):
            estimate_rank(np.array([[np.inf, 1.0]]))


class TestGradientBounds:
    def test_sandwich_on_random_cases(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            spec, k, X, Y, params = random_landscape_case(rng)
            trace = forward(spec, params, X)
            report = gradient_bounds(spec, params, trace, Y, k)
            slack = 1e-8 * max(1.0, report.upper)
            assert report.lower - slack <= report.grad_norm <= report.upper + slack

    def test_zero_residual_collapses_both_bounds(self):
        spec, dataset, k = zero_loss_demo_case(1, seed=2)
        params = zero_loss_construction(spec, dataset, k, ConstructionParams(seed=2))
        trace = forward(spec, params, dataset.X)
        report = gradient_bounds(spec, params, trace, dataset.Y, k)
        assert report.lower <= 1e-10 and report.upper <= 1e-10
        assert report.grad_norm <= 1e-10

    def test_rank_deficient_downstream_matrix_zeroes_lower_bound(self):
        rng = np.random.default_rng(11)
        spec = NetworkSpec(
            4,
            (
                FullyConnected(6, Sigmoid()),
                FullyConnected(4, Sigmoid()),
                FullyConnected(3, Sigmoid()),
                Output(2),
            ),
        )
        params = Params.gaussian(spec, rng)
        W3 = params.weights[3].copy()
        W3[:, 1] = W3[:, 0]  # duplicated column: sigma_min(U_3) = 0
        params = params.with_layer(3, W3, params.biases[3])
        X = rng.standard_normal((4, 4))
        Y = rng.standard_normal((4, 2))
        trace = forward(spec, params, X)
        report = gradient_bounds(spec, params, trace, Y, 1)
        assert report.lower <= 1e-12
        assert report.grad_norm <= report.upper + 1e-8 * report.upper

    def test_csv_row_matches_columns(self):
        rng = np.random.default_rng(12)
        spec, k, X, Y, params = random_landscape_case(rng)
        report = gradient_bounds(spec, params, forward(spec, params, X), Y, k)
        assert len(report.csv_row()) == len(SCHEMAS["grad-bounds.v1"][1:])

    def test_convolutional_layer_above_the_wide_layer(self):
        """The bounds use lifted matrices, so shared-weight layers between
        the wide layer and the output are covered too."""
        from widecnn import Conv, Softplus
        from widecnn.layout import conv1d_layout

        rng = np.random.default_rng(17)
        spec = NetworkSpec(
            5,
            (
                FullyConnected(10, Sigmoid()),
                Conv(conv1d_layout(10, 4, 3), 2, Softplus(3.0)),
                Output(2),
            ),
        )
        params = Params.gaussian(spec, rng)
        X = rng.standard_normal((4, 5))
        Y = rng.standard_normal((4, 2))
        report = gradient_bounds(spec, params, forward(spec, params, X), Y, 1)
        slack = 1e-8 * max(1.0, report.upper)
        assert report.lower - slack <= report.grad_norm <= report.upper + slack


class TestMembership:
    def test_constructed_point_is_inside(self):
        spec, dataset, k = zero_loss_demo_case(3, seed=4)
        params = zero_loss_construction(spec, dataset, k, ConstructionParams(seed=4))
        trace = forward(spec, params, dataset.X)
        assert s_k_membership(spec, params, trace, k).in_good_set

    def test_zero_downstream_weights_are_outside(self):
        rng = np.random.default_rng(13)
        spec = NetworkSpec(
            3,
            (
                FullyConnected(6, Sigmoid()),
                FullyConnected(4, Sigmoid()),
                FullyConnected(3, Sigmoid()),
                Output(2),
            ),
        )
        params = Params.gaussian(spec, rng)
        params = params.with_layer(3, np.zeros((4, 3)), params.biases[3])
        trace = forward(spec, params, rng.standard_normal((4, 3)))
        report = s_k_membership(spec, params, trace, 1)
        assert not report.in_good_set
        assert report.detail[1].estimated_rank == 0  # detail = (F_1, U_3, U_4)

    def test_random_analytic_points_are_inside_with_high_probability(self):
        """Random Gaussian parameters land in the full-rank set essentially
        always when n_k >= N and the data has distinct patches."""
        rng = np.random.default_rng(14)
        spec = NetworkSpec(
            5,
            (
                FullyConnected(10, Sigmoid()),
                FullyConnected(5, Sigmoid()),
                Output(2),
            ),
        )
        X = rng.standard_normal((8, 5))
        hits = 0
        for _ in range(100):
            params = Params.gaussian(spec, rng)
            trace = forward(spec, params, X)
            hits += s_k_membership(spec, params, trace, 1).in_good_set
        assert hits >= 99


class TestCriticalPoint:
    def test_constructed_zero_loss_point(self):
        spec, dataset, k = zero_loss_demo_case(2, seed=5)
        params = zero_loss_construction(spec, dataset, k, ConstructionParams(seed=5))
        report = critical_point_check(spec, params, dataset, k)
        assert report.applicable
        assert report.loss <= 1e-12
        assert report.grad_norm <= report.grad_tolerance
        assert report.equivalence_holds

    def test_random_points_have_positive_gradient(self):
        rng = np.random.default_rng(15)
        checked = 0
        while checked < 20:
            spec, k, X, Y, params = random_landscape_case(rng, residual_floor=0.1)
            Z = np.eye(Y.shape[1])
            from widecnn import Dataset

            labels = tuple(int(v) for v in rng.integers(0, Y.shape[1], Y.shape[0]))
            dataset = Dataset(X, Z[list(labels)], labels, Z)
            report = critical_point_check(spec, params, dataset, k)
            if not report.applicable:
                continue
            checked += 1
            if report.loss > report.grad_tolerance:
                assert report.grad_norm > 0.0
                assert report.equivalence_holds

    def test_point_outside_set_not_applicable(self):
        rng = np.random.default_rng(16)
        spec = NetworkSpec(
            3,
            (
                FullyConnected(6, Sigmoid()),
                FullyConnected(4, Sigmoid()),
                FullyConnected(3, Sigmoid()),
                Output(2),
            ),
        )
        params = Params.gaussian(spec, rng)
        params = params.with_layer(3, np.zeros((4, 3)), params.biases[3])
        from widecnn import Dataset

        Z = np.eye(2)
        labels = (0, 1, 0, 1)
        dataset = Dataset(rng.standard_normal((4, 3)), Z[list(labels)], labels, Z)
        report = critical_point_check(spec, params, dataset, 1)
        assert not report.applicable


class TestWidthAudit:
    def test_reference_architecture_widths(self):
        spec = mnist_conv_pool_network(first_filters=100)
        assert spec.widths == (784, 67600, 16900, 2880, 720, 100, 10)
        audit = width_audit(spec, 60000)
        assert audit.max_width == 67600
        assert audit.arg_layer == 1
        assert audit.wide_enough
        assert audit.pyramidal_from == 1

    def test_first_layer_width_arithmetic(self):
        # 26*26 positions per filter: n_1 = 676 * T_1
        assert mnist_conv_pool_network(first_filters=89).widths[1] == 60164
        assert mnist_conv_pool_network(first_filters=10).widths[1] == 6760

    def test_single_layer_short_of_n(self):
        spec = NetworkSpec(4, (FullyConnected(7, Sigmoid()), Output(2)))
        audit = width_audit(spec, 8)
        assert not audit.wide_enough
        assert audit.max_width == 7
