"""Rank estimation, sandwich bounds, membership, and the width audit."""

import tracemalloc

import numpy as np
import pytest

from widecnn import analysis
from widecnn import (
    ConstructionParams,
    FullyConnected,
    NetworkSpec,
    NumericError,
    Output,
    Params,
    Sigmoid,
    StructuralError,
    backward,
    critical_point_check,
    estimate_rank,
    forward,
    gradient_bounds,
    lift_adjoint,
    lift_weights,
    s_k_membership,
    width_audit,
    zero_loss_construction,
)
from widecnn.architectures import mnist_conv_pool_network
from widecnn.experiments import random_landscape_case, zero_loss_demo_case

from oracles import elimination_rank, lifted_backward, planted_rank_matrix


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

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (4,)])
    def test_rejects_empty_and_non_matrices(self, shape):
        with pytest.raises(StructuralError) as caught:
            estimate_rank(np.zeros(shape))
        assert str(caught.value) == f"expected a non-empty matrix, got shape {shape}"

    def test_rejects_non_finite(self):
        with pytest.raises(StructuralError):
            estimate_rank(np.array([[np.inf, 1.0]]))


# |sigma_blocked - sigma_lapack| <= SIGMA_TOL * sigma_max above RANK_TILE;
# the reference net's F_1 (32 x 67 600) reads at most 2.4e-15 on seeds 0-39
SIGMA_TOL = 1e-13


def _direct_report(A):
    """The report of one LAPACK SVD, as below the tile."""
    sv = np.linalg.svd(A, compute_uv=False)
    m, n = A.shape
    eps = float(np.finfo(np.float64).eps)
    threshold = 0.5 * np.sqrt(m + n + 1.0) * float(sv[0]) * eps
    return analysis.RankReport(m, n, int(np.sum(sv > threshold)), float(sv[-1]),
                               float(sv[0]), float(threshold), eps)


class _Counting:
    """A numpy function that counts its calls: qr tells the Householder
    blocks from the direct call, cholesky tells CholeskyQR2 from both, svd
    counts decompositions."""

    def __init__(self, fn):
        self.calls = 0
        self._fn = fn

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._fn(*args, **kwargs)


@pytest.fixture
def qr_calls(monkeypatch):
    counter = _Counting(np.linalg.qr)
    monkeypatch.setattr(np.linalg, "qr", counter)
    return counter


@pytest.fixture
def cholesky_calls(monkeypatch):
    counter = _Counting(np.linalg.cholesky)
    monkeypatch.setattr(np.linalg, "cholesky", counter)
    return counter


@pytest.fixture
def svd_calls(monkeypatch):
    counter = _Counting(np.linalg.svd)
    monkeypatch.setattr(np.linalg, "svd", counter)
    return counter


def _assert_close_to_lapack(A):
    sv = analysis._singular_values(A)
    expected = np.linalg.svd(A, compute_uv=False)
    assert sv.shape == expected.shape
    assert np.all(np.abs(sv - expected) <= SIGMA_TOL * expected[0])


def _with_spectrum(rng, long, spectrum):
    """A long x len(spectrum) matrix with exactly these singular values."""
    U, _ = np.linalg.qr(rng.standard_normal((long, len(spectrum))))
    V, _ = np.linalg.qr(rng.standard_normal((len(spectrum), len(spectrum))))
    return (U * spectrum) @ V.T


def _guard_kappa(long, short):
    """The largest estimated condition number CholeskyQR2's guard takes."""
    u = np.finfo(np.float64).eps / 2
    return 1 / (16 * np.sqrt(u * (long * short + short * (short + 1))))


def _householder_values(monkeypatch, A):
    """The singular values with CholeskyQR2 turned off: the Householder
    blocks alone."""
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_cholesky_qr2", lambda short_fat, width: None)
        return analysis._singular_values(A)


class TestBlockedSingularValues:
    """Above ``RANK_TILE`` entries the singular values come from row blocks
    of the tall orientation: by CholeskyQR2 where its guard holds, else
    from stacked Householder R factors. The tile is patched small here, as
    ``TestTiledDistinctPatches`` patches ``DISTINCT_TILE``."""

    def test_planted_ranks_in_both_orientations(self, monkeypatch, qr_calls,
                                                cholesky_calls):
        rng = np.random.default_rng(20)
        for _ in range(150):
            short = int(rng.integers(1, 7))
            tile = int(rng.integers(2 * short * short, 4 * short * short + 8))
            long = int(rng.integers(tile // short + 1, 6 * tile // short + 2))
            r = int(rng.integers(0, short + 1))
            tall = planted_rank_matrix(rng, long, short, r)
            monkeypatch.setattr(analysis, "RANK_TILE", tile)
            for A in (tall, np.ascontiguousarray(tall.T)):
                before, cholesky_before = qr_calls.calls, cholesky_calls.calls
                report = estimate_rank(A)
                assert cholesky_calls.calls > cholesky_before
                # the guard takes every full-rank draw and no deficient one
                assert (qr_calls.calls == before) == (r == short)
                assert report.estimated_rank == r == elimination_rank(tall)
                assert (report.rows, report.cols) == A.shape
                _assert_close_to_lapack(A)

    def test_near_deficient_matrices(self, monkeypatch):
        # singular values far above and far below the threshold, which is
        # about 3e-15 * sigma_max at this shape
        rng = np.random.default_rng(21)
        monkeypatch.setattr(analysis, "RANK_TILE", 200)
        for spectrum, rank in (
            ([1.0, 1e-3, 1e-8, 1e-12, 1e-19], 4),
            ([5.0, 5.0, 1e-11, 1e-18, 0.0], 3),
            ([1.0, 1e-13, 1e-13, 1e-20, 1e-20], 3),
        ):
            U, _ = np.linalg.qr(rng.standard_normal((400, 5)))
            V, _ = np.linalg.qr(rng.standard_normal((5, 5)))
            A = (U * spectrum) @ V.T
            for B in (A, A.T):
                assert estimate_rank(B).estimated_rank == rank
                assert _direct_report(B).estimated_rank == rank
                _assert_close_to_lapack(B)

    def test_near_square_matrix_above_the_tile_takes_the_direct_call(
            self, monkeypatch, qr_calls):
        # a block of 64 // 10 = 6 rows could not halve 12 rows of width 10
        monkeypatch.setattr(analysis, "RANK_TILE", 64)
        A = np.random.default_rng(22).standard_normal((12, 10))
        assert estimate_rank(A) == _direct_report(A)
        assert qr_calls.calls == 0

    def test_blocks_of_exactly_twice_the_short_side(self, monkeypatch, qr_calls):
        monkeypatch.setattr(analysis, "RANK_TILE", 32)  # short 4, block 8
        # kappa 1e7, past the guard's 9.4e4 at this shape: Householder blocks
        A = _with_spectrum(np.random.default_rng(23), 1001, [1.0, 0.5, 1e-3, 1e-7]).T
        qr_calls.calls = 0  # building A took two
        assert estimate_rank(A).estimated_rank == 4
        assert qr_calls.calls > 1001 // 8
        _assert_close_to_lapack(A)

    def test_last_block_shorter_than_the_short_side(self, monkeypatch):
        monkeypatch.setattr(analysis, "RANK_TILE", 50)  # short 5, block 10
        rng = np.random.default_rng(24)
        for long in (61, 63, 64, 94):  # last blocks of 1, 3, 4 and 4 rows
            A = planted_rank_matrix(rng, long, 5, 5)
            A[-1] *= 1e6  # the short last block carries the largest row
            assert estimate_rank(A).estimated_rank == 5
            assert estimate_rank(A.T).estimated_rank == 5
            _assert_close_to_lapack(A)

    def test_zero_matrix(self, monkeypatch):
        monkeypatch.setattr(analysis, "RANK_TILE", 50)
        report = estimate_rank(np.zeros((3, 500)))
        assert report.estimated_rank == 0
        assert report.sigma_max == report.sigma_min == report.threshold == 0.0

    def test_transposed_strided_and_read_only_inputs(self, monkeypatch):
        monkeypatch.setattr(analysis, "RANK_TILE", 100)
        base = np.random.default_rng(25).standard_normal((7, 1200))
        sealed = base.copy()
        sealed.setflags(write=False)
        kept = sealed.copy()
        for A in (base.T, base[:, ::2], base[::-1, 1::3].T, sealed, sealed.T):
            expected = estimate_rank(np.ascontiguousarray(A))
            assert estimate_rank(A) == expected
            assert expected.estimated_rank == 7
        np.testing.assert_array_equal(sealed, kept)

    def test_exactly_one_tile_keeps_the_lapack_bits(self, qr_calls):
        assert 256 * 896 < analysis.RANK_TILE  # the desk sweep's widest F_1
        A = np.random.default_rng(26).uniform(size=(32, analysis.RANK_TILE // 32))
        assert A.size == analysis.RANK_TILE
        assert estimate_rank(A) == _direct_report(A)
        assert qr_calls.calls == 0

    def test_short_fat_matrix_at_the_real_tile(self, qr_calls, cholesky_calls):
        A = np.random.default_rng(27).standard_normal((16, 20_000))
        assert A.size > analysis.RANK_TILE
        report = estimate_rank(A)
        assert (qr_calls.calls, cholesky_calls.calls) == (0, 2)  # CholeskyQR2
        assert report.estimated_rank == 16
        _assert_close_to_lapack(A)
        direct = _direct_report(A)
        assert (report.rows, report.cols) == (16, 20_000)
        assert abs(report.threshold - direct.threshold) <= SIGMA_TOL * direct.threshold

    def test_wide_feature_matrix_is_never_copied_whole(self):
        A = np.random.default_rng(28).uniform(size=(32, 67_600))
        estimate_rank(A[:, :1000])  # warm numpy's linalg module
        tracemalloc.start()
        try:
            report = estimate_rank(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.estimated_rank == 32
        # the isfinite mask (A.size bytes) or one block's copy (2 MiB)
        assert peak <= A.nbytes // 4

    def test_finiteness_is_proved_without_a_mask(self):
        """A sum, not an A.size boolean mask, shows A finite, so above about
        2 MiB of entries one QR block's copy is the largest allocation."""
        A = np.random.default_rng(29).uniform(size=(32, 1 << 17))
        estimate_rank(A[:, :1000])  # warm numpy's linalg module
        tracemalloc.start()
        try:
            report = estimate_rank(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.estimated_rank == 32
        assert peak < A.size  # the mask alone took A.size bytes
        A[5, 70_000] = np.nan
        with pytest.raises(StructuralError):
            estimate_rank(A)


class TestCholeskyQR2:
    """The first path above the tile, and both sides of its guard. Each
    input's path is pinned by counting QR and Cholesky calls: CholeskyQR2
    makes two Choleskys and no QR, and an input it refuses gets the
    Householder blocks' bits exactly."""

    def test_close_to_lapack_in_every_layout(self, monkeypatch, qr_calls, cholesky_calls):
        monkeypatch.setattr(analysis, "RANK_TILE", 60)  # short 5, block 12
        base = np.random.default_rng(30).standard_normal((5, 2002))
        sealed = base[:, :1000].copy()  # a last block of 1000 % 12 = 4 rows
        sealed.setflags(write=False)
        for A in (base, base.T, np.ascontiguousarray(base.T), base[:, ::2],
                  base[::-1, 1::3].T, sealed, sealed.T):
            report = estimate_rank(A)
            assert (qr_calls.calls, cholesky_calls.calls) == (0, 2)
            assert report.estimated_rank == 5 == elimination_rank(A)
            _assert_close_to_lapack(A)
            # a view and a copy into the block buffer give the same bits
            np.testing.assert_array_equal(analysis._singular_values(A),
                                          analysis._singular_values(A.copy(order="F")))
            qr_calls.calls = cholesky_calls.calls = 0

    @pytest.mark.parametrize("factor, cholesky_path", [(0.95, True), (1.05, False)])
    def test_either_side_of_the_guard(self, monkeypatch, qr_calls, cholesky_calls,
                                      factor, cholesky_path):
        monkeypatch.setattr(analysis, "RANK_TILE", 64)  # short 4, block 16
        kappa = factor * _guard_kappa(1000, 4)
        A = _with_spectrum(np.random.default_rng(31), 1000, [1.0, 0.3, 0.01, 1 / kappa])
        for B in (A, A.T):
            qr_calls.calls = cholesky_calls.calls = 0
            assert estimate_rank(B).estimated_rank == 4
            if cholesky_path:
                assert (qr_calls.calls, cholesky_calls.calls) == (0, 2)
            else:
                assert qr_calls.calls > 0 and cholesky_calls.calls == 1
                np.testing.assert_array_equal(analysis._singular_values(B),
                                              _householder_values(monkeypatch, B))
            _assert_close_to_lapack(B)

    def test_planted_deficient_rank_takes_the_householder_blocks(
            self, monkeypatch, qr_calls):
        monkeypatch.setattr(analysis, "RANK_TILE", 64)
        rng = np.random.default_rng(32)
        for r in (0, 1, 3):
            A = planted_rank_matrix(rng, 4, 900, r)
            qr_calls.calls = 0
            assert estimate_rank(A).estimated_rank == r == elimination_rank(A)
            assert qr_calls.calls > 0
            np.testing.assert_array_equal(analysis._singular_values(A),
                                          _householder_values(monkeypatch, A))

    @pytest.mark.parametrize("scale, choleskys", [
        pytest.param(1e160, 0, id="gram-overflows"),
        pytest.param(1e-160, 1, id="gram-subnormal"),
        pytest.param(1e-170, 1, id="gram-underflows-to-zero"),
    ])
    def test_extreme_scales_keep_their_precision(self, monkeypatch, qr_calls,
                                                 cholesky_calls, scale, choleskys):
        # a Gram that overflows is not finite, a zero one fails Cholesky, and
        # a subnormal one is below the guard's smallest normal norm
        monkeypatch.setattr(analysis, "RANK_TILE", 60)
        rng = np.random.default_rng(33)
        for A in (scale * rng.standard_normal((5, 1000)),
                  scale * rng.standard_normal((1, 1000))):
            qr_calls.calls = cholesky_calls.calls = 0
            report = estimate_rank(A)
            assert qr_calls.calls > 0 and cholesky_calls.calls == choleskys
            assert report.estimated_rank == A.shape[0]
            _assert_close_to_lapack(A)
            np.testing.assert_array_equal(analysis._singular_values(A),
                                          _householder_values(monkeypatch, A))

    def test_deficient_rank_at_subnormal_gram_scales(self, monkeypatch, qr_calls):
        """A Gram of subnormal entries has lost the digits that show a
        deficient rank: without the guard's smallest-normal bound, some of
        these rank-4 draws read as rank 5."""
        monkeypatch.setattr(analysis, "RANK_TILE", 60)
        rng = np.random.default_rng(37)
        for scale in 10 * (1e-160, 1e-161):
            A = scale * planted_rank_matrix(rng, 5, 1000, 4)
            qr_calls.calls = 0
            assert estimate_rank(A).estimated_rank == 4
            assert qr_calls.calls > 0

    def test_cholesky_failure_falls_back_silently(self, monkeypatch, qr_calls):
        monkeypatch.setattr(analysis, "RANK_TILE", 60)
        A = np.random.default_rng(34).standard_normal((5, 1000))
        expected = _householder_values(monkeypatch, A)

        def failing(G):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        np.testing.assert_array_equal(analysis._singular_values(A), expected)
        assert qr_calls.calls > 0

    def test_final_svd_failure_is_a_numeric_error(self, monkeypatch, qr_calls):
        monkeypatch.setattr(analysis, "RANK_TILE", 60)
        A = np.random.default_rng(35).standard_normal((5, 1000))
        svd = np.linalg.svd
        calls = []

        def failing_second(M, **kwargs):  # the guard's SVD of L1, then R's
            calls.append(M.shape)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(M, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing_second)
        with pytest.raises(NumericError, match="SVD failed to converge"):
            estimate_rank(A)
        assert calls == [(5, 5), (5, 5)] and qr_calls.calls == 0

    def test_copied_blocks_hold_one_block_and_one_q_buffer(self, qr_calls):
        """A tall C-contiguous matrix has no contiguous rows in the short-fat
        orientation, so each block is copied into one reused buffer."""
        A = np.random.default_rng(36).uniform(size=(67_600, 32))
        estimate_rank(A[:1000])  # warm numpy's linalg module
        tracemalloc.start()
        try:
            report = estimate_rank(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.estimated_rank == 32 and qr_calls.calls == 0
        block_bytes = analysis.RANK_TILE * 8
        assert 2 * block_bytes <= peak <= 2 * block_bytes + 64 * 1024


@pytest.fixture
def finiteness_scans(monkeypatch):
    counter = _Counting(analysis._all_finite)
    monkeypatch.setattr(analysis, "_all_finite", counter)
    return counter


class TestFinitenessFromTheGram:
    """Short-fat matrices above the tile whose blocks hold twice the short
    side: a matrix CholeskyQR2 accepts is proved finite by its Gram and is
    never scanned; a non-finite one makes the Gram non-finite, so the scan
    raises before any Householder block runs."""

    SHAPES = ((60, (5, 1000)), (analysis.RANK_TILE, (16, 20_000)))

    @pytest.mark.parametrize("tile, shape", SHAPES)
    def test_accepted_matrix_is_not_scanned(self, monkeypatch, qr_calls, cholesky_calls,
                                            finiteness_scans, tile, shape):
        monkeypatch.setattr(analysis, "RANK_TILE", tile)
        A = np.random.default_rng(38).standard_normal(shape)
        assert A.size > tile and 2 * shape[0] ** 2 <= tile
        for B in (A, A.T):
            qr_calls.calls = cholesky_calls.calls = 0
            assert estimate_rank(B).estimated_rank == shape[0]
            assert (qr_calls.calls, cholesky_calls.calls, finiteness_scans.calls) == (0, 2, 0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("tile, shape", SHAPES)
    def test_non_finite_entry_is_refused_before_the_householder_blocks(
            self, monkeypatch, qr_calls, cholesky_calls, finiteness_scans, tile, shape, value):
        monkeypatch.setattr(analysis, "RANK_TILE", tile)
        A = np.random.default_rng(39).standard_normal(shape)
        A[shape[0] // 2, shape[1] - 3] = value
        for B in (A, A.T):
            finiteness_scans.calls = 0
            with pytest.raises(StructuralError) as caught:
                estimate_rank(B)
            assert str(caught.value) == "matrix contains non-finite entries"
            assert finiteness_scans.calls == 1
        assert (qr_calls.calls, cholesky_calls.calls) == (0, 0)

    @pytest.mark.parametrize("r", [5, 3])
    def test_finite_matrix_whose_gram_overflows(self, monkeypatch, qr_calls, cholesky_calls,
                                                finiteness_scans, r):
        """Entries near 1e200 square past the float64 range, so the Gram
        is not finite; the scan finds the matrix finite and the Householder
        blocks give its rank."""
        monkeypatch.setattr(analysis, "RANK_TILE", 60)
        A = 1e200 * planted_rank_matrix(np.random.default_rng(40), 5, 1000, r)
        for B in (A, A.T):
            qr_calls.calls = finiteness_scans.calls = 0
            assert estimate_rank(B).estimated_rank == r == elimination_rank(B)
            assert qr_calls.calls > 0 and finiteness_scans.calls == 1
            np.testing.assert_array_equal(analysis._singular_values(B),
                                          _householder_values(monkeypatch, B))
        assert cholesky_calls.calls == 0


def _sv(A):
    return np.linalg.svd(A, compute_uv=False)


class TestGradientBounds:
    def test_sandwich_on_random_cases(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            spec, k, X, Y, params = random_landscape_case(rng)
            trace = forward(spec, params, X)
            report = gradient_bounds(spec, params, trace, Y, k)
            slack = 1e-8 * max(1.0, report.upper)
            assert report.lower - slack <= report.grad_norm <= report.upper + slack
            # the same bits as direct SVDs of F_k and of each lifted U
            sv_f = _sv(trace.F[k])
            lower, upper = 1.0, 1.0
            for l, factor in zip(range(k + 1, spec.depth), report.factors, strict=True):
                sv = _sv(lift_weights(spec, l + 1, params.weights[l + 1]))
                assert factor[:2] == (float(sv[-1]), float(sv[0]))
                lower *= factor[0] * factor[2]
                upper *= factor[1] * factor[3]
            residual = float(np.linalg.norm(trace.output - Y))
            assert report.lower == float(sv_f[-1]) * lower * residual
            assert report.upper == float(sv_f[0]) * upper * residual

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
        trace = forward(spec, params, X)
        report = gradient_bounds(spec, params, trace, Y, 1)
        slack = 1e-8 * max(1.0, report.upper)
        assert report.lower - slack <= report.grad_norm <= report.upper + slack
        # grad_norm is the norm of the gradient with respect to the lifted
        # U_2, F_1^T D_2, and that pulls back to backward's filter gradient
        deltas = lifted_backward(spec, params, trace, Y, start_layer=2).deltas
        lifted = trace.F[1].T @ deltas[2]
        np.testing.assert_allclose(report.grad_norm, np.linalg.norm(lifted), rtol=1e-12)
        np.testing.assert_allclose(lift_adjoint(spec, 2, lifted),
                                   backward(spec, params, trace, Y, 2).grad_W[2],
                                   rtol=1e-12, atol=1e-14)

    def test_dense_layer_above_the_wide_layer(self):
        """A dense U_{k+1} is W_{k+1}, so grad_norm, which reads backward's
        filter gradient there, is the norm of the lifted F_k^T D_{k+1}."""
        rng = np.random.default_rng(19)
        for _ in range(20):
            spec, k, X, Y, params = random_landscape_case(rng)
            trace = forward(spec, params, X)
            report = gradient_bounds(spec, params, trace, Y, k)
            deltas = lifted_backward(spec, params, trace, Y, start_layer=k + 1).deltas
            np.testing.assert_allclose(report.grad_norm,
                                       np.linalg.norm(trace.F[k].T @ deltas[k + 1]),
                                       rtol=1e-12)


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
        assert report.detail == (
            estimate_rank(trace.F[1]),
            *(estimate_rank(lift_weights(spec, l, params.weights[l])) for l in (3, 4)),
        )

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
    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_each_matrix_is_decomposed_once(self, case, svd_calls):
        # F_k and U_{k+2}..U_L: 1, 2 and 3 matrices in cases 1-3
        spec, dataset, k = zero_loss_demo_case(case, seed=2)
        params = zero_loss_construction(spec, dataset, k, ConstructionParams(seed=2))
        before = svd_calls.calls
        assert critical_point_check(spec, params, dataset, k).applicable
        assert svd_calls.calls - before == case

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


def _probe_net():
    """Depth 4 with the wide layer at 1, a trace of 4 samples and targets."""
    rng = np.random.default_rng(18)
    spec = NetworkSpec(3, (FullyConnected(6, Sigmoid()), FullyConnected(4, Sigmoid()),
                           FullyConnected(3, Sigmoid()), Output(2)))
    params = Params.gaussian(spec, rng)
    X = rng.standard_normal((4, 3))
    return spec, params, X, rng.standard_normal((4, 2))


def _bounds_on_trace_to_wide_layer(spec, params, X, Y):
    return gradient_bounds(spec, params, forward(spec, params, X, up_to=1), Y, 1)


def _bounds_with_a_row_short(spec, params, X, Y):
    return gradient_bounds(spec, params, forward(spec, params, X), Y[:-1], 1)


def _membership_at(wide_layer, up_to=None):
    def probe(spec, params, X, Y):
        trace = forward(spec, params, X, up_to=up_to)
        return s_k_membership(spec, params, trace, wide_layer)
    return probe


class TestProbeInputs:
    @pytest.mark.parametrize("probe, message", [
        pytest.param(_bounds_on_trace_to_wide_layer,
                     "trace does not cover the full network", id="bounds-short-trace"),
        pytest.param(_bounds_with_a_row_short,
                     r"output \(4, 2\) vs targets \(3, 2\)", id="bounds-short-Y"),
        pytest.param(_membership_at(-1), r"wide layer -1 outside \[1, 3\]",
                     id="membership-layer-minus-1"),
        pytest.param(_membership_at(0), r"wide layer 0 outside \[1, 3\]",
                     id="membership-layer-0"),
        pytest.param(_membership_at(5), r"wide layer 5 outside \[1, 3\]",
                     id="membership-layer-L+1"),
        pytest.param(_membership_at(2, up_to=1), "trace ends at layer 1, below wide layer 2",
                     id="membership-short-trace"),
    ])
    def test_bad_inputs_raise_structural_error(self, probe, message):
        with pytest.raises(StructuralError, match=message):
            probe(*_probe_net())


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

    def test_no_hidden_layer(self):
        audit = width_audit(NetworkSpec(4, (Output(2),)), 8)
        assert audit == analysis.WidthAudit(0, None, False, None)

    def test_single_layer_short_of_n(self):
        spec = NetworkSpec(4, (FullyConnected(7, Sigmoid()), Output(2)))
        audit = width_audit(spec, 8)
        assert not audit.wide_enough
        assert audit.max_width == 7
