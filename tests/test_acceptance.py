"""Acceptance suite: one test per release criterion, each printing a
PASS line with its elapsed time (run with ``pytest -s`` to see them all).

Criteria, in order: the golden lifting matrix; rank genericity under
random weights; the independence construction across activations and
sample counts; exact scalar interpolation; exact zero-loss construction
in all three regimes; gradient correctness against finite differences;
the gradient sandwich; both directions of the zero-loss/zero-gradient
equivalence; the desk-scale filter sweep with its CSV schema; the width
audit arithmetic; rank estimation against an elimination oracle; and the
activation growth-bound suite.
"""

import hashlib
import json
import time

import numpy as np

import widecnn as w
from widecnn.experiments import (
    SCHEMAS,
    DatasetConfig,
    ExperimentConfig,
    random_landscape_case,
    read_csv,
    run_rank_genericity,
    run_table2_sweep,
    table2_desk_config,
    zero_loss_demo_case,
)
from widecnn.architectures import mnist_conv_pool_network
from widecnn.layout import conv1d_layout

from oracles import (
    elimination_rank,
    finite_difference_gradient,
    max_relative_gradient_error,
    planted_rank_matrix,
)
from test_gradients import random_smooth_net


def report(number, budget_s, started, message):
    elapsed = time.time() - started
    assert elapsed < budget_s, f"criterion {number} overran {budget_s}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:5.1f}s) - {message}")


def test_01_lifting_golden_matrix():
    started = time.time()
    a, b, c, d, e, f = 11.0, 22.0, 33.0, 44.0, 55.0, 66.0  # distinct sentinels
    spec = w.NetworkSpec(5, (w.Conv(conv1d_layout(5, 3, 1), 2, w.Sigmoid()),))
    U_T = w.lift_weights(spec, 1, np.array([[a, d], [b, e], [c, f]])).T
    expected = np.array(
        [
            [a, b, c, 0, 0],
            [d, e, f, 0, 0],
            [0, a, b, c, 0],
            [0, d, e, f, 0],
            [0, 0, a, b, c],
            [0, 0, d, e, f],
        ]
    )
    np.testing.assert_array_equal(U_T, expected)
    report(1, 1.0, started, "6x5 lifted matrix reproduced exactly")


def test_02_rank_genericity_100_seeds():
    started = time.time()
    cfg = ExperimentConfig(
        dataset=DatasetConfig(n=64, d=16, m=2, seed=0),
        seeds=tuple(range(100)),
    )
    result = run_rank_genericity(cfg)
    hits = round(result.fraction_full * 100)
    assert hits >= 99, f"rank 64 in only {hits}/100 trials"
    report(2, 60.0, started, f"rank(F_1)=64 in {hits}/100 Gaussian seeds")


def _two_layer_conv_net(act, n_samples):
    second_filters = -(-n_samples // 5) + 1
    return w.NetworkSpec(
        12,
        (
            w.Conv(conv1d_layout(12, 3, 1), 3, act),
            w.Conv(conv1d_layout(30, 10, 5), second_filters, act),
        ),
    )


def test_03_independence_construction_sweep():
    started = time.time()
    activations = (w.Sigmoid(), w.Softplus(10.0), w.ReLU())
    for act in activations:
        for n_samples in (8, 32):
            spec = _two_layer_conv_net(act, n_samples)
            for seed in range(20):
                rng = np.random.default_rng(1000 + seed)
                X = rng.standard_normal((n_samples, 12))
                params = w.independence_construction(
                    spec, X, 2, w.ConstructionParams(seed=seed)
                )
                F = w.forward(spec, params, X, up_to=2).F[2]
                rank = w.estimate_rank(F).estimated_rank
                assert rank == n_samples, (act, n_samples, seed, rank)
                for l in (1, 2):
                    U = w.lift_weights(spec, l, params.weights[l])
                    assert w.estimate_rank(U).full_rank, (act, n_samples, seed, l)
    report(3, 120.0, started,
           "rank(F_k)=N with full-rank liftings, 20 seeds x 3 activations x N in {8,32}")


def test_04_expressivity_twenty_targets():
    started = time.time()
    spec = w.NetworkSpec(
        8, (w.Conv(conv1d_layout(8, 4, 1), 4, w.Sigmoid()), w.Output(1))
    )
    rng = np.random.default_rng(7)
    X = rng.standard_normal((16, 8))
    worst = 0.0
    for trial in range(20):
        y = rng.standard_normal(16)
        hidden, lam = w.expressivity_fit(spec, X, y, w.ConstructionParams(seed=trial))
        params = w.expressivity_params(spec, hidden, lam)
        out = w.forward(spec, params, X).output[:, 0]
        scaled = np.abs(out - y) / (1.0 + np.abs(y))
        worst = max(worst, float(scaled.max()))
    assert worst <= 1e-8, f"max scaled residual {worst:.3e}"
    report(4, 60.0, started, f"20 random targets fitted exactly (worst {worst:.1e})")


def test_05_zero_loss_all_three_cases():
    started = time.time()
    instances = [
        (1, dict(N=6, m=2)),
        (2, dict(N=12, m=3)),
        (3, dict(N=16, m=2)),
    ]
    for case, sizes in instances:
        spec, dataset, k = zero_loss_demo_case(case, seed=40 + case, **sizes)
        params = w.zero_loss_construction(
            spec, dataset, k, w.ConstructionParams(seed=40 + case)
        )
        trace = w.forward(spec, params, dataset.X)
        budget = 1e-14 * (1.0 + float(np.sum(dataset.Y**2)))
        value = w.loss(trace, dataset.Y)
        assert value <= budget, (case, value, budget)
        assert w.s_k_membership(spec, params, trace, k).in_good_set, case
    # infinitely-many-minima witness: distinct seeds, both at zero loss
    spec, dataset, k = zero_loss_demo_case(2, seed=50, N=10, m=2)
    pair = [
        w.zero_loss_construction(spec, dataset, k, w.ConstructionParams(seed=s))
        for s in (51, 52)
    ]
    gap = sum(
        float(np.sum((pair[0].weights[l] - pair[1].weights[l]) ** 2))
        for l in range(1, spec.depth + 1)
    )
    assert np.sqrt(gap) > 1e-3
    budget = 1e-14 * (1.0 + float(np.sum(dataset.Y**2)))
    for params in pair:
        assert w.loss(w.forward(spec, params, dataset.X), dataset.Y) <= budget
    report(5, 60.0, started,
           "all three zero-loss regimes at machine zero, in the full-rank set, "
           "with two distinct minima")


def test_06_gradient_correctness_fifty_nets():
    started = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        spec, params, X, Y = random_smooth_net(rng, depth=4, max_width=32)
        grads = w.backward(spec, params, w.forward(spec, params, X), Y)
        fd = finite_difference_gradient(spec, params, X, Y)
        worst = max(worst, max_relative_gradient_error(grads, fd))
    assert worst <= 1e-5, f"worst relative gradient error {worst:.3e}"
    report(6, 120.0, started, f"backprop vs central differences (worst {worst:.1e})")


def test_07_gradient_sandwich_200_configs():
    started = time.time()
    rng = np.random.default_rng(77)
    for trial in range(200):
        spec, k, X, Y, params = random_landscape_case(rng)
        trace = w.forward(spec, params, X)
        rep = w.gradient_bounds(spec, params, trace, Y, k)
        slack = 1e-8 * max(1.0, rep.upper)
        assert rep.lower - slack <= rep.grad_norm <= rep.upper + slack, (
            trial,
            rep.lower,
            rep.grad_norm,
            rep.upper,
        )
    report(7, 120.0, started, "lower <= ||grad|| <= upper on 200 random configs")


def test_08_zero_loss_iff_zero_gradient():
    started = time.time()
    # forward direction: constructed minima have vanishing gradients
    for case in (1, 2, 3):
        spec, dataset, k = zero_loss_demo_case(case, seed=60 + case)
        params = w.zero_loss_construction(
            spec, dataset, k, w.ConstructionParams(seed=60 + case)
        )
        trace = w.forward(spec, params, dataset.X)
        grads = w.backward(spec, params, trace, dataset.Y, start_layer=k + 1)
        norm = float(np.linalg.norm(grads.grad_W[k + 1]))
        assert norm <= 1e-10, (case, norm)
    # reverse direction: full-rank points with real residual have gradients
    # no smaller than the (positive) lower bound
    rng = np.random.default_rng(88)
    checked = 0
    while checked < 50:
        spec, k, X, Y, params = random_landscape_case(rng, residual_floor=0.1)
        trace = w.forward(spec, params, X)
        if not w.s_k_membership(spec, params, trace, k).in_good_set:
            continue
        assert float(np.linalg.norm(trace.output - Y)) >= 0.1
        rep = w.gradient_bounds(spec, params, trace, Y, k)
        assert rep.lower > 0.0
        assert rep.grad_norm >= rep.lower * (1.0 - 1e-8)
        checked += 1
    report(8, 60.0, started,
           "gradients vanish at constructed minima and exceed the positive "
           "lower bound at 50 full-rank points with residual >= 0.1")


# SHA-256 of acceptance 09's Table-2 CSV, and of its four loss curves as
# lists of float.hex strings in json.dumps; the curves have 950, 550, 325
# and 375 epochs. Computed with numpy 2.4.6 and OpenBLAS 0.3.31, equal
# under one and under two BLAS threads.
TABLE2_CSV_SHA256 = "5a00f85d17d2b1027a9bbb65ddd6d0d74e0684904663d19be7900dea251a3ddc"
LOSS_CURVES_SHA256 = "d0074b04b841f674893fe73096b9078aa9f62c0b49018643170b14afafa8461e"


def test_09_desk_scale_sweep(tmp_path):
    started = time.time()
    out = tmp_path / "sweep.csv"
    cfg = table2_desk_config(n_subset=256, filter_counts=(2, 4, 8, 16),
                             epochs=3000, out=str(out))
    result = run_table2_sweep(cfg)
    for run in result.runs:
        n1 = run.row.f1_size[1]
        expected = min(256, n1)
        assert run.init_f1_rank == expected, (run.row.t1, run.init_f1_rank)
        assert run.row.f1_rank == expected, (run.row.t1, run.row.f1_rank)
    widest = result.runs[-1]
    assert widest.row.f1_size[1] >= 256
    assert widest.row.train_error == 0, widest.row
    assert len(widest.loss_curve) <= 3000
    tag, columns, rows = read_csv(out)
    assert tag == "table2.v1"
    assert tuple(columns) == SCHEMAS["table2.v1"]
    assert len(rows) == 4
    curves = [[float(x).hex() for x in run.loss_curve] for run in result.runs]
    digests = (hashlib.sha256(out.read_bytes()).hexdigest(),
               hashlib.sha256(json.dumps(curves).encode()).hexdigest())
    assert digests == (TABLE2_CSV_SHA256, LOSS_CURVES_SHA256), (
        f"Table-2 CSV or loss curves changed their bits under numpy "
        f"{np.__version__}; epochs run: {[len(c) for c in curves]}")
    report(9, 900.0, started,
           f"sweep ranks = min(256, n_1); widest run hit 0/256 train errors "
           f"in {len(widest.loss_curve)} epochs; CSV schema matches")


def test_10_width_audit_arithmetic():
    started = time.time()
    spec = mnist_conv_pool_network(first_filters=100)
    assert spec.widths == (784, 67600, 16900, 2880, 720, 100, 10)
    audit = w.width_audit(spec, 60000)
    assert audit.max_width == 67600 and audit.arg_layer == 1
    assert audit.wide_enough and audit.pyramidal_from == 1
    assert mnist_conv_pool_network(first_filters=89).widths[1] == 60164
    for t1 in (10, 20, 30, 89):
        assert mnist_conv_pool_network(first_filters=t1).widths[1] == 676 * t1
    report(10, 1.0, started, "seven reference widths and 676*T_1 arithmetic exact")


def test_11_rank_estimator_vs_elimination_oracle():
    started = time.time()
    rng = np.random.default_rng(11)
    agree = 0
    for _ in range(500):
        m = int(rng.integers(1, 33))
        n = int(rng.integers(1, 33))
        r = int(rng.integers(0, min(m, n) + 1))
        A = planted_rank_matrix(rng, m, n, r)
        svd_rank = w.estimate_rank(A).estimated_rank
        if svd_rank == elimination_rank(A) == r:
            agree += 1
    assert agree == 500, f"only {agree}/500 matrices agreed"
    report(11, 60.0, started, "500/500 planted-rank matrices agree with elimination")


def test_12_activation_profile_suite():
    started = time.time()
    rng = np.random.default_rng(12)
    neg = -10.0 ** rng.uniform(-3, 1, size=1000)
    pos = 10.0 ** rng.uniform(-3, 1, size=1000)

    relu = w.ReLU()
    assert np.all(relu(neg) < np.exp(neg))

    sig = w.Sigmoid()
    assert abs(float(sig(np.array(-20.0)))) <= 1e-6
    assert abs(float(sig(np.array(20.0))) - 1.0) <= 1e-6
    profile = sig.profile()
    assert profile.limit_neg * profile.limit_pos == 0.0

    for alpha in (0.5, 2.0, 10.0):
        sp = w.Softplus(alpha)
        p = sp.profile()
        rho1, rho2 = p.exp_bound
        rho3, rho4 = p.linear_bound
        assert (rho1, rho2, rho3, rho4) == (1.0 / alpha, alpha, 1.0, np.log(2.0) / alpha)
        vals_neg = sp(neg)
        assert np.all(vals_neg >= 0.0)
        assert np.all(vals_neg <= rho1 * np.exp(rho2 * neg) * (1 + 1e-12))
        assert np.all(sp(pos) <= rho3 * pos + rho4)
        grid = np.linspace(-5.0, 5.0, 1000)
        assert np.abs(sp(grid) - np.maximum(grid, 0.0)).max() <= np.log(2.0) / alpha + 1e-15
    report(12, 5.0, started,
           "growth bounds hold at 1000 sampled points per activation")
