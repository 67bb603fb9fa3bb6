"""Adam training loop behaviour."""

import numpy as np
import pytest

from widecnn import (
    ConfigError,
    ConstructionParams,
    Dataset,
    FullyConnected,
    Identity,
    NetworkSpec,
    Output,
    Params,
    Sigmoid,
    TrainingDivergedError,
    train_adam,
    zero_loss_construction,
)
from widecnn.experiments import zero_loss_demo_case
from widecnn.training import LearningRateSchedule, TrainConfig


class TestTrainConfigChecks:
    @pytest.mark.parametrize("fields", [
        {"epochs": 0},
        {"epochs": 1.5},
        {"epochs": True},
        {"batch_size": 0},
        {"batch_size": -3},
        {"batch_size": 4.0},
        {"seed": -1},
        {"seed": "1"},
        {"method": "sgd"},
        {"schedule": 1e-3},
        {"adam": None},
        {"stop_at_zero_errors": "no"},
        {"stop_at_zero_errors": 1},
    ])
    def test_malformed_field_raises_config_error(self, fields):
        with pytest.raises(ConfigError):
            TrainConfig(**fields)


def linear_problem(rng, n=12, d=4, m=2):
    X = rng.standard_normal((n, d))
    W_true = rng.standard_normal((d, m))
    Y = X @ W_true
    labels = tuple(int(v) for v in Y.argmax(axis=1))
    return Dataset(X, Y), NetworkSpec(d, (Output(m),))


class TestSmoke:
    def test_zero_init_linear_layer_descends_monotonically(self):
        rng = np.random.default_rng(0)
        dataset, spec = linear_problem(rng)
        cfg = TrainConfig(epochs=50, schedule=LearningRateSchedule(1e-2, 1.0, 50))
        result = train_adam(spec, Params.zeros(spec), dataset, cfg)
        curve = result.loss_curve
        assert all(curve[i + 1] < curve[i] for i in range(10))
        assert curve[-1] < curve[0]

    def test_initial_params_untouched(self):
        rng = np.random.default_rng(2)
        dataset, spec = linear_problem(rng)
        params0 = Params.gaussian(spec, rng)
        before = params0.weights[1].copy()
        result = train_adam(spec, params0, dataset, TrainConfig(epochs=5, batch_size=4))
        np.testing.assert_array_equal(params0.weights[1], before)
        assert not np.array_equal(result.params.weights[1], before)
        assert not result.params.weights[1].flags.writeable

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(1)
        dataset, spec = linear_problem(rng)
        cfg = TrainConfig(epochs=20, batch_size=4, seed=77)
        a = train_adam(spec, Params.zeros(spec), dataset, cfg)
        b = train_adam(spec, Params.zeros(spec), dataset, cfg)
        assert a.loss_curve == b.loss_curve
        np.testing.assert_array_equal(a.params.weights[1], b.params.weights[1])

    def test_learning_rate_schedule_decays(self):
        schedule = LearningRateSchedule(1e-3, 0.5, 500)
        assert schedule.at(0) == 1e-3
        assert schedule.at(499) == 1e-3
        assert schedule.at(500) == 5e-4
        assert schedule.at(1500) == 1.25e-4


class TestCriticalPointStability:
    def test_loss_stays_at_constructed_global_minimum(self):
        """At an exact zero-loss point the gradient is ~1e-13, so plain
        full-batch gradient steps must not move the loss. (Adam's
        epsilon-normalization would amplify even that residual gradient to
        lr-sized steps, which is why the gd variant exists.)"""
        spec, dataset, k = zero_loss_demo_case(2, seed=9)
        params = zero_loss_construction(spec, dataset, k, ConstructionParams(seed=9))
        cfg = TrainConfig(epochs=10, method="gd")
        result = train_adam(spec, params, dataset, cfg)
        assert max(result.loss_curve) <= 1e-12


class TestDivergence:
    def test_divergence_reports_epoch(self):
        rng = np.random.default_rng(2)
        # identity activations + absurd learning rate blow up quickly
        spec = NetworkSpec(3, (FullyConnected(3, Identity()), Output(2)))
        X = rng.standard_normal((4, 3)) * 1e150
        Y = rng.standard_normal((4, 2))
        dataset = Dataset(X, Y)
        params = Params.gaussian(spec, rng, weight_scale=1e120)
        cfg = TrainConfig(epochs=50, schedule=LearningRateSchedule(1e10, 1.0, 50))
        with pytest.raises(TrainingDivergedError) as err:
            train_adam(spec, params, dataset, cfg)
        assert err.value.epoch is not None


class TestEarlyStop:
    def test_stops_once_training_errors_vanish(self):
        rng = np.random.default_rng(3)
        dataset, spec = linear_problem(rng, n=8)
        spec = NetworkSpec(4, (FullyConnected(16, Sigmoid()), Output(2)))
        cfg = TrainConfig(
            epochs=2000,
            schedule=LearningRateSchedule(1e-2, 1.0, 2000),
            stop_at_zero_errors=True,
        )
        result = train_adam(spec, Params.fan_in_gaussian(spec, rng), dataset, cfg)
        assert result.train_error_count == 0
        assert result.epochs_run < 2000
