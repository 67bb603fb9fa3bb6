"""Adam training loop behaviour."""

import tracemalloc
import warnings

import numpy as np
import pytest

from widecnn import (
    ConfigError,
    ConstructionParams,
    Conv,
    Dataset,
    FullyConnected,
    Identity,
    NetworkSpec,
    Output,
    Params,
    Sigmoid,
    StructuralError,
    TrainingDivergedError,
    train_adam,
    zero_loss_construction,
)
from widecnn.architectures import desk_sweep_network
from widecnn.data import synthesize_dataset
from widecnn.experiments import zero_loss_demo_case
from widecnn.layout import conv1d_layout
from widecnn.training import LearningRateSchedule, TrainConfig

from oracles import per_layer_adam


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

    CONV_CONV = NetworkSpec(12, (
        Conv(conv1d_layout(12, 3, 1), 3, Sigmoid()),
        Conv(conv1d_layout(30, 10, 5), 4, Sigmoid()),
        Output(2),
    ))

    def diverging_case(self):
        """Data and the fifth fan-in draw of one rng: at lr 0.5 the loss
        overflows, at lr 1e6 a plain gradient step makes layer 1's
        parameters non-finite."""
        rng = np.random.default_rng(0)
        dataset = Dataset(rng.standard_normal((16, 12)), rng.standard_normal((16, 2)))
        for _ in range(5):
            params0 = Params.fan_in_gaussian(self.CONV_CONV, rng)
        return dataset, params0

    @pytest.mark.parametrize("lr, epoch", [(0.5, 70), (1e6, 10)])
    def test_diverging_gradient_descent_ends_in_a_typed_error(self, lr, epoch):
        dataset, params0 = self.diverging_case()
        cfg = TrainConfig(epochs=200, schedule=LearningRateSchedule(lr, 1.0, 1000),
                          batch_size=8, method="gd")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError) as err:
                train_adam(self.CONV_CONV, params0, dataset, cfg)
        assert err.value.epoch == epoch

    def test_non_finite_initial_parameters_are_a_structural_error(self):
        dataset, params0 = self.diverging_case()
        W = params0.weights[2].copy()
        W[0, 0] = np.nan
        params0 = params0.with_layer(2, W, params0.biases[2])
        with pytest.raises(StructuralError, match="layer 2 "):
            train_adam(self.CONV_CONV, params0, dataset, TrainConfig(epochs=1))

    def test_targets_of_another_width_are_a_structural_error(self):
        """backward's shape error is raised as it is: the parameters are
        finite, so training did not diverge."""
        dataset, params0 = self.diverging_case()
        wide = Dataset(dataset.X, np.zeros((16, 3)))
        with pytest.raises(StructuralError, match=r"^output \(16, 2\) vs targets \(16, 3\)$"):
            train_adam(self.CONV_CONV, params0, wide, TrainConfig(epochs=1))


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
        assert len(result.loss_curve) < 2000


class TestFlatStepAgainstPerLayerLoop:
    """The flat in-place step gives the per-layer loop's parameters, loss
    curve and training-error count bit for bit, for both methods, full batch and
    minibatch, with the early stop hit and not hit."""

    NETS = {
        "desk": desk_sweep_network(12, 2, 3),
        "conv-conv": NetworkSpec(12, (
            Conv(conv1d_layout(12, 3, 1), 3, Sigmoid()),
            Conv(conv1d_layout(30, 10, 5), 4, Sigmoid()),
            Output(3),
        )),
    }
    EPOCHS = 100

    @pytest.mark.parametrize("net, method, batch_size, stops", [
        ("desk", "adam", None, False),
        ("desk", "adam", 8, True),
        ("desk", "gd", None, False),
        ("desk", "gd", 8, False),
        ("conv-conv", "adam", None, False),
        ("conv-conv", "adam", 8, True),
        ("conv-conv", "gd", None, False),
        ("conv-conv", "gd", 8, False),
    ])
    def test_bit_identical(self, net, method, batch_size, stops):
        spec = self.NETS[net]
        train = synthesize_dataset(24, 12, 3, seed=5)
        lr = 2e-2 if method == "adam" else 5e-2
        cfg = TrainConfig(epochs=self.EPOCHS, schedule=LearningRateSchedule(lr, 0.7, 40),
                          batch_size=batch_size, seed=3, stop_at_zero_errors=True,
                          method=method)
        params0 = Params.fan_in_gaussian(spec, np.random.default_rng(4))
        got = train_adam(spec, params0, train, cfg)
        want = per_layer_adam(spec, params0, train, cfg)
        assert (len(got.loss_curve) < self.EPOCHS) == stops
        assert [x.hex() for x in got.loss_curve] == [x.hex() for x in want.loss_curve]
        for field in ("weights", "biases"):
            for a, b in zip(getattr(got.params, field), getattr(want.params, field)):
                assert (a is None and b is None) or a.tobytes() == b.tobytes()
        assert got.train_error_count == want.train_error_count

    def test_peak_memory_of_a_desk_run(self):
        """A T1=16 desk-shaped run of 3 epochs allocates no more than the
        per-layer loop did, 9,923,008 B (9.46 MiB) in this test: the flat
        state is written in place and the gradient is written into its flat
        vector, not copied there."""
        train = synthesize_dataset(256, 64, 10, seed=0)
        spec = desk_sweep_network(64, 16, 10)
        params0 = Params.fan_in_gaussian(spec, np.random.default_rng(0))
        cfg = TrainConfig(epochs=3, batch_size=64)
        tracemalloc.start()
        try:
            train_adam(spec, params0, train, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9.47 * 2**20
