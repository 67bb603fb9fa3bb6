"""Experiment configs, CSV reporting, and the runners at smoke scale."""

import re
from dataclasses import replace

import numpy as np
import pytest

from widecnn import AdamConfig, ConfigError, FormatError, LearningRateSchedule, forward
from widecnn import experiments
from widecnn.analysis import BoundReport
from widecnn.experiments import (
    SCHEMAS,
    DatasetConfig,
    ExperimentConfig,
    config_from_dict,
    load_config,
    named_activation,
    random_landscape_case,
    read_csv,
    run_grad_bounds,
    run_rank_genericity,
    run_table2_sweep,
    table2_desk_config,
    write_csv,
    zero_loss_demo_case,
)


class TestConfig:
    def test_defaults_from_empty_document(self):
        cfg = config_from_dict({})
        assert cfg.n_subset == 256
        assert cfg.filter_counts == (2, 4, 8, 16)
        assert cfg.adam.beta1 == 0.9

    def test_full_document(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            """
            {
              "dataset": {"source": "synthetic", "n": 32, "d": 8, "m": 2,
                          "seed": 3, "perturb_sigma": 1e-5},
              "seeds": [0, 1],
              "n_subset": 16,
              "epochs": 5,
              "learning_rate": {"initial": 0.01, "decay": 0.5, "interval": 2},
              "adam": {"beta1": 0.8, "beta2": 0.95, "eps": 1e-7},
              "filter_counts": [2, 3],
              "out": "report.csv"
            }
            """
        )
        cfg = load_config(path)
        assert cfg.dataset.n == 32
        assert cfg.schedule.initial == 0.01
        assert cfg.adam.beta2 == 0.95
        assert cfg.filter_counts == (2, 3)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"epochs": 5,}')
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: not valid JSON: "):
            load_config(path)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"optimizer": "sgd"})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="dataset"):
            config_from_dict({"dataset": {"source": "synthetic", "width": 3}})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="experiment"):
            config_from_dict({"experiment": "mnist-full"})

    def test_activation_names(self):
        assert named_activation("softplus(5)").alpha == 5.0
        assert named_activation("softplus").alpha == 10.0
        for bad in ("tanh", "softplus(abc)", "softplus(-1)", "softplus(inf)",
                    "softplus(", "softplusx"):
            with pytest.raises(ConfigError):
                named_activation(bad)

    @pytest.mark.parametrize("doc", [
        {"epochs": "30"},
        {"epochs": 1.5},
        {"epochs": True},
        {"learning_rate": {"interval": 0}},
        {"learning_rate": {"initial": -1e-3}},
        {"batch_size": 0},
        {"dataset": {"n": "16"}},
        {"dataset": {"source": "mnist"}},
        {"dataset": {"source": "idx"}},
        {"dataset": {"source": "idx", "images": "i", "labels": "l", "n": 8}},
        {"dataset": {"images": "i"}},
        {"seeds": []},
        {"seeds": 5},
        {"seeds": [1.5]},
        {"seeds": [-1]},
        {"adam": 3},
        {"adam": {"beta1": 1.0}},
        {"filter_counts": "ab"},
        {"filter_counts": [0]},
        {"case": 4},
        {"trials": 0},
        {"wide_layer": 0},
        {"activation": "softplus(abc)"},
        {"out": 7},
        {"schedule": {}},
    ])
    def test_wrong_values_rejected(self, doc):
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_every_field_is_a_key(self):
        cfg = config_from_dict({"batch_size": None, "network": "n.json", "case": 3,
                                "wide_layer": 2, "trials": 4, "n_subset": 8,
                                "activation": "softplus(2.5)"})
        assert (cfg.batch_size, cfg.network, cfg.case) == (None, "n.json", 3)
        assert (cfg.wide_layer, cfg.trials, cfg.n_subset) == (2, 4, 8)

    def test_overrides_and_python_callers_are_checked(self):
        cfg = ExperimentConfig()
        for change in ({"trials": 0}, {"seeds": ()}, {"seeds": [0]},
                       {"activation": "softplus(-1)"}, {"adam": {"beta1": 0.9}},
                       {"dataset": {"n": 8}}):
            with pytest.raises(ConfigError):
                replace(cfg, **change)
        with pytest.raises(ConfigError, match="interval"):
            LearningRateSchedule(interval=0)
        with pytest.raises(ConfigError, match="DatasetConfig.n"):
            DatasetConfig(n=0)

    def test_floats_accept_ints_but_not_bools(self):
        assert LearningRateSchedule(initial=1, decay=1, interval=5).at(7) == 1
        assert AdamConfig(beta1=0).beta1 == 0
        with pytest.raises(ConfigError):
            AdamConfig(eps=True)
        with pytest.raises(ConfigError):
            LearningRateSchedule(initial="1e-3")


class TestCsv:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "r.csv"
        rows = [["1", "a,b"], ["2", 'say "hi"']]
        write_csv(path, "loss-curve.v1", rows)
        tag, columns, got = read_csv(path)
        assert tag == "loss-curve.v1"
        assert columns == ["epoch", "loss"]
        assert got == rows

    def test_each_value_is_written_by_the_field_rule(self, tmp_path):
        path = tmp_path / "r.csv"
        write_csv(path, "loss-curve.v1", [[np.int64(7), np.float64(0.5)], [True, False],
                                          [(32, 112), ()], [3, 0.1]])
        assert read_csv(path)[2] == [["7", "0.5"], ["True", "False"], ["32x112", ""],
                                     ["3", "0.1"]]

    def test_grad_bounds_row_round_trips(self, tmp_path):
        path = tmp_path / "bounds.csv"
        factors = ((0.5, 2.0, 0.25, 1.0), (1e-300, 3.0, np.float64(0.1), 0.75))
        write_csv(path, "grad-bounds.v1", [[0, 1e-3, 2.5, 1.0, 0.75, factors]])
        tag, columns, rows = read_csv(path)
        assert (tag, tuple(columns)) == ("grad-bounds.v1", SCHEMAS["grad-bounds.v1"])
        assert rows == [["0", "0.001", "2.5", "1.0", "0.75",
                         "(0.5,2.0,0.25,1.0);(1e-300,3.0,0.1,0.75)"]]
        assert tuple(tuple(map(float, f.strip("()").split(",")))
                     for f in rows[0][5].split(";")) == factors

    def test_unknown_tag_and_wrong_row_length_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        with pytest.raises(ConfigError, match="schema"):
            write_csv(path, "demo.v1", [["1"]])
        with pytest.raises(ConfigError, match="columns"):
            write_csv(path, "loss-curve.v1", [["0", "1", "2"]])
        assert not path.exists()
        write_csv(path, "loss-curve.v1", [["0", "1"]])
        assert read_csv(path)[2] == [["0", "1"]]

    @pytest.mark.parametrize("text", ["", "# schema=loss-curve.v1\n"])
    def test_file_without_a_header_row_is_a_format_error(self, tmp_path, text):
        path = tmp_path / "r.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match="r.csv: no header row"):
            read_csv(path)

    def test_file_without_a_schema_line_keeps_its_header_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("epoch,loss\n0,1.0\n1,0.5\n")
        assert read_csv(path) == (None, ["epoch", "loss"], [["0", "1.0"], ["1", "0.5"]])


class TestRankGenericity:
    def test_sigmoid_smoke_fraction_one(self, tmp_path):
        out = tmp_path / "rank.csv"
        cfg = ExperimentConfig(
            dataset=DatasetConfig(n=8, d=6, m=2, seed=0),
            seeds=tuple(range(10)),
            out=str(out),
        )
        result = run_rank_genericity(cfg)
        assert result.fraction_full == 1.0
        tag, columns, rows = read_csv(out)
        assert tag == "rank-genericity.v1"
        assert tuple(columns) == SCHEMAS["rank-genericity.v1"]
        assert len(rows) == 10

    def test_relu_reports_without_claim(self):
        cfg = ExperimentConfig(
            dataset=DatasetConfig(n=6, d=6, m=2, seed=1),
            seeds=tuple(range(5)),
            activation="relu",
        )
        result = run_rank_genericity(cfg)
        assert 0.0 <= result.fraction_full <= 1.0

    def test_too_narrow_layer_never_reaches_n(self):
        cfg = ExperimentConfig(
            dataset=DatasetConfig(n=6, d=6, m=2, seed=2),
            seeds=tuple(range(5)),
        )
        from widecnn.architectures import single_conv_network
        from widecnn.netspec_io import save_netspec
        import tempfile, os

        spec = single_conv_network(6, 2, 1)  # n_1 = 5 < 6
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "narrow.netspec")
            save_netspec(spec, path)
            result = run_rank_genericity(
                ExperimentConfig(
                    dataset=DatasetConfig(n=6, d=6, m=2, seed=2),
                    seeds=tuple(range(5)),
                    network=path,
                )
            )
        assert result.fraction_full == 0.0
        assert all(rep.estimated_rank <= 5 for rep in result.reports)


class TestSweep:
    def test_columns_match_reference_schema(self):
        assert SCHEMAS["table2.v1"] == (
            "T_1",
            "size(F_1)",
            "rank(F_1)",
            "sigma_min(F_1)",
            "size(F_3)",
            "rank(F_3)",
            "sigma_min(F_3)",
            "loss",
            "train_error",
            "test_error",
        )

    def test_tiny_sweep_end_to_end(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = table2_desk_config(n_subset=16, filter_counts=(2, 3), epochs=30,
                                 out=str(out))
        result = run_table2_sweep(cfg)
        assert len(result.rows) == 2
        tag, columns, rows = read_csv(out)
        assert tag == "table2.v1"
        assert tuple(columns) == SCHEMAS["table2.v1"]
        assert rows[0][0] == "2"
        # n_1 = (64 - 9 + 1) * T_1
        assert rows[0][1] == "16x112"
        assert rows[1][1] == "16x168"


class TestRandomLandscapeCase:
    def test_meets_assumptions(self):
        rng = np.random.default_rng(0)
        from widecnn import ensure_wide_pyramid_assumptions

        for _ in range(25):
            spec, k, X, Y, params = random_landscape_case(rng)
            ensure_wide_pyramid_assumptions(spec, k, X.shape[0])

    def test_residual_floor_is_respected(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            spec, k, X, Y, params = random_landscape_case(rng, residual_floor=0.1)
            out = forward(spec, params, X).output
            assert np.linalg.norm(out - Y) >= 0.1

    def test_a_floor_above_the_residual_inflates_only_the_targets(self):
        floor = 1e3  # above any drawn residual, so every draw takes the inflate step
        for seed in range(5):
            spec, k, X, Y, params = random_landscape_case(np.random.default_rng(seed),
                                                          residual_floor=floor)
            spec0, k0, X0, Y0, params0 = random_landscape_case(np.random.default_rng(seed))
            out = forward(spec, params, X).output
            assert np.linalg.norm(out - Y0) < floor <= np.linalg.norm(out - Y)
            assert (spec, k) == (spec0, k0)
            np.testing.assert_array_equal(X, X0)
            for a, b in zip(params.weights + params.biases, params0.weights + params0.biases):
                np.testing.assert_array_equal(a, b)


class TestGradBoundsRunner:
    def test_small_run_has_no_violations(self, tmp_path):
        out = tmp_path / "bounds.csv"
        cfg = ExperimentConfig(trials=10, seeds=(3,), out=str(out))
        result = run_grad_bounds(cfg)
        assert result.violations == 0
        tag, columns, rows = read_csv(out)
        assert tag == "grad-bounds.v1"
        assert len(rows) == 10

    def test_a_gradient_above_the_upper_bound_is_a_violation(self, monkeypatch):
        monkeypatch.setattr(experiments, "gradient_bounds", above_the_upper_bound)
        cfg = ExperimentConfig(trials=3, seeds=(3,))
        assert run_grad_bounds(cfg).violations == cfg.trials


def above_the_upper_bound(*args):
    return BoundReport(lower=0.5, upper=1.0, grad_norm=2.0, residual=1.0, factors=())


class TestZeroLossDemos:
    @pytest.mark.parametrize("case,expected_gap", [(1, 1), (2, 2), (3, 3)])
    def test_wide_layer_distance_matches_case(self, case, expected_gap):
        spec, dataset, k = zero_loss_demo_case(case, seed=0)
        assert spec.depth - k == expected_gap

    def test_unknown_case_rejected(self):
        with pytest.raises(ConfigError, match=r"^case must be 1, 2, or 3; got 4$"):
            zero_loss_demo_case(4)


class TestSweepDatasets:
    def test_subset_larger_than_dataset_rejected(self, tmp_path):
        from idx_files import write_idx_images, write_idx_labels
        from widecnn.experiments import sweep_datasets
        import numpy as np

        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(ip, np.zeros((10, 2, 2), dtype=np.uint8))
        write_idx_labels(lp, np.arange(10) % 2)
        cfg = ExperimentConfig(
            dataset=DatasetConfig(source="idx", images=str(ip), labels=str(lp)),
            n_subset=8,
        )
        with pytest.raises(ConfigError, match="n_subset"):
            sweep_datasets(cfg)
