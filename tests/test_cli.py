"""CLI exit codes and end-to-end subcommand behaviour."""

import argparse
import functools
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from widecnn import FullyConnected, NetworkSpec, ReLU, Sigmoid, cli, netspec_io
from widecnn.architectures import mnist_conv_pool_network, single_conv_network
from widecnn.cli import build_parser, main
from widecnn.experiments import SCHEMAS, read_csv
from widecnn.netspec_io import load_netspec, save_netspec

README = Path(__file__).resolve().parent.parent / "README.md"

# the flags each subcommand reads; width-audit's --n is required
ROWS = {
    "width-audit": "--config --spec --n",
    "check-assumptions": "--config --seed --spec",
    "rank-genericity": "--config --seed --out --spec --trials --activation",
    "construct-independent": "--config --seed --spec --n",
    "construct-zeroloss": "--config --seed --case",
    "fit-expressivity": "--config --seed --n",
    "grad-bounds": "--config --seed --out --trials",
    "table2-sweep": "--config --seed --out",
    "train": "--config --seed --out --spec",
}
ALL_FLAGS = sorted({flag for flags in ROWS.values() for flag in flags.split()})


def _parser_rows():
    """{subcommand: {flag: required}} as ``build_parser`` defines them."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {a.option_strings[0]: a.required
                   for a in parser._actions if a.dest != "help"}
            for name, parser in sub.choices.items()}


@pytest.fixture
def reference_netspec(tmp_path):
    path = tmp_path / "fig.netspec"
    save_netspec(mnist_conv_pool_network(first_filters=100), path)
    return str(path)


class TestUsage:
    def test_no_arguments_prints_usage(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["width-audit"]) == 2  # --n is required

    @pytest.mark.parametrize("command", sorted(ROWS))
    def test_empty_config_path(self, command, capsys):
        """``--config ""`` names no file; it is not the same as no config."""
        required = ["--n", "4"] if command == "width-audit" else []
        assert main([command, *required, "--config", ""]) == 2
        assert "expected a non-empty path" in capsys.readouterr().err


class TestFlagTable:
    def test_each_subcommand_takes_exactly_its_row(self):
        rows = _parser_rows()
        assert {name: set(flags) for name, flags in rows.items()} == {
            name: set(flags.split()) for name, flags in ROWS.items()}
        assert [(name, flag) for name, flags in rows.items()
                for flag, required in flags.items() if required] == [("width-audit", "--n")]

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in ROWS.items()
        for flag in ALL_FLAGS if flag not in flags.split()
    ])
    def test_flag_outside_the_row_is_a_usage_error(self, command, flag, capsys):
        required = ["--n", "4"] if command == "width-audit" else []
        assert main([command, *required, flag, "1"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_readme_rows_match_the_parser(self):
        text = README.read_text()
        section = text[text.index("## Command line"):]
        section = section[:section.index("\n## ", 1)]
        documented = {
            name: {flag: bool(required)
                   for flag, required in re.findall(r"`(--[\w-]+)`( \(required\))?", flags)}
            for name, flags in re.findall(r"^\| `([\w-]+)` *\| ([^|]*)\|", section, re.M)
        }
        assert documented == _parser_rows()


class TestWidthAudit:
    def test_reference_network(self, reference_netspec, capsys):
        code = main(["width-audit", "--spec", reference_netspec, "--n", "60000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "M = 67600 at layer 1" in out
        assert "wide_enough (M >= N=60000): True" in out
        assert "pyramidal_from: 1" in out


class TestRuns:
    def test_rank_genericity(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": {"source": "synthetic", "n": 8, "d": 6, "m": 2, "seed": 0},
            "seeds": list(range(5)),
        }))
        code = main(["rank-genericity", "--config", str(cfg),
                     "--out", str(tmp_path / "rank.csv")])
        assert code == 0
        assert "1.00" in capsys.readouterr().out

    def test_rank_genericity_trials_count_up_from_the_seed(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": {"source": "synthetic", "n": 8, "d": 6, "m": 2, "seed": 0},
        }))
        out = tmp_path / "rank.csv"
        assert main(["rank-genericity", "--config", str(cfg), "--trials", "3",
                     "--seed", "5", "--out", str(out)]) == 0
        tag, columns, rows = read_csv(out)
        assert [row[columns.index("seed")] for row in rows] == ["5", "6", "7"]

    def test_table2_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_subset": 16, "epochs": 2, "filter_counts": [2]}))
        out = tmp_path / "sweep.csv"
        assert main(["table2-sweep", "--config", str(cfg), "--out", str(out)]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert tuple(header.split(",")) == SCHEMAS["table2.v1"]
        assert len(rows) == 1
        tag, columns, written = read_csv(out)
        assert (tag, tuple(columns)) == ("table2.v1", SCHEMAS["table2.v1"])
        assert [",".join(row) for row in written] == rows

    def test_construct_independent(self, capsys):
        assert main(["construct-independent", "--n", "6", "--seed", "1"]) == 0
        assert "rank(F_1) = 6" in capsys.readouterr().out

    def test_construct_zeroloss(self, capsys):
        assert main(["construct-zeroloss", "--case", "2", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "membership: True" in out

    def test_fit_expressivity(self, capsys):
        assert main(["fit-expressivity", "--n", "6", "--seed", "3"]) == 0

    def test_grad_bounds(self, capsys):
        assert main(["grad-bounds", "--trials", "5", "--seed", "2"]) == 0
        assert "5/5" in capsys.readouterr().out

    def test_grad_bounds_writes_its_csv(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        assert main(["grad-bounds", "--trials", "2", "--out", str(out)]) == 0
        tag, columns, rows = read_csv(out)
        assert tag == "grad-bounds.v1" and len(rows) == 2

    def test_check_assumptions(self, tmp_path, capsys):
        spec_path = tmp_path / "net.netspec"
        save_netspec(single_conv_network(16, 9, 16), spec_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": {"source": "synthetic", "n": 8, "d": 16, "m": 2, "seed": 0},
        }))
        code = main(["check-assumptions", "--spec", str(spec_path),
                     "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_train_smoke(self, tmp_path, capsys):
        # a trainable net needs an Output layer; extend the conv base
        from widecnn import NetworkSpec, Output

        base = single_conv_network(8, 3, 2)
        spec_path = tmp_path / "net.netspec"
        save_netspec(NetworkSpec(8, base.layers + (Output(2),)), spec_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": {"source": "synthetic", "n": 8, "d": 8, "m": 2, "seed": 0},
            "epochs": 5,
        }))
        code = main(["train", "--spec", str(spec_path), "--config", str(cfg),
                     "--out", str(tmp_path / "curve.csv")])
        assert code == 0
        assert "final loss" in capsys.readouterr().out

    def test_error_exit_code_on_failure(self, tmp_path, capsys):
        # duplicate rows violate the distinctness precondition -> exit 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": {"source": "synthetic", "n": 4, "d": 6, "m": 2,
                        "seed": 0},
        }))
        spec_path = tmp_path / "narrow.netspec"
        save_netspec(single_conv_network(6, 2, 1), spec_path)  # n_1 = 5 < 8
        code = main(["construct-independent", "--n", "8", "--seed", "0",
                     "--spec", str(spec_path), "--config", str(cfg)])
        assert code == 1
        assert "error" in capsys.readouterr().err


def _usage_error(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    return code == 2 and err.startswith("error:") and "Traceback" not in err


class TestUsageErrorsExit2:
    @pytest.mark.parametrize("doc", [
        {"epochs": "30"},
        {"learning_rate": {"interval": 0}},
        {"batch_size": 0},
        {"dataset": {"n": "16"}},
        {"seeds": []},
        {"seeds": 5},
        {"adam": 3},
        {"filter_counts": "ab"},
        {"dataset": {"source": "idx"}},
    ])
    def test_malformed_config(self, doc, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert _usage_error(["grad-bounds", "--config", str(cfg)], capsys)

    @pytest.mark.parametrize("argv", [
        ["rank-genericity", "--trials", "0"],
        ["grad-bounds", "--trials", "0"],
        ["rank-genericity", "--activation", "softplus(abc)"],
        ["construct-independent", "--seed", "-1"],
        ["construct-independent", "--n", "0"],
        ["fit-expressivity", "--n", "-2"],
        ["width-audit", "--spec", "{spec}", "--n", "-5"],
    ])
    def test_malformed_flag_value(self, argv, tmp_path, capsys):
        spec_path = tmp_path / "net.netspec"
        save_netspec(single_conv_network(8, 3, 2), spec_path)
        argv = [str(spec_path) if arg == "{spec}" else arg for arg in argv]
        assert _usage_error(argv, capsys)

    @pytest.mark.parametrize("doc", [
        {"input_width": 4, "layers": [{"kind": "output", "width": "8"}]},
        {"input_width": 4, "layers": [{"kind": "output", "width": 2.5}]},
        {"input_width": True, "layers": [{"kind": "output", "width": 2}]},
        *({"input_width": 4, "layers": [{"kind": "conv", "filters": 2, "patches": p,
                                         "activation": {"kind": "sigmoid"}}]}
          for p in ([[0, "a"], [2, 3]], [0, 1])),
    ])
    def test_malformed_netspec(self, doc, tmp_path, capsys):
        path = tmp_path / "net.netspec"
        path.write_text(json.dumps(doc))
        assert _usage_error(["width-audit", "--spec", str(path), "--n", "4"], capsys)

    def test_train_without_a_spec(self, capsys):
        assert main(["train"]) == 2
        assert capsys.readouterr().err == "error: train requires --spec\n"


class TestRankGenericityVerdict:
    @pytest.fixture
    def config(self, tmp_path):
        def write(**keys):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({
                "dataset": {"n": 16, "d": 16, "m": 2, "seed": 0},
                "seeds": list(range(5)), **keys,
            }))
            return str(path)
        return write

    def test_no_claim_for_a_layer_narrower_than_n(self, config, tmp_path, capsys):
        spec_path = tmp_path / "narrow.netspec"
        save_netspec(single_conv_network(16, 9, 1), spec_path)  # n_1 = 8 < 16
        argv = ["rank-genericity", "--config", config(), "--spec", str(spec_path)]
        assert main(argv) == 0
        assert main(argv + ["--activation", "relu"]) == 0
        assert capsys.readouterr().out.count("(N=16): 0.00") == 2

    def test_claim_judges_the_network_that_ran(self, config, tmp_path, capsys):
        # a width-1 bottleneck leaves F_2 numerically rank deficient although
        # n_2 = 32 >= N: with analytic activations that fails the claim
        for name, act, expected in (("sigmoid", Sigmoid(), 1), ("relu", ReLU(), 0)):
            spec_path = tmp_path / f"{name}.netspec"
            save_netspec(NetworkSpec(16, (FullyConnected(1, act),
                                          FullyConnected(32, Sigmoid()))), spec_path)
            argv = ["rank-genericity", "--config", config(wide_layer=2),
                    "--spec", str(spec_path)]
            assert main(argv) == expected, name
        assert capsys.readouterr().out.count("(N=16): 0.00") == 2

    def test_the_netspec_is_loaded_once(self, config, tmp_path, capsys, monkeypatch):
        spec_path = tmp_path / "net.netspec"
        save_netspec(single_conv_network(16, 9, 4), spec_path)  # n_1 = 32
        loads = []

        def counted(path):
            loads.append(path)
            return load_netspec(path)

        monkeypatch.setattr(netspec_io, "load_netspec", counted)
        monkeypatch.setattr(cli, "load_netspec", counted)
        assert main(["rank-genericity", "--config", config(), "--spec", str(spec_path)]) == 0
        assert loads == [str(spec_path)]
        assert "(N=16): 1.00" in capsys.readouterr().out


@functools.cache
def _construct_under_the_memory_limit():
    """``construct-independent --n 100000000`` in a child under a 512 MiB
    address-space limit, set in the child only; run once for both tests."""
    limit = 512 * 2**20
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                      env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "widecnn.cli", "construct-independent", "--n", "100000000"],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_out_of_memory_is_one_error_line():
    """The construction's first array cannot be allocated."""
    done = _construct_under_the_memory_limit()
    assert done.returncode == 1
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory"), done.stderr


def test_the_input_fails_before_the_layout_is_built():
    """The (N, d) input is drawn before the 25 M x 4 index array of the
    conv layout, so the one error line names the input's shape."""
    lines = _construct_under_the_memory_limit().stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory"), lines
    assert "shape (100000000, 25000000)" in lines[0], lines
