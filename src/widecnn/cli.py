"""Command-line entry point.

Each subcommand reads an optional JSON experiment config (``--config``)
and the flags of its row in ``_COMMANDS``, and writes CSV or text
reports; any other flag is a usage error. ``_load`` is the one place
where a flag overrides its config field, through the config dataclasses,
so flag values are checked like config keys, and ``--n`` must be a
positive integer. Exit codes: 0 on success; 1 when a run finishes but an
assertion or acceptance condition fails, or a run fails (any other
``WideCnnError``, an ``OSError``, or running out of memory); 2 on usage
errors, that is an unknown or malformed flag, config, netspec or IDX
file (``ConfigError``, ``FormatError``). Every error is one ``error:``
line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import experiments
from .analysis import _lifted_full_rank, estimate_rank, s_k_membership, width_audit
from .assumptions import (
    check_conv_structure,
    check_distinct_patches,
    ensure_hidden_activations,
    hidden_layer_indices,
)
from .constructions import (
    ConstructionParams,
    expressivity_fit,
    expressivity_params,
    independence_construction_report,
    zero_loss_construction,
)
from .errors import ConfigError, FormatError, WideCnnError
from .gradients import loss
from .netspec_io import load_netspec
from .network import NetworkSpec, Output, Params, forward
from .training import train_adam


# flag -> the config field it overrides; --seed replaces the first seed
_FIELDS = {"out": "out", "spec": "network", "activation": "activation",
           "case": "case", "trials": "trials"}


def _load(args) -> experiments.ExperimentConfig:
    flags = {k: v for k, v in vars(args).items() if v is not None}
    if flags.get("n", 1) < 1:
        raise ConfigError(f"--n must be a positive integer, got {args.n}")
    cfg = (
        experiments.load_config(args.config)
        if args.config is not None
        else experiments.ExperimentConfig()
    )
    fields = {field: flags[flag] for flag, field in _FIELDS.items() if flag in flags}
    if "seed" in flags:
        fields["seeds"] = (args.seed,) + cfg.seeds[1:]
    if args.command == "rank-genericity" and "trials" in flags:
        # each rank-genericity trial is one seed, counted up from --seed
        first = flags.get("seed", 0)
        fields["seeds"] = tuple(range(first, first + args.trials))
    return replace(cfg, **fields)


def _require_spec(cfg, command: str):
    if cfg.network is None:
        raise ConfigError(f"{command} requires --spec")
    return load_netspec(cfg.network)


def cmd_width_audit(args) -> int:
    cfg = _load(args)
    spec = _require_spec(cfg, "width-audit")
    audit = width_audit(spec, args.n)
    print(f"widths: {spec.widths}")
    print(f"max hidden width M = {audit.max_width} at layer {audit.arg_layer}")
    print(f"wide_enough (M >= N={args.n}): {audit.wide_enough}")
    print(f"pyramidal_from: {audit.pyramidal_from}")
    return 0


def cmd_check_assumptions(args) -> int:
    cfg = _load(args)
    spec = _require_spec(cfg, "check-assumptions")
    dataset = cfg.dataset.load()
    ok = True

    report = check_distinct_patches(dataset.X, spec.input_layout)
    print(f"distinct input patches: {'PASS' if report.holds else 'FAIL'} "
          f"(min gap {report.min_gap:.3e})")
    ok &= report.holds

    for k in hidden_layer_indices(spec):
        conv = check_conv_structure(spec, k, trials=16, seed=cfg.seeds[0])
        print(
            f"layer {k} lifted full rank: "
            f"{'PASS' if conv.holds else 'FAIL'} "
            f"(fraction {conv.full_rank_fraction:.2f})"
        )
        ok &= conv.holds
    try:
        ensure_hidden_activations(spec)
        print("hidden activation growth conditions: PASS")
    except WideCnnError as exc:
        print(f"hidden activation growth conditions: FAIL ({exc})")
        ok = False
    return 0 if ok else 1


def cmd_rank_genericity(args) -> int:
    cfg = _load(args)
    result = experiments.run_rank_genericity(cfg)
    N, width = result.reports[0].rows, result.reports[0].cols
    print(f"full-rank fraction over {len(cfg.seeds)} seeds (N={N}): "
          f"{result.fraction_full:.2f}")
    # the claim needs analytic activations up to a layer at least N wide;
    # for any other network the fraction is reported without one
    acts = [result.spec.activation(l) for l in range(1, result.layer + 1)]
    claim = width >= N and all(a is not None and a.profile().analytic for a in acts)
    return 1 if claim and result.fraction_full < 0.99 else 0


def cmd_construct_independent(args) -> int:
    cfg = _load(args)
    act = experiments.named_activation(cfg.activation)
    seed = cfg.seeds[0]
    if cfg.network is not None:
        spec = load_netspec(cfg.network)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((args.n, spec.input_width))
        ccfg = ConstructionParams(seed=seed)
        k = cfg.wide_layer
    else:
        spec, X, ccfg = experiments.independence_demo(args.n, act, seed)
        k = 1
    report = independence_construction_report(spec, X, k, ccfg)
    F = forward(spec, report.params, X, up_to=k).F[k]
    rank = estimate_rank(F)
    print(f"rank(F_{k}) = {rank.estimated_rank} of N={args.n} "
          f"(sigma_min {rank.sigma_min:.3e}, alpha {report.alpha:g})")
    lifted_ok = all(_lifted_full_rank(spec, l, report.params.weights[l])
                    for l in range(1, k + 1) if report.params.weights[l] is not None)
    print(f"lifted matrices full rank: {lifted_ok}")
    return 0 if rank.estimated_rank == args.n and lifted_ok else 1


def cmd_construct_zeroloss(args) -> int:
    cfg = _load(args)
    spec, dataset, k = experiments.zero_loss_demo_case(cfg.case, seed=cfg.seeds[0])
    params = zero_loss_construction(
        spec, dataset, k, ConstructionParams(seed=cfg.seeds[0])
    )
    trace = forward(spec, params, dataset.X)
    value = loss(trace, dataset.Y)
    membership = s_k_membership(spec, params, trace, k)
    print(f"case {cfg.case}: loss = {value:.3e}, full-rank set membership: "
          f"{membership.in_good_set}")
    return 0 if membership.in_good_set else 1


def cmd_fit_expressivity(args) -> int:
    cfg = _load(args)
    seed = cfg.seeds[0]
    act = experiments.named_activation(cfg.activation)
    base, X, ccfg = experiments.independence_demo(args.n, act, seed)
    spec = NetworkSpec(base.input_width, base.layers + (Output(1),))
    rng = np.random.default_rng(seed + 1)
    y = rng.standard_normal(args.n)
    hidden, lam = expressivity_fit(spec, X, y, ccfg)
    out = forward(spec, expressivity_params(spec, hidden, lam), X).output[:, 0]
    worst = float(np.max(np.abs(out - y) / (1.0 + np.abs(y))))
    print(f"max scaled residual over {args.n} targets: {worst:.3e}")
    return 0 if worst <= 1e-8 else 1


def cmd_grad_bounds(args) -> int:
    cfg = _load(args)
    result = experiments.run_grad_bounds(cfg)
    print(f"sandwich held in {cfg.trials - result.violations}/{cfg.trials} trials")
    return 0 if result.violations == 0 else 1


def cmd_table2_sweep(args) -> int:
    cfg = _load(args)
    result = experiments.run_table2_sweep(cfg)
    print(",".join(experiments.SCHEMAS["table2.v1"]))
    for row in result.rows:
        print(",".join(row.csv_row()))
    return 0


def cmd_train(args) -> int:
    cfg = _load(args)
    spec = _require_spec(cfg, "train")
    dataset = cfg.dataset.load()
    rng = np.random.default_rng(cfg.seeds[0])
    params0 = Params.fan_in_gaussian(spec, rng)
    result = train_adam(spec, params0, dataset, cfg.train_config(cfg.seeds[0]))
    print(f"final loss {result.loss_curve[-1]:.6e}, "
          f"train errors {result.train_error_count}/{dataset.sample_count}")
    if cfg.out:
        experiments.write_csv(
            cfg.out, "loss-curve.v1",
            [[str(i), repr(v)] for i, v in enumerate(result.loss_curve)],
        )
    return 0


def _path(value: str) -> str:
    """A non-empty path; an empty one is a usage error."""
    if not value:
        raise argparse.ArgumentTypeError("expected a non-empty path")
    return value


# argparse options of each flag
_FLAGS = {
    "--config": {"type": _path, "help": "experiment config JSON file"},
    "--seed": {"type": int, "help": "override the first seed"},
    "--out": {"help": "output CSV path"},
    "--spec": {"help": "network description JSON file"},
    "--n": {"type": int, "default": 8, "help": "sample count N"},
    "--case": {"type": int, "choices": (1, 2, 3), "help": "zero-loss demo case"},
    "--trials": {"type": int, "help": "number of trials; rank-genericity runs "
                 "that many seeds, counted up from --seed"},
    "--activation": {"help": "sigmoid | relu | softplus(alpha)"},
}

# subcommand -> (handler, help, the flags it reads; "!" marks a required one)
_COMMANDS = {
    "width-audit": (cmd_width_audit, "max hidden width vs sample count",
                    "--config --spec --n!"),
    "check-assumptions": (cmd_check_assumptions, "data and structure checks",
                          "--config --seed --spec"),
    "rank-genericity": (cmd_rank_genericity, "rank of features under random weights",
                        "--config --seed --out --spec --trials --activation"),
    "construct-independent": (cmd_construct_independent, "rank-N feature construction",
                              "--config --seed --spec --n"),
    "construct-zeroloss": (cmd_construct_zeroloss, "exact zero-loss parameters",
                           "--config --seed --case"),
    "fit-expressivity": (cmd_fit_expressivity, "exact interpolation of targets",
                         "--config --seed --n"),
    "grad-bounds": (cmd_grad_bounds, "gradient sandwich on random nets",
                    "--config --seed --out --trials"),
    "table2-sweep": (cmd_table2_sweep, "desk-scale filter-count sweep",
                     "--config --seed --out"),
    "train": (cmd_train, "Adam training run", "--config --seed --out --spec"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widecnn",
        description="Feature rank, expressivity, and loss landscape "
        "experiments for patch-based CNNs",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            option = flag.rstrip("!")
            p.add_argument(option, required=flag.endswith("!"), **_FLAGS[option])
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage problems via exit(2)
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (WideCnnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, FormatError)) else 1
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
