"""Command-line entry point.

Each subcommand reads an optional JSON experiment config plus flag
overrides and writes CSV or text reports. Flag overrides go through the
config dataclasses, so they are checked like config keys, and ``--n``
must be a positive integer. Exit codes: 0 on success; 1 when a run
finishes but an assertion or acceptance condition fails, or a run fails
(any other ``WideCnnError``, an ``OSError``, or running out of memory);
2 on usage errors, that is a malformed flag value, config, netspec or IDX
file (``ConfigError``, ``FormatError``). Every error is one ``error:``
line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import experiments
from .analysis import estimate_rank, s_k_membership, width_audit
from .assumptions import (
    check_conv_structure,
    check_distinct_patches,
    ensure_hidden_activations,
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
from .network import Conv, FullyConnected, NetworkSpec, Output, Params, forward, lift_weights
from .training import train_adam


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="experiment config JSON file")
    parser.add_argument("--seed", type=int, help="override the first seed")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--spec", help="network description JSON file")


def _load(args) -> experiments.ExperimentConfig:
    if getattr(args, "n", 1) < 1:
        raise ConfigError(f"--n must be a positive integer, got {args.n}")
    cfg = (
        experiments.load_config(args.config)
        if args.config
        else experiments.ExperimentConfig()
    )
    if args.seed is not None:
        cfg = replace(cfg, seeds=(args.seed,) + tuple(cfg.seeds[1:]))
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    if args.spec is not None:
        cfg = replace(cfg, network=args.spec)
    return cfg


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

    for k in range(1, spec.depth + 1):
        if isinstance(spec.layer(k), (Conv, FullyConnected)):
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
    if args.trials is not None:
        cfg = replace(cfg, seeds=tuple(range(args.trials)))
    if args.activation is not None:
        cfg = replace(cfg, activation=args.activation)
    result = experiments.run_rank_genericity(cfg)
    N, width = result.reports[0].rows, result.reports[0].cols
    print(f"full-rank fraction over {len(cfg.seeds)} seeds (N={N}): "
          f"{result.fraction_full:.2f}")
    # the claim needs analytic activations up to a layer at least N wide;
    # for any other network the fraction is reported without one
    spec, k = experiments.rank_genericity_network(cfg)
    acts = [spec.activation(l) for l in range(1, k + 1)]
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
    lifted_ok = all(
        estimate_rank(lift_weights(spec, l, report.params.weights[l])).full_rank
        for l in range(1, k + 1)
        if report.params.weights[l] is not None
    )
    print(f"lifted matrices full rank: {lifted_ok}")
    return 0 if rank.estimated_rank == args.n and lifted_ok else 1


def cmd_construct_zeroloss(args) -> int:
    cfg = _load(args)
    case = args.case if args.case is not None else cfg.case
    spec, dataset, k = experiments.zero_loss_demo_case(case, seed=cfg.seeds[0])
    params = zero_loss_construction(
        spec, dataset, k, ConstructionParams(seed=cfg.seeds[0])
    )
    trace = forward(spec, params, dataset.X)
    value = loss(trace, dataset.Y)
    membership = s_k_membership(spec, params, trace, k)
    print(f"case {case}: loss = {value:.3e}, full-rank set membership: "
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
    if args.trials is not None:
        cfg = replace(cfg, trials=args.trials)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widecnn",
        description="Feature rank, expressivity, and loss landscape "
        "experiments for patch-based CNNs",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("width-audit", help="max hidden width vs sample count")
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="sample count N")
    p.set_defaults(func=cmd_width_audit)

    p = sub.add_parser("check-assumptions", help="data and structure checks")
    _add_common(p)
    p.set_defaults(func=cmd_check_assumptions)

    p = sub.add_parser("rank-genericity", help="rank of features under random weights")
    _add_common(p)
    p.add_argument("--trials", type=int, help="number of seeds")
    p.add_argument("--activation", help="sigmoid | relu | softplus(alpha)")
    p.set_defaults(func=cmd_rank_genericity)

    p = sub.add_parser("construct-independent", help="rank-N feature construction")
    _add_common(p)
    p.add_argument("--n", type=int, default=8, help="sample count N")
    p.set_defaults(func=cmd_construct_independent)

    p = sub.add_parser("construct-zeroloss", help="exact zero-loss parameters")
    _add_common(p)
    p.add_argument("--case", type=int, choices=(1, 2, 3))
    p.set_defaults(func=cmd_construct_zeroloss)

    p = sub.add_parser("fit-expressivity", help="exact interpolation of targets")
    _add_common(p)
    p.add_argument("--n", type=int, default=8, help="number of targets")
    p.set_defaults(func=cmd_fit_expressivity)

    p = sub.add_parser("grad-bounds", help="gradient sandwich on random nets")
    _add_common(p)
    p.add_argument("--trials", type=int)
    p.set_defaults(func=cmd_grad_bounds)

    p = sub.add_parser("table2-sweep", help="desk-scale filter-count sweep")
    _add_common(p)
    p.set_defaults(func=cmd_table2_sweep)

    p = sub.add_parser("train", help="Adam training run")
    _add_common(p)
    p.set_defaults(func=cmd_train)

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
