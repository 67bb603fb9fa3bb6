"""Measurement loop, metrics and report of the widecnn benchmark.

An untraced run (``--trace 0``) measures the end-to-end metrics: set-up
time as the median of several fresh processes, then one checked warm-up
pass and as many timed passes as fit in ``--seconds``. A traced run
(``--trace 1``) spends half its time on untraced passes and half on passes
with spans installed. It reports the per-layer numbers of the traced pass
with the median wall time, and the tracing overhead. Either way every pass's outputs are checked, and the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import Tracer
from workloads import WORKLOADS, Verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 7
MIN_PASSES = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB",
                    "ops_per_s": "ops/s"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if last == "bytes":
        return "B"
    if last.endswith("_s"):
        return "s"
    if last in ("share", "coverage"):
        return "fraction"
    if last == "rank_checks_per_accept":
        return "ratio"
    return "count"


def measure(workload, state, seconds, tally, tracer=None):
    """Timed passes until the next one would end after ``seconds``, and at
    least MIN_PASSES. Returns [(outcome, verdict)]; checks run untraced."""
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if tracer is not None:
            tracer.begin_run(len(passes))
            tracer.active = True
        outcome = workload.run(state)
        if tracer is not None:
            tracer.active = False
        verdict = workload.check(state, outcome)
        tally.add(verdict)
        passes.append((outcome, verdict))
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now - start + (now - began) > seconds:
            return passes


def probe_setup_s(args) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    widecnn and built the workload's inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        cmd.append("--small")
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1]) - start


def untraced_run(workload, args, tally):
    setup_s = statistics.median(probe_setup_s(args) for _ in range(SETUP_PROBES))
    state = workload.setup(args.seed, args.small)
    tally.add(workload.check(state, workload.run(state)))  # warm-up
    passes = measure(workload, state, args.seconds, tally)
    rates = [workload.rates_of(o, v) for o, v in passes]
    named = {name: statistics.median(r[name] for r in rates) for name in workload.rates}
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(o.wall_s for o, _ in passes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": named[next(iter(workload.rates))],
    }
    return metrics, named, passes, None


def traced_run(workload, args, tally):
    tracer = Tracer()
    patches = tracer.install()
    tracer.begin_run("setup")
    tracer.active = True
    state = workload.setup(args.seed, args.small)
    tracer.active = False
    Tracer.uninstall(patches)
    tally.add(workload.check(state, workload.run(state)))  # warm-up
    plain = measure(workload, state, args.seconds / 2, tally)
    patches = tracer.install()
    try:
        traced = measure(workload, state, args.seconds / 2, tally, tracer)
    finally:
        Tracer.uninstall(patches)
    # Per-layer numbers of the median pass, so its self times add up exactly.
    index, (outcome, _) = sorted(enumerate(traced), key=lambda p: p[1][0].wall_s)[
        len(traced) // 2]
    metrics = tracer.run_metrics(index, outcome.wall_s)
    metrics["layout.build_s"] = tracer.run_metrics("setup", 1.0)["layout.build.self_s"]
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - statistics.median(o.wall_s for o, _ in plain))
    metrics["training.digest_mismatches"] = tally.digest_mismatches
    return metrics, {}, traced, tracer


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="minimal input sizes, for the benchmark's self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the inputs, print the monotonic clock, exit")
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.setup(args.seed, args.small)
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0
    env = environment(args)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    tally = Verdict()
    run = traced_run if args.trace else untraced_run
    metrics, rates, passes, tracer = run(workload, args, tally)
    unit = layer_unit if args.trace else END_TO_END_UNITS.__getitem__
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {unit(name)}")
    for name, value in rates.items():
        print(f"rate {name} {value!r} {workload.rates[name]}")
    print(f"check passes={len(passes)} attempted={tally.attempted} "
          f"failed={tally.failed} failure_rate={tally.failure_rate!r} "
          f"digest_mismatches={tally.digest_mismatches} "
          f"digest_unchecked={tally.digest_unchecked}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, env=env, rates=rates, failure_rate=tally.failure_rate,
                  digest_mismatches=tally.digest_mismatches,
                  digest_unchecked=tally.digest_unchecked,
                  pass_wall_s=[o.wall_s for o, _ in passes])
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0
