"""Entry point of the widecnn benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The BLAS pool is pinned to one thread
before numpy is imported, in this process only, and the workload runs
against the widecnn sources under ``src/`` of the same checkout.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS thread: steadier timings than two on a 2-CPU machine."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_sources() -> None:
    src = ROOT / "src"
    if not (src / "widecnn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no widecnn sources under {src}")
    sys.path.insert(0, str(src))


if __name__ == "__main__":
    pin_threads()
    use_checkout_sources()
    import harness

    sys.exit(harness.main(sys.argv[1:]))
