"""Golden digests of the reference net's features: the SHA-256 of every G,
read through ``ForwardTrace.G``, and every F of two reference-forward
batches (seed 11, batches 0 and 1 of ``perfbench/workloads.py``), computed
in a child pinned to one BLAS thread, as the benchmark runs, and compared
with the committed ``reference_goldens.json``. Only a change that is meant
to alter these bits regenerates the file:

    PYTHONPATH=src python3 tests/test_reference_goldens.py --write
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import widecnn

GOLDENS = Path(__file__).resolve().parent / "reference_goldens.json"
SEED, BATCHES = 11, (0, 1)


def versions() -> dict:
    """The numpy and BLAS versions that the digests were computed with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def digests() -> dict:
    """{batch: {"G1": sha256, "F1": sha256, ...}} of the reference batches."""
    from test_benchmark_workloads import WORKLOADS_PATH, _load_workloads

    state = _load_workloads(WORKLOADS_PATH)["reference-forward"].setup(SEED)
    out = {}
    for i in BATCHES:
        trace = widecnn.forward(state["spec"], state["params"], state["batches"][i])
        out[str(i)] = {f"{name}{k}": hashlib.sha256(a.tobytes()).hexdigest()
                       for k in range(trace.last_layer + 1)
                       for name, a in (("G", trace.G[k]), ("F", trace.F[k]))
                       if a is not None}
    return out


def child_run() -> dict:
    """``versions`` and ``digests`` from a child whose BLAS pool has one
    thread; it imports the same widecnn sources as this process."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(widecnn.__file__).resolve().parent.parent), str(Path(__file__).parent)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                           text=True, timeout=300)
    if child.returncode != 0:
        raise RuntimeError(child.stderr)
    return json.loads(child.stdout)


def test_reference_features_keep_their_bits():
    golden, run = json.loads(GOLDENS.read_text()), child_run()
    differ = [f"batch {i} {name}" for i, names in golden["digests"].items()
              for name, digest in names.items()
              if run["digests"].get(i, {}).get(name) != digest]
    assert not differ and run["digests"].keys() == golden["digests"].keys(), (
        f"{', '.join(differ)} differ from {GOLDENS.name}, recorded under numpy "
        f"{golden['numpy']} and {golden['blas']}; this run has numpy {run['numpy']} "
        f"and {run['blas']}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDENS.write_text(json.dumps(child_run(), indent=1) + "\n")
    else:
        print(json.dumps({**versions(), "seed": SEED, "digests": digests()}))
