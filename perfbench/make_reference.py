"""Regenerate the desk-train reference digests.

    python3 perfbench/make_reference.py FIRST_SEED LAST_SEED

Runs the desk-train sweep for each seed in the inclusive range, under the
benchmark's thread pinning, and writes the digest of its Table-2 rows and
loss curves to desk_train_reference.json. Only a change that is meant to
alter the sweep's numbers should regenerate it.
"""

import json
import sys

import run

if __name__ == "__main__":
    run.pin_threads()
    run.use_checkout_sources()
    import workloads

    first, last = (int(a) for a in sys.argv[1:3])
    desk = workloads.DeskTrain()
    digests = {}
    for seed in range(first, last + 1):
        cfg = desk.setup(seed)["cfg"]
        digests[str(seed)] = workloads.sweep_digest(
            workloads.experiments.run_table2_sweep(cfg))
        print(seed, digests[str(seed)], flush=True)
    doc = {"config": workloads._jsonable(desk.full), "digests": digests}
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
