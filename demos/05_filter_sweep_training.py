# ---
# jupyter:
#   jupytext:
#     formats: py:percent
#     text_representation:
#       extension: .py
#       format_name: percent
# ---

# %% [markdown]
# # Desk-scale filter sweep: wide first layer, zero training error
#
# The reference experiment behind this package trains a digit classifier
# while growing the first convolutional layer's filter count, tracking
# the rank and smallest singular value of the feature matrices plus the
# final loss and error counts. Here we run its faithful desk-scale
# analog: 256 samples with 10 balanced classes, a pooling-free
# conv -> dense -> dense -> output stack, Adam with step-decayed learning
# rate, minibatch 64. Once the first layer's width passes the sample
# count, its feature matrix reaches rank 256, at initialization and
# after training, and training error hits zero.
#
# (On real IDX digit files, replace the config's `dataset` with
# `DatasetConfig(source="idx", images=..., labels=...)`; this demo uses
# synthetic data so it runs anywhere.)

# %%
import time

from widecnn.experiments import SCHEMAS, read_csv, run_table2_sweep, table2_desk_config

# a lighter sweep than the acceptance run, for demo turnaround
cfg = table2_desk_config(
    n_subset=128,
    filter_counts=(2, 4, 8),
    epochs=1500,
    out="widecnn_sweep_demo.csv",
)

started = time.time()
result = run_table2_sweep(cfg)
print(f"swept {len(result.runs)} filter counts in {time.time() - started:.0f}s\n")

# %%
header = f"{'T_1':>4} {'size(F_1)':>10} {'rank':>5} {'smin(F_1)':>10} " \
         f"{'loss':>9} {'train err':>9} {'epochs':>7}"
print(header)
for run in result.runs:
    row = run.row
    print(f"{row.t1:>4} {row.f1_size[0]}x{row.f1_size[1]:>6} {row.f1_rank:>5} "
          f"{row.f1_sigma_min:>10.2e} {row.loss:>9.3f} {row.train_error:>9} "
          f"{len(run.loss_curve):>7}")
    assert run.init_f1_rank == min(cfg.n_subset, row.f1_size[1])

# %% [markdown]
# ## The CSV report
#
# The written file carries a schema tag line above an RFC-4180 header row
# whose columns mirror the reference table exactly.

# %%
tag, columns, rows = read_csv(cfg.out)
print("schema tag:", tag)
print("columns:   ", columns)
print("first row: ", rows[0])
assert tuple(columns) == SCHEMAS["table2.v1"]

# %% [markdown]
# The same experiment is available from the command line:
#
# ```
# widecnn table2-sweep --out sweep.csv
# widecnn rank-genericity --trials 100
# widecnn construct-zeroloss --case 3 --seed 7
# widecnn width-audit --spec reference.netspec --n 60000
# ```
