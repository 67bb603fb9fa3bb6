# ---
# jupyter:
#   jupytext:
#     formats: py:percent
#     text_representation:
#       extension: .py
#       format_name: percent
# ---

# %% [markdown]
# # Exact zero-loss points and the shape of the loss around them
#
# For class-structured targets (each sample's target row is a row of a
# full-rank embedding matrix), networks with a wide layer admit *exact*
# global minimizers of the squared loss, built in closed form. The recipe
# depends on how far the wide layer k sits from the output L:
#
# * **k = L-1**: solve the output weights against the rank-N features.
# * **k = L-2**: send every class to a chosen full-row-rank row of a
#   target matrix (inverting the activation entrywise), then solve the
#   output layer.
# * **k <= L-3**: collapse classes at layer k+1 onto rows of a matrix
#   with all-distinct entries, rerun the independence construction on
#   those m class representatives through the remaining hidden layers,
#   then solve the output layer.
#
# At such points the gradient of the loss with respect to the lifted
# weight matrix of layer k+1 vanishes, and a sandwich bound shows the
# converse: wherever the wide layer's features and all later weight
# matrices have full rank, that gradient is pinned between two positive
# multiples of the residual norm, so zero gradient forces zero loss.

# %%
import numpy as np

from widecnn import (
    ConstructionParams,
    TrainConfig,
    backward,
    critical_point_check,
    forward,
    gradient_bounds,
    loss,
    s_k_membership,
    train_adam,
    zero_loss_construction,
)
from widecnn.experiments import random_landscape_case, zero_loss_demo_case

# %% [markdown]
# ## All three regimes hit machine-zero loss

# %%
for case in (1, 2, 3):
    spec, dataset, k = zero_loss_demo_case(case, seed=10 + case)
    params = zero_loss_construction(spec, dataset, k, ConstructionParams(seed=10 + case))
    trace = forward(spec, params, dataset.X)
    grads = backward(spec, params, trace, dataset.Y, start_layer=k + 1)
    print(f"case {case}: widths {spec.widths}, wide layer {k}")
    print(f"  loss {loss(trace, dataset.Y):.2e}, "
          f"grad wrt lifted layer-{k + 1} weights "
          f"{np.linalg.norm(grads.grad_W[k + 1]):.2e}, "
          f"full-rank set: {s_k_membership(spec, params, trace, k).in_good_set}")

# %% [markdown]
# ## Infinitely many minima: different seeds, different parameters

# %%
spec, dataset, k = zero_loss_demo_case(2, seed=20)
a = zero_loss_construction(spec, dataset, k, ConstructionParams(seed=1))
b = zero_loss_construction(spec, dataset, k, ConstructionParams(seed=2))
gap = np.sqrt(sum(
    float(np.sum((a.weights[l] - b.weights[l]) ** 2))
    for l in range(1, spec.depth + 1)
))
print(f"parameter distance between two zero-loss points: {gap:.3f}")

# %% [markdown]
# ## The gradient sandwich away from minima
#
# On random architectures meeting the width/pyramid conditions, the
# gradient norm always lies between the two products of extreme singular
# values, extreme activation derivatives, and the residual.

# %%
rng = np.random.default_rng(0)
for _ in range(5):
    spec, k, X, Y, params = random_landscape_case(rng)
    rep = gradient_bounds(spec, params, forward(spec, params, X), Y, k)
    print(f"lower {rep.lower:9.3e} <= grad {rep.grad_norm:9.3e} "
          f"<= upper {rep.upper:9.3e}   (residual {rep.residual:.3f})")

# %% [markdown]
# ## A scale-aware equivalence check
#
# `critical_point_check` compares the loss against a tolerance and the
# gradient against that tolerance transported through the upper sandwich
# factor. At a constructed minimum both sides agree; at a random
# full-rank point with real residual, both sides are positive.

# %%
spec, dataset, k = zero_loss_demo_case(1, seed=30)
params = zero_loss_construction(spec, dataset, k, ConstructionParams(seed=30))
report = critical_point_check(spec, params, dataset, k)
print(f"constructed point: loss {report.loss:.2e}, grad {report.grad_norm:.2e}, "
      f"equivalence holds: {report.equivalence_holds}")

# %% [markdown]
# ## Plain gradient descent stays put at the constructed minimum
#
# The gradient there is ~1e-13 (float rounding of the closed-form
# solves), so raw gradient steps do not move. Adam would: its
# epsilon-normalized steps have size ~learning-rate even for vanishing
# gradients, which is exactly why the trainer exposes a plain-gd mode for
# critical-point experiments.

# %%
result = train_adam(spec, params, dataset, TrainConfig(epochs=10, method="gd"))
print("loss over 10 plain-gd epochs:", [f"{v:.1e}" for v in result.loss_curve])
