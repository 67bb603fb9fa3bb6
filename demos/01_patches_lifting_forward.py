# ---
# jupyter:
#   jupytext:
#     formats: py:percent
#     text_representation:
#       extension: .py
#       format_name: percent
# ---

# %% [markdown]
# # Patch-based convolution as a matrix product
#
# A convolutional layer here is defined by an explicit *patch layout*: an
# ordered list of index sets into the previous layer, all of one size,
# covering every neuron, no two identical. Each of the `T` shared filters
# is applied to each patch, and the output unit for (patch `p`, filter
# `t`) sits at position `h = p*T + t`.
#
# The *lifting map* embeds the small filter matrix `W` into a full weight
# matrix `U` so that the whole layer becomes a single matrix product
# `G = F_prev @ U + b`. This demo shows the lifted matrix explicitly,
# checks it against the per-patch definition, and runs a stack with
# max-pooling.

# %%
import numpy as np

from widecnn import (
    Conv,
    MaxPool,
    NetworkSpec,
    Output,
    Params,
    Sigmoid,
    forward,
    lift_weights,
)
from widecnn.layout import conv1d_layout, full_layout

np.set_printoptions(precision=3, suppress=True)

# %% [markdown]
# ## The lifted matrix, written out
#
# Two filters of length 3 over a 5-wide layer with stride-1 windows give a
# 6-unit output. Using symbols a..f = 1..6 for the six filter entries, the
# transpose of the lifted matrix shows each filter sliding across the
# layer, one row per output unit:

# %%
layout = conv1d_layout(5, 3, 1)
print("patches:", layout.patches.tolist())

spec = NetworkSpec(5, (Conv(layout, 2, Sigmoid()),))
W = np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])  # columns are filters
U = lift_weights(spec, 1, W)
print("U^T =")
print(U.T)

# %% [markdown]
# ## The product form agrees with the per-patch definition
#
# `forward` gathers patches and multiplies by `W` directly (the usual
# im2col trick), which equals `sigma(X @ U + b)` up to rounding. We check
# both against a scalar loop over patches and filters.

# %%
rng = np.random.default_rng(0)
params = Params.gaussian(spec, rng)
X = rng.standard_normal((4, 5))

trace = forward(spec, params, X)
lifted = Sigmoid()(X @ lift_weights(spec, 1, params.weights[1]) + params.biases[1])

naive = np.zeros((4, 6))
for i in range(4):
    for p, idx in enumerate(layout.patches):
        for t in range(2):
            h = p * 2 + t
            naive[i, h] = params.weights[1][:, t] @ X[i, list(idx)] + params.biases[1][h]
naive = Sigmoid()(naive)

print("max |forward - lifted product| :", np.abs(trace.F[1] - lifted).max())
print("max |forward - per-patch loop| :", np.abs(trace.F[1] - naive).max())

# %% [markdown]
# ## Fully connected = one whole-layer patch; pooling takes patch maxima

# %%
fc_as_conv = NetworkSpec(5, (Conv(full_layout(5), 3, Sigmoid()),))
print("fully connected lift is the identity:",
      np.array_equal(lift_weights(fc_as_conv, 1, np.ones((5, 3))), np.ones((5, 3))))

stack = NetworkSpec(
    5,
    (
        Conv(layout, 2, Sigmoid()),       # 5 -> 6
        MaxPool(conv1d_layout(6, 2, 2)),  # 6 -> 3, per-patch max
        Output(2),                        # linear read-out
    ),
)
stack_params = Params.gaussian(stack, rng)
trace = forward(stack, stack_params, X)
print("widths:", stack.widths)
print("pooled layer equals patch maxima:",
      np.array_equal(trace.F[2], trace.F[1].reshape(4, 3, 2).max(axis=2)))
