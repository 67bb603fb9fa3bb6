"""A workspace changes where forward and backward write, never what they
compute, and a training run that uses one faults its arrays in once."""

import resource
import sys

import numpy as np
import pytest

from widecnn import (
    Conv,
    FullyConnected,
    MaxPool,
    NetworkSpec,
    Output,
    Params,
    ReLU,
    Sigmoid,
    Softplus,
    Workspace,
    backward,
    finite_difference_gradient,
    forward,
    train_adam,
)
from widecnn.architectures import desk_sweep_network
from widecnn.data import synthesize_dataset
from widecnn.layout import conv1d_layout
from widecnn.training import TrainConfig

# (spec, first layer that backward differentiates); the pooled net is
# differentiated above its pooling layer only
NETS = {
    "desk": (desk_sweep_network(12, 3, 3), 1),
    "conv-softplus": (NetworkSpec(12, (
        Conv(conv1d_layout(12, 3, 1), 3, Sigmoid()),
        FullyConnected(7, Softplus(4.0)),
        Output(3),
    )), 1),
    "conv-pool-dense": (NetworkSpec(12, (
        Conv(conv1d_layout(12, 3, 1), 4, ReLU()),
        MaxPool(conv1d_layout(40, 8, 4)),
        FullyConnected(6, Sigmoid()),
        Output(3),
    )), 3),
}


def bits(a):
    return None if a is None else (a.shape, a.tobytes())


def snapshot(trace, grads):
    """Every G, F, delta and the flat gradient, as bytes, taken before the
    next call that shares the workspace overwrites them."""
    return ([bits(a) for a in trace.F], [bits(a) for a in trace.G],
            [bits(a) for a in grads.deltas], bits(grads.flat))


@pytest.mark.parametrize("net", sorted(NETS))
def test_shared_workspace_equals_fresh_calls(net):
    """Minibatches of 8 from 21 rows (the last one shorter), then the full
    batch, which grows every buffer, then a minibatch again."""
    spec, start = NETS[net]
    rng = np.random.default_rng(7)
    X, Y = rng.standard_normal((21, 12)), rng.standard_normal((21, 3))
    params = Params.fan_in_gaussian(spec, rng)
    workspace = Workspace()
    for rows in (slice(0, 8), slice(8, 16), slice(16, 21), slice(0, 21), slice(5, 13)):
        shared = forward(spec, params, X[rows], workspace=workspace)
        shared_grads = backward(spec, params, shared, Y[rows], start, workspace=workspace)
        fresh = forward(spec, params, X[rows])
        assert snapshot(shared, shared_grads) == snapshot(
            fresh, backward(spec, params, fresh, Y[rows], start))


def test_flat_gradient_is_the_parameter_vector_of_its_segment():
    """A workspace's gradient buffer keeps the size of its largest request;
    the flat vector of a shorter segment is its prefix. A set of separate
    arrays has no flat vector."""
    spec, _ = NETS["conv-softplus"]
    rng = np.random.default_rng(9)
    X, Y = rng.standard_normal((6, 12)), rng.standard_normal((6, 3))
    params = Params.fan_in_gaussian(spec, rng)
    workspace = Workspace()
    trace = forward(spec, params, X, workspace=workspace)
    whole = backward(spec, params, trace, Y, workspace=workspace).flat.copy()
    upper = backward(spec, params, trace, Y, 2, workspace=workspace)
    assert upper.flat.tobytes() == whole[-upper.flat.size:].tobytes()
    assert upper.flat.size == sum(a.size for a in (*upper.grad_W, *upper.grad_b)
                                  if a is not None)
    assert finite_difference_gradient(spec, params, X, Y).flat is None


@pytest.mark.parametrize("net", sorted(NETS))
def test_calls_without_a_workspace_share_no_memory(net):
    spec, start = NETS[net]
    rng = np.random.default_rng(8)
    X, Y = rng.standard_normal((10, 12)), rng.standard_normal((10, 3))
    params = Params.fan_in_gaussian(spec, rng)
    arrays = []
    for _ in range(2):
        trace = forward(spec, params, X)
        grads = backward(spec, params, trace, Y, start)
        arrays.append([a for a in (*trace.F[1:], *trace.G, *grads.deltas,
                                   *grads.grad_U, grads.flat) if a is not None])
    first, second = arrays
    assert not any(np.shares_memory(a, b) for a in first for b in second)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor page-fault counts are Linux getrusage semantics")
def test_training_faults_its_arrays_in_once():
    """A warm 10-epoch T1=16 desk run takes about 250 minor faults an epoch
    with its workspace, nearly all of them the first touch of the run's
    buffers and Adam state; allocating every step's arrays afresh took
    about 1,950, because each 1.8 MB full-batch array is mapped and
    faulted in again every epoch."""
    train = synthesize_dataset(256, 64, 10, seed=0)
    spec = desk_sweep_network(64, 16, 10)
    params0 = Params.fan_in_gaussian(spec, np.random.default_rng(0))
    cfg = TrainConfig(epochs=10, batch_size=64)
    train_adam(spec, params0, train, cfg)  # warm
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train_adam(spec, params0, train, cfg)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 400 * cfg.epochs
