"""A workspace changes where forward and backward write, never what they
compute; it recycles a buffer only when nothing holds an array of it, and
repeated calls, with a workspace or without, fault their arrays in once."""

import os
import resource
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import widecnn
from widecnn import (
    Conv,
    FullyConnected,
    GradientSet,
    MaxPool,
    NetworkSpec,
    Output,
    Params,
    ReLU,
    Sigmoid,
    Softplus,
    Workspace,
    backward,
    forward,
    train_adam,
)
from widecnn.architectures import desk_sweep_network
from widecnn.data import synthesize_dataset
from widecnn.layout import conv1d_layout
from widecnn.training import TrainConfig

from oracles import finite_difference_gradient

# (spec, first layer that backward differentiates); the pooled net is
# differentiated above its pooling layer only
NETS = {
    "desk": (desk_sweep_network(12, 3, 3), 1),
    "conv-softplus": (NetworkSpec(12, (
        Conv(conv1d_layout(12, 3, 1), 3, Sigmoid()),
        FullyConnected(7, Softplus(4.0)),
        Output(3),
    )), 1),
    "conv-conv": (NetworkSpec(12, (
        Conv(conv1d_layout(12, 3, 1), 2, Sigmoid()),
        Conv(conv1d_layout(20, 4, 2), 3, Softplus(4.0)),
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
    """Every G, F, delta and the flat gradient, as bytes."""
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
    grads = backward(spec, params, trace, Y)
    whole = backward(spec, params, trace, Y, workspace=workspace).flat.copy()
    upper = backward(spec, params, trace, Y, 2, workspace=workspace)
    assert upper.flat.tobytes() == whole[-upper.flat.size:].tobytes()
    assert upper.flat.size == sum(a.size for a in (*upper.grad_W, *upper.grad_b)
                                  if a is not None)
    assert finite_difference_gradient(spec, params, X, Y).flat is None
    assert whole.tobytes() == np.concatenate(
        [a.ravel() for pair in zip(grads.grad_W, grads.grad_b) for a in pair
         if a is not None]).tobytes()
    # separate arrays make no flat vector, even where one is a view
    separate = GradientSet((None, np.arange(6.0).reshape(3, 2)),
                           (None, np.array([10.0, 20.0])), (None, None))
    assert separate.flat is None


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
                                   grads.flat) if a is not None])
    first, second = arrays
    assert not any(np.shares_memory(a, b) for a in first for b in second)


@pytest.mark.parametrize("net", sorted(NETS))
def test_a_held_trace_keeps_its_bytes(net):
    """A trace and gradient set held across the next calls on the same
    workspace keep their bytes, and the next calls take fresh buffers."""
    spec, start = NETS[net]
    rng = np.random.default_rng(11)
    X, Y = rng.standard_normal((2, 9, 12)), rng.standard_normal((2, 9, 3))
    params = Params.fan_in_gaussian(spec, rng)
    workspace = Workspace()
    held = forward(spec, params, X[0], workspace=workspace)
    held_grads = backward(spec, params, held, Y[0], start, workspace=workspace)
    before = snapshot(held, held_grads)
    trace = forward(spec, params, X[1], workspace=workspace)
    grads = backward(spec, params, trace, Y[1], start, workspace=workspace)
    assert snapshot(held, held_grads) == before
    old = [a for a in (*held.F[1:], *held.G, *held_grads.deltas, held_grads.flat)
           if a is not None]
    new = [a for a in (*trace.F[1:], *trace.G, *grads.deltas, grads.flat) if a is not None]
    assert not any(np.shares_memory(a, b) for a in old for b in new)


def test_a_slice_keeps_its_buffer_busy():
    """A slice of F_1 alone, with the trace dropped, keeps F_1's buffer
    from being recycled; once the slice is dropped too, the buffer is
    recycled."""
    spec, _ = NETS["conv-conv"]
    rng = np.random.default_rng(12)
    X = rng.standard_normal((3, 6, 12))
    params = Params.fan_in_gaussian(spec, rng)
    workspace = Workspace()
    piece = forward(spec, params, X[0], workspace=workspace).F[1][2:4, 5:]
    before = piece.tobytes()
    again = forward(spec, params, X[1], workspace=workspace).F[1]
    assert piece.tobytes() == before and not np.shares_memory(piece, again)
    buffer = id(again.base)  # the role keeps the buffer alive, so its id stays its own
    del again, piece
    assert id(forward(spec, params, X[2], workspace=workspace).F[1].base) == buffer


def test_threads_without_a_workspace_get_the_serial_bits():
    """Threads calling forward and backward without a workspace at the
    same time each use their own default workspace: every thread gets the
    bits of the serial calls."""
    spec, start = NETS["conv-conv"]
    rng = np.random.default_rng(13)
    params = Params.fan_in_gaussian(spec, rng)
    batches = [(rng.standard_normal((20, 12)), rng.standard_normal((20, 3)))
               for _ in range(4)]

    def bits_of(X, Y):
        trace = forward(spec, params, X)
        return snapshot(trace, backward(spec, params, trace, Y, start))

    serial = [bits_of(X, Y) for X, Y in batches]
    results = {}

    def work(i):
        X, Y = batches[i]
        results[i] = [bits_of(X, Y) for _ in range(30)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(batches))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(results[i] == [serial[i]] * 30 for i in range(len(batches)))


def test_each_thread_has_its_own_default_workspace():
    """A buffer that a call without a workspace left free on one thread is
    recycled by that thread's next call, never by another thread's. The
    reference is weak, so that it keeps no buffer busy."""
    spec, _ = NETS["conv-conv"]
    rng = np.random.default_rng(16)
    X = rng.standard_normal((5, 12))
    params = Params.fan_in_gaussian(spec, rng)
    buffer = weakref.ref(forward(spec, params, X).F[1].base)
    seen = []
    thread = threading.Thread(
        target=lambda: seen.append(forward(spec, params, X).F[1].base is buffer()))
    thread.start()
    thread.join(timeout=60)
    assert seen == [False]
    assert forward(spec, params, X).F[1].base is buffer()


def test_filter_gradients_take_no_lifted_role():
    """Every filter gradient is formed from the layer's gathered patches,
    which pass through the scratch role; no dense F_{l-1}^T D_l is kept."""
    spec, start = NETS["conv-conv"]
    rng = np.random.default_rng(10)
    X, Y = rng.standard_normal((5, 12)), rng.standard_normal((5, 3))
    params = Params.fan_in_gaussian(spec, rng)
    workspace = Workspace()
    backward(spec, params, forward(spec, params, X, workspace=workspace), Y, start,
             workspace=workspace)
    roles = {key if isinstance(key, str) else key[0] for key in workspace._buffers}
    assert roles == {"G", "F", "delta", "grad", "scratch"}


def test_whole_layer_gradients_take_no_gather_scratch():
    """A dense layer's patches are a view of F_{l-1}, so backward on a
    dense-first net leaves the scratch role at the size forward gave it:
    N x 20 for the sigmoid, not the N x 784 of the input layer."""
    spec = NetworkSpec(784, (FullyConnected(20, Sigmoid()), Output(3)))
    rng = np.random.default_rng(4)
    X, Y = rng.standard_normal((32, 784)), rng.standard_normal((32, 3))
    params = Params.fan_in_gaussian(spec, rng)
    workspace = Workspace()
    trace = forward(spec, params, X, workspace=workspace)
    assert workspace._buffers["scratch"].size == 32 * 20
    backward(spec, params, trace, Y, workspace=workspace)
    assert workspace._buffers["scratch"].size == 32 * 20


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor page-fault counts are Linux getrusage semantics")
def test_training_faults_its_arrays_in_once():
    """A warm 10-epoch T1=16 desk run takes about 32 minor faults an epoch,
    nearly all of them the first touch of the run's flat parameters and
    Adam state: its forwards and backwards recycle the buffers that the
    warm run left in the thread's default workspace. A workspace of its
    own took about 200 an epoch, and allocating every step's arrays
    afresh about 1,950, because each 1.8 MB full-batch array is mapped
    and faulted in again every epoch."""
    train = synthesize_dataset(256, 64, 10, seed=0)
    spec = desk_sweep_network(64, 16, 10)
    params0 = Params.fan_in_gaussian(spec, np.random.default_rng(0))
    cfg = TrainConfig(epochs=10, batch_size=64)
    train_adam(spec, params0, train, cfg)  # warm
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train_adam(spec, params0, train, cfg)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 100 * cfg.epochs


def test_warm_calls_recycle_every_buffer():
    """After a first call, forward and backward take every role's buffer
    again, the scratch included: each layer drops its gathered patches
    and the activation's scratch before the next take of the scratch. A
    layer that kept them would make the role adopt a fresh buffer. The
    references are weak, so that they keep no buffer busy."""
    spec = NetworkSpec(400, (
        Conv(conv1d_layout(400, 9, 1), 8, Sigmoid()),
        Conv(conv1d_layout(3136, 16, 8), 4, Sigmoid()),
        Output(10),
    ))
    rng = np.random.default_rng(14)
    X, Y = rng.uniform(size=(32, 400)), rng.standard_normal((32, 10))
    params = Params.fan_in_gaussian(spec, rng)
    workspace = Workspace()
    for call in range(2):
        trace = forward(spec, params, X, workspace=workspace)
        backward(spec, params, trace, Y, workspace=workspace)
        del trace
        if call == 0:
            first = {key: weakref.ref(buf) for key, buf in workspace._buffers.items()}
    assert first.keys() == workspace._buffers.keys()
    assert all(buf() is workspace._buffers[key] for key, buf in first.items())


# ten warm forwards of a pooled net without a workspace in a fresh
# interpreter, whose allocator has not been shaped by other tests; prints
# their minor faults
FAULT_CHILD = """
import resource
import numpy as np
from widecnn import Params, forward
from widecnn.architectures import mnist_conv_pool_network
spec = mnist_conv_pool_network(4, 4, 8)
rng = np.random.default_rng(15)
X = rng.uniform(size=(32, spec.input_width))
params = Params.fan_in_gaussian(spec, rng)
forward(spec, params, X)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    forward(spec, params, X)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor page-fault counts are Linux getrusage semantics")
def test_forwards_without_a_workspace_fault_their_arrays_in_once():
    """Warm forwards without a workspace recycle the buffers of the
    thread's default workspace: about 0.1 minor faults a call. Allocating
    every trace afresh took about 26 a call, and a forward that kept a
    layer's sigmoid scratch while the next layer gathered, so that the
    scratch role took a fresh 1.5 MB gather every call, about 41."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(widecnn.__file__).resolve().parent.parent)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    child = subprocess.run([sys.executable, "-c", FAULT_CHILD], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert int(child.stdout) < 8 * 10
