"""Forward keeps one feature matrix per layer: each weighted layer's
products land in its F buffer and become F in place, and
``ForwardTrace.G`` recomputes a nonlinear layer's G on first read by
forward's own tile walk, bit for bit, then caches it read-only. Backward
and the gradient sandwich recompute G only where sigma' needs it
(softplus)."""

import sys
from concurrent.futures import ThreadPoolExecutor

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
    backward,
    forward,
    gradient_bounds,
    network,
)
from widecnn.architectures import mnist_conv_pool_network
from widecnn.layout import conv1d_layout, conv2d_layout
from widecnn.network import _WORKSPACE, patch_products


def bits(a):
    return None if a is None else (a.shape, a.tobytes())


def batch(spec, n, seed):
    rng = np.random.default_rng(seed)
    return Params.fan_in_gaussian(spec, rng), rng.uniform(-1.0, 1.0, (n, spec.input_width))


def net(sigma, pool=False):
    """A conv layer with more filters than taps (so a tile is cut to its
    G), optionally a pooling layer, a dense layer wide enough for the
    sandwich at 9 rows and a narrow one, then the output."""
    return NetworkSpec(12, (
        Conv(conv1d_layout(12, 3, 1), 4, sigma),
        *([MaxPool(conv1d_layout(40, 2, 2))] if pool else []),
        FullyConnected(30, sigma),
        FullyConnected(6, sigma),
        Output(3),
    ))


ACTIVATIONS = [Sigmoid(), ReLU(), Softplus(4.0)]


def test_forward_keeps_no_G_role():
    """After one forward of the reference net on a fresh thread, no G
    buffer is left and the scratch holds at most one ROW_TILE; the F
    buffers hold the whole batch."""
    spec = mnist_conv_pool_network(100)
    params, X = batch(spec, 32, 11)

    def sizes():
        forward(spec, params, X)
        return {key: buf.size for key, buf in _WORKSPACE._buffers.items()}

    with ThreadPoolExecutor(max_workers=1) as pool:
        held = pool.submit(sizes).result(timeout=120)
    assert {key[0] for key in held if isinstance(key, tuple)} == {"F"}
    assert held["scratch"] <= network.ROW_TILE
    assert held[("F", 1)] == 32 * spec.widths[1] > network.ROW_TILE


@pytest.mark.parametrize("sigma", ACTIVATIONS, ids=repr)
def test_trace_G_is_cached_and_read_only(sigma):
    spec = net(sigma, pool=True)
    params, X = batch(spec, 9, 1)
    trace = forward(spec, params, X)
    G = trace.G
    assert len(G) == spec.depth + 1 and G[0] is None and G[2] is None
    assert G[-1] is G[5] is trace.F[5]  # the output's G is its F
    for k in (1, 3, 4):
        first = G[k]
        assert G[k] is first and not first.flags.writeable
        assert bits(trace.F[k]) == bits(sigma(first))
    with pytest.raises(IndexError):
        G[spec.depth + 1]
    assert [id(a) for a in G] == [id(G[k]) for k in range(len(G))]


@pytest.mark.parametrize("rows", [1, 3, 32, 50])
def test_trace_G_is_patch_products_plus_bias(rows):
    """Reference layer 1 gathers 676 patches of 9 taps, so a block is 43
    rows and 50 rows span two. Forward, ``patch_products`` and ``G`` walk
    the same blocks, so at every batch size G_1 is ``patch_products`` +
    bias and F_1 its sigmoid, bit for bit."""
    spec = mnist_conv_pool_network(100)
    params, X = batch(spec, rows, 12)
    layout, W = spec.plan[1].layout, params.weights[1]
    trace = forward(spec, params, X)
    want = patch_products(layout, X, W).reshape(rows, -1) + params.biases[1]
    assert bits(trace.G[1]) == bits(want)
    assert bits(trace.F[1]) == bits(Sigmoid()(want))


def test_threads_reading_one_trace_share_one_G():
    """Threads that read the same trace's G at once, each gathering into
    its own scratch, all get the one cached array of every layer, with the
    bits of a trace read by one thread."""
    spec = net(Softplus(4.0), pool=True)
    params, X = batch(spec, 40, 10)
    want = [bits(a) for a in forward(spec, params, X).G]
    trace = forward(spec, params, X)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            reads = [f.result(timeout=60) for f in
                     [pool.submit(lambda: [id(a) for a in trace.G]) for _ in range(24)]]
    finally:
        sys.setswitchinterval(interval)
    assert all(r == reads[0] for r in reads)
    assert [bits(a) for a in trace.G] == want


def test_a_held_trace_recomputes_its_own_G():
    """G read after later forwards on the same thread is the G of the
    trace's own batch: it reads the trace's F, which the later calls do
    not overwrite."""
    spec = net(Softplus(4.0), pool=True)
    params, X = batch(spec, 7, 2)
    want = [bits(a) for a in forward(spec, params, X).G]
    held = forward(spec, params, X)
    forward(spec, params, X[::-1].copy())
    forward(spec, params, 2.0 * X)
    assert [bits(a) for a in held.G] == want


def no_recompute(*args):
    raise AssertionError("G was recomputed")


@pytest.mark.parametrize("sigma", [Sigmoid(), ReLU()], ids=repr)
def test_sigmoid_and_relu_gradients_never_recompute_G(monkeypatch, sigma):
    """The sandwich admits ReLU only below its wide layer, so ReLU's is
    layer 3, whose width 6 holds the 5 rows."""
    spec = net(sigma)
    params, X = batch(spec, 5, 3)
    Y = np.random.default_rng(4).standard_normal((5, 3))
    trace = forward(spec, params, X)
    monkeypatch.setattr(network, "_pre_activation", no_recompute)
    backward(spec, params, trace, Y)
    gradient_bounds(spec, params, trace, Y, 2 if isinstance(sigma, Sigmoid) else 3)


def test_softplus_gradients_recompute_G(monkeypatch):
    """Softplus's sigma' needs t: backward reads G_3 and G_2, and the
    sandwich reads G_3 from the cache that backward filled."""
    spec = net(Softplus(4.0))
    params, X = batch(spec, 9, 5)
    Y = np.random.default_rng(6).standard_normal((9, 3))
    recompute, calls = network._pre_activation, []

    def counted(layer, *args):
        calls.append(layer.width)
        return recompute(layer, *args)

    monkeypatch.setattr(network, "_pre_activation", counted)
    trace = forward(spec, params, X)
    grads = backward(spec, params, trace, Y, start_layer=2)
    assert calls == [6, 30]
    gradient_bounds(spec, params, trace, Y, 2)
    assert calls == [6, 30]
    fresh = backward(spec, params, forward(spec, params, X), Y, start_layer=2)
    assert bits(grads.flat) == bits(fresh.flat)


def test_relu_derivative_from_F_keeps_every_bit():
    relu = ReLU()
    t = np.array([-np.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 2.0, np.inf, np.nan, -np.nan])
    assert bits(relu.derivative(None, relu(t))) == bits(relu.derivative(t))


def test_a_dense_layer_is_one_tile_of_every_row(monkeypatch):
    """A whole-layer layout's G is one GEMM over all rows, as
    ``patch_products`` issues it, whatever the tile; a conv layer above it
    walks blocks of one tile of gathered patches (here one row of 3
    patches of 4 taps), and both give their bits to F in place."""
    monkeypatch.setattr(network, "ROW_TILE", 16)
    spec = NetworkSpec(8, (FullyConnected(8, Sigmoid()),
                           Conv(conv2d_layout(2, 4, 2, 2), 2, Sigmoid()), Output(2)))
    params, X = batch(spec, 50, 7)
    trace = forward(spec, params, X)
    want = X @ params.weights[1] + params.biases[1]
    assert bits(trace.G[1]) == bits(want)
    assert bits(trace.F[1]) == bits(Sigmoid()(want))
    G2 = (patch_products(spec.plan[2].layout, trace.F[1], params.weights[2]).reshape(50, -1)
          + params.biases[2])
    assert bits(trace.G[2]) == bits(G2)
    assert bits(trace.F[2]) == bits(Sigmoid()(G2))


def test_softplus_backward_recycles_its_buffers(monkeypatch):
    """Recomputing a softplus layer's G gathers into the thread's scratch,
    so backward reads G before it takes the scratch for sigma': a second
    forward and backward on a thread replace no buffer."""
    spec = net(Softplus(4.0), pool=False)
    params, X = batch(spec, 9, 8)
    Y = np.random.default_rng(9).standard_normal((9, 3))
    take, replaced = network._Workspace.take, []

    def counted(self, key, shape):
        before = id(self._buffers.get(key))
        out = take(self, key, shape)
        if id(self._buffers[key]) != before:
            replaced.append(key)
        return out

    def two_steps():
        for _ in range(2):
            replaced.clear()
            backward(spec, params, forward(spec, params, X), Y)
        return replaced

    monkeypatch.setattr(network._Workspace, "take", counted)
    with ThreadPoolExecutor(max_workers=1) as pool:
        assert pool.submit(two_steps).result(timeout=60) == []
