"""Forward's row tiles and chunks: a batch split into many GEMM blocks or
elementwise pieces gives the one-block trace bit for bit, meets the
per-patch oracles, raises the same errors, and one forward of the
reference net allocates little beyond its trace."""

import re
import tracemalloc

import numpy as np
import pytest

from widecnn import (
    Activation,
    ActivationProfile,
    Conv,
    FullyConnected,
    MaxPool,
    NetworkSpec,
    NumericOverflowError,
    Output,
    Params,
    ReLU,
    Sigmoid,
    Softplus,
    StructuralError,
    WideCnnError,
    forward,
    network,
)
from widecnn.network import max_pool, patch_products
from widecnn.architectures import desk_sweep_network, mnist_conv_pool_network
from widecnn.layout import (
    conv1d_layout,
    conv2d_layout,
    conv2d_multichannel_layout,
    pool2d_multichannel_layout,
)

from oracles import gather_max_pool, naive_conv_forward

NETS = {
    "desk": desk_sweep_network(12, 3, 3),
    "conv-conv": NetworkSpec(12, (
        Conv(conv1d_layout(12, 3, 1), 2, Sigmoid()),
        Conv(conv1d_layout(20, 4, 2), 3, Softplus(4.0)),
        Output(3),
    )),
    "conv-pool-dense": NetworkSpec(12, (
        Conv(conv1d_layout(12, 3, 1), 4, ReLU()),
        MaxPool(conv1d_layout(40, 8, 4)),
        FullyConnected(6, Sigmoid()),
        Output(3),
    )),
    "2d-conv-pool": NetworkSpec(64, (
        Conv(conv2d_layout(8, 8, 3, 3), 2, Sigmoid()),
        MaxPool(pool2d_multichannel_layout(6, 6, 2, 2, 2, 2, 2)),
        Conv(conv2d_multichannel_layout(3, 3, 2, 2, 2), 3, Softplus(4.0)),
        FullyConnected(5, ReLU()),
        Output(3),
    )),
}
# as ROW_TILE and CHUNK, 16 entries split every layer of these nets into
# blocks of one or two rows, or slices of one row; 250 gives blocks of a
# few rows, with a shorter last block
TILES = (16, 250)


def bits(a):
    return None if a is None else (a.shape, a.tobytes())


class Exp(Activation):
    """exp(t): unbounded above, so a finite pre-activation above 709.8
    gives an infinite feature, which softplus and ReLU never do."""

    name = "exp"

    def __call__(self, t, out=None, scratch=None):
        return np.exp(t, out=out)

    def derivative(self, t, F=None, out=None):
        return np.exp(t, out=out)

    def profile(self):
        return ActivationProfile(0.0, None, (1.0, 1.0), None, True, True)


def batch(spec, n, seed):
    rng = np.random.default_rng(seed)
    return Params.fan_in_gaussian(spec, rng), rng.uniform(-1.0, 1.0, (n, spec.input_width))


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("net", sorted(NETS))
def test_many_blocks_match_one_block(monkeypatch, net, tile):
    """Layer by layer, from the blocked trace's own F_{k-1}: the bias add,
    the activation, the pooling and a whole-layer GEMM give the one-block
    bits; a blocked gather's GEMM may round differently in BLAS, within
    2*l*eps*(|patch| @ |W|) per entry. Recycled buffers change no bit."""
    spec = NETS[net]
    cases = [batch(spec, n, seed) for seed, n in enumerate((1, 7, 33))]
    with monkeypatch.context() as patched:
        patched.setattr(network, "ROW_TILE", tile)
        patched.setattr(network, "CHUNK", tile)
        blocked = [forward(spec, params, X) for params, X in cases]
        # from 33 rows down to 1, each call recycles the previous one's buffers
        for (params, X), trace in reversed(list(zip(cases, blocked))):
            shared = forward(spec, params, X)
            assert list(map(bits, (*shared.F, *shared.G))) == \
                list(map(bits, (*trace.F, *trace.G)))
            del shared
    eps = np.finfo(np.float64).eps
    for (params, X), trace in zip(cases, blocked):
        for k in range(1, spec.depth + 1):
            layout, prev = spec.layer_layout(k), trace.F[k - 1]
            if spec.is_pooling(k):
                assert bits(trace.F[k]) == bits(max_pool(layout, prev))
                continue
            W = params.weights[k]
            G = patch_products(layout, prev, W).reshape(len(X), -1) + params.biases[k]
            if layout._whole_layer or len(X) == 1:  # one GEMM either way
                assert bits(trace.G[k]) == bits(G)
            else:
                scale = patch_products(layout, np.abs(prev), np.abs(W)).reshape(len(X), -1)
                bound = 2 * layout.patch_size * eps * scale + eps * np.abs(G)
                assert np.all(np.abs(trace.G[k] - G) <= bound)
            assert bits(trace.F[k]) == bits(spec.activation(k)(trace.G[k]))


@pytest.mark.parametrize("net", sorted(NETS))
def test_many_blocks_meet_the_per_patch_oracles(monkeypatch, net):
    monkeypatch.setattr(network, "ROW_TILE", TILES[0])
    spec = NETS[net]
    params, X = batch(spec, 33, 5)
    trace = forward(spec, params, X)
    for k in range(1, spec.depth + 1):
        layout = spec.layer_layout(k)
        if spec.is_pooling(k):
            got, want = trace.F[k], gather_max_pool(layout, trace.F[k - 1])
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
        else:
            want = naive_conv_forward(trace.F[k - 1], layout, params.weights[k],
                                      params.biases[k], spec.activation(k))
            np.testing.assert_allclose(trace.F[k], want, rtol=1e-12, atol=1e-12)


class TestErrorsInALaterBlock:
    """Rows 0, 16 and 32 of a 33-row batch in blocks of one or two rows:
    the layer-1 error is the one the whole batch in one block raises."""

    SPEC = NetworkSpec(6, (Conv(conv1d_layout(6, 3, 1), 2, Exp()),
                           FullyConnected(4, Sigmoid()), Output(2)))
    # with unit layer-1 filters, 1e308 overflows G_1; 2e307 leaves G_1
    # finite and overflows exp(G_1), so F_1 is not finite
    CASES = {
        "G": ({16: 1e308}, NumericOverflowError, "non-finite pre-activation at layer 1$"),
        "F": ({16: 2e307}, NumericOverflowError, "non-finite activation at layer 1$"),
        "F then G": ({0: 2e307, 32: 1e308}, NumericOverflowError,
                     "non-finite pre-activation at layer 1$"),
        "G, NaN above": ({32: 1e308}, StructuralError,
                         "layer 3 parameters contain non-finite values"),
    }

    def error(self, params, X):
        with pytest.raises(WideCnnError) as info:
            forward(self.SPEC, params, X)
        return type(info.value), str(info.value)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_error(self, monkeypatch, case):
        rows, error, match = self.CASES[case]
        params = Params.gaussian(self.SPEC, np.random.default_rng(40))
        params = params.with_layer(1, np.ones((3, 2)), params.biases[1])
        if "NaN" in case:
            W = params.weights[3].copy()
            W[0, 0] = np.nan
            params = params.with_layer(3, W, params.biases[3])
        X = np.random.default_rng(41).uniform(-1.0, 1.0, (33, 6))
        for i, value in rows.items():
            X[i] = value
        whole = self.error(params, X)
        assert whole[0] is error and re.search(match, whole[1])
        monkeypatch.setattr(network, "ROW_TILE", TILES[0])
        monkeypatch.setattr(network, "CHUNK", TILES[0])
        assert network._tile_rows(self.SPEC.widths[1]) == 2
        assert len(list(network._chunks(33, self.SPEC.widths[1]))) == 17
        assert self.error(params, X) == whole


def record_sizes(monkeypatch, cls):
    """Patch activation class ``cls`` to append the entry count of every
    input it is called with to the returned list."""
    sizes, call = [], cls.__call__

    def recording(self, t, out=None, scratch=None):
        sizes.append(np.size(t))
        return call(self, t, out=out, scratch=scratch)

    monkeypatch.setattr(cls, "__call__", recording)
    return sizes


class TestChunkedPasses:
    """The bias add, the finiteness sums and the activation of a layer
    wider than one ``CHUNK``: conv2d over 28x28 with 4 filters, 2704 units,
    16 * 2704 = 43 264 entries at N = 16. With the chunk patched to 7
    entries (slices of one row), to one row, to a value above one row
    (blocks of two rows) and left as it is, every G and F has the bits of
    one piece over the whole layer, and the same errors are raised."""

    N, WIDTH = 16, 2704
    CHUNKS = {"7": 7, "row": WIDTH, "two rows": 3 * WIDTH - 1, "real": network.CHUNK}

    def spec(self, sigma):
        return NetworkSpec(784, (
            Conv(conv2d_layout(28, 28, 3, 3), 4, sigma),
            MaxPool(pool2d_multichannel_layout(26, 26, 4, 2, 2, 2, 2)),
            FullyConnected(6, sigma),
            Output(3),
        ))

    def trace(self, monkeypatch, spec, params, X, chunk):
        with monkeypatch.context() as patched:
            patched.setattr(network, "CHUNK", chunk)
            return forward(spec, params, X)

    @pytest.mark.parametrize("sigma", [Sigmoid(), Softplus(4.0)], ids=repr)
    def test_bits_of_one_piece(self, monkeypatch, sigma):
        spec = self.spec(sigma)
        assert spec.widths[1] == self.WIDTH and self.N * self.WIDTH > network.CHUNK
        params, X = batch(spec, self.N, 17)
        sizes = record_sizes(monkeypatch, type(sigma))
        whole = self.trace(monkeypatch, spec, params, X, self.N * self.WIDTH)
        assert sizes == [self.N * self.WIDTH, self.N * 6]  # one call a layer
        for k in (1, 3):
            assert bits(whole.F[k]) == bits(sigma(whole.G[k]))
        expected = list(map(bits, (*whole.F, *whole.G)))
        for name, chunk in self.CHUNKS.items():
            sizes.clear()
            trace = self.trace(monkeypatch, spec, params, X, chunk)
            assert list(map(bits, (*trace.F, *trace.G))) == expected, name
            assert max(sizes) <= chunk, name
            assert sum(sizes) == self.N * (self.WIDTH + 6), name

    @pytest.mark.parametrize("case", ["G", "F"])
    def test_overflow_in_the_last_piece_names_its_layer(self, monkeypatch, case):
        """Unit layer-1 filters: two inputs of 1e308 overflow the last G_1
        entries of the last row; one of 5e307 leaves G_1 finite and
        overflows exp(G_1) there."""
        spec = self.spec(Exp())
        params, X = batch(spec, self.N, 18)
        params = params.with_layer(1, np.ones((9, 4)), params.biases[1])
        if case == "G":
            X[-1, -2:] = 1e308
        else:
            X[-1, -1] = 5e307
        message = {"G": "non-finite pre-activation at layer 1",
                   "F": "non-finite activation at layer 1"}[case]
        for chunk in (self.N * self.WIDTH, *self.CHUNKS.values()):
            with monkeypatch.context() as patched:
                patched.setattr(network, "CHUNK", chunk)
                with pytest.raises(NumericOverflowError) as caught:
                    forward(spec, params, X)
            assert str(caught.value) == message, chunk


def test_reference_forward_allocates_at_most_three_tiles_beyond_its_trace():
    """One forward of mnist_conv_pool_network(100) on 32 inputs returns a
    trace whose F matrices take about 22 MiB, and no G: each sigmoid
    layer's G passes through a buffer of one row tile, and every other
    temporary is a row block of at most one tile, so the peak stays
    within three tiles of the F matrices."""
    spec = mnist_conv_pool_network(100)
    params, X = batch(spec, 32, 11)
    tracemalloc.start()
    try:
        trace = forward(spec, params, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    F_bytes = sum(a.nbytes for a in trace.F[1:])
    assert F_bytes > 20 * 2**20
    assert peak <= F_bytes + 3 * network.ROW_TILE * 8
