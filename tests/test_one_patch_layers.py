"""Dense and output layers are one-patch convolutions: the same operations
serve every weighted layer, and only a layout whose one patch reads the
whole layer in order takes the copy-free shortcuts."""

import numpy as np
import pytest

from widecnn import (
    Conv,
    FullyConnected,
    Identity,
    NetworkSpec,
    Output,
    Params,
    ReLU,
    Sigmoid,
    Softplus,
    backward,
    forward,
    lift_adjoint,
    lift_weights,
)
from widecnn.architectures import desk_sweep_network
from widecnn.layout import PatchLayout, conv1d_layout, full_layout

from oracles import (
    finite_difference_gradient,
    lifted_backward,
    max_relative_gradient_error,
    naive_conv_forward,
)


def bits(a):
    return None if a is None else (a.shape, a.tobytes())


def as_conv(layer, in_width, keep_output):
    """The layer as ``Conv(full_layout(in_width), width)``; an Output layer
    stays one when ``keep_output``, because the loss needs it last."""
    if isinstance(layer, FullyConnected):
        return Conv(full_layout(in_width), layer.width, layer.activation)
    if isinstance(layer, Output) and not keep_output:
        return Conv(full_layout(in_width), layer.width, Identity())
    return layer


def twin(spec, keep_output=False):
    return NetworkSpec(spec.input_width, tuple(
        as_conv(layer, width, keep_output)
        for layer, width in zip(spec.layers, spec.widths)))


NETS = {
    "desk": desk_sweep_network(20, 4, 3),
    "dense-first": NetworkSpec(6, (
        FullyConnected(9, Softplus(4.0)),
        Conv(conv1d_layout(9, 4, 1), 2, Sigmoid()),
        FullyConnected(5, ReLU()),
        Output(3),
    )),
    "output-only": NetworkSpec(6, (Output(3),)),
}


@pytest.mark.parametrize("name", sorted(NETS))
def test_dense_layers_equal_their_whole_layer_conv_twins(name):
    spec = NETS[name]
    rng = np.random.default_rng(31)
    X = rng.standard_normal((7, spec.input_width))
    Y = rng.standard_normal((7, spec.widths[-1]))
    params = Params.fan_in_gaussian(spec, rng)
    conv, head = twin(spec), twin(spec, keep_output=True)
    assert not any(isinstance(layer, FullyConnected) for layer in conv.layers)
    assert not isinstance(conv.layers[-1], Output)

    def run(net):
        trace = forward(net, params, X)
        out = [bits(a) for a in (*trace.F, *trace.G)]
        if isinstance(net.layers[-1], Output):
            grads = backward(net, params, trace, Y)
            out += [bits(grads.flat)] + [bits(a) for a in grads.deltas]
        return out

    assert run(conv) == run(spec)[:2 * (spec.depth + 1)]
    assert run(head) == run(spec)
    for k in range(1, spec.depth + 1):
        V = rng.standard_normal((spec.widths[k - 1], spec.widths[k]))
        assert spec.filter_shape(k) == conv.filter_shape(k)
        assert bits(lift_weights(conv, k, params.weights[k])) == bits(
            lift_weights(spec, k, params.weights[k]))
        assert bits(lift_adjoint(conv, k, V)) == bits(lift_adjoint(spec, k, V))


def test_dense_lifting_is_the_filter_matrix_itself():
    """U = W bit for bit. The adjoint sums one (l, T) block, so it gives W
    back too, except that -0.0 comes back +0.0, as from any layout's sum."""
    spec = NetworkSpec(4, (FullyConnected(3, Sigmoid()), Output(2)))
    W = np.array([[0.0, -0.0, 1.5], [-2.0, np.pi, -0.0], [7.0, 0.0, 1e-300],
                  [-1e300, 5e-324, -5e-324]])
    assert bits(lift_weights(spec, 1, W)) == bits(W)
    assert bits(lift_adjoint(spec, 1, W)) == bits(W + 0.0)


class TestWholeLayerShortcuts:
    def test_gather_and_scatter_of_the_whole_layer_are_views(self):
        layout = full_layout(5)
        rows = np.arange(15.0).reshape(3, 5)
        patches = layout.extract(rows, out=np.empty((3, 1, 5)))
        assert patches.shape == (3, 1, 5) and np.shares_memory(patches, rows)
        back = layout.scatter_add(patches)
        assert back.shape == (3, 5) and np.shares_memory(back, rows)
        np.testing.assert_array_equal(back, rows)

    def test_whole_layer_layouts_are_shared_by_width(self):
        a = NetworkSpec(4, (FullyConnected(6, Sigmoid()), Output(6)))
        b = NetworkSpec(6, (Output(2),))
        assert a.layer_layout(2) is b.layer_layout(1) is full_layout(6)

    def test_only_the_in_order_single_patch_is_the_whole_layer(self):
        assert full_layout(4)._whole_layer
        assert conv1d_layout(4, 4)._whole_layer  # the same index array
        assert not PatchLayout(4, [[2, 0, 3, 1]])._whole_layer
        assert not conv1d_layout(4, 3)._whole_layer


# a one-patch layout that reads the layer out of order: it must gather and
# scatter like any convolution
PERMUTED = PatchLayout(5, [[3, 0, 4, 1, 2]])


PERMUTED_NETS = {
    "first": NetworkSpec(5, (Conv(PERMUTED, 3, Sigmoid()),
                             FullyConnected(4, Softplus(3.0)), Output(2))),
    "above-dense": NetworkSpec(4, (FullyConnected(5, Sigmoid()),
                                   Conv(PERMUTED, 3, Softplus(3.0)), Output(2))),
}


class TestPermutingSinglePatch:
    def test_gathers_a_copy_in_patch_order(self):
        rows = np.arange(10.0).reshape(2, 5)
        patches = PERMUTED.extract(rows)
        assert not np.shares_memory(patches, rows)
        np.testing.assert_array_equal(patches[:, 0], rows[:, [3, 0, 4, 1, 2]])
        np.testing.assert_array_equal(PERMUTED.scatter_add(patches), rows)

    @pytest.mark.parametrize("name", sorted(PERMUTED_NETS))
    def test_matches_the_oracles(self, name):
        spec = PERMUTED_NETS[name]
        k = next(k for k in range(1, spec.depth + 1) if spec.layer_layout(k) is PERMUTED)
        rng = np.random.default_rng(40)
        for _ in range(5):
            params = Params.gaussian(spec, rng, weight_scale=0.8)
            X = rng.standard_normal((4, spec.input_width))
            Y = rng.standard_normal((4, 2))
            trace = forward(spec, params, X)
            naive = naive_conv_forward(trace.F[k - 1], PERMUTED, params.weights[k],
                                       params.biases[k])
            np.testing.assert_allclose(trace.G[k], naive, rtol=1e-12, atol=1e-12)
            grads = backward(spec, params, trace, Y)
            reference = lifted_backward(spec, params, trace, Y)
            for l in range(1, spec.depth + 1):
                np.testing.assert_allclose(grads.deltas[l], reference.deltas[l],
                                           rtol=1e-12, atol=1e-14)
            assert max_relative_gradient_error(grads, reference) <= 1e-12
            fd = finite_difference_gradient(spec, params, X, Y)
            assert max_relative_gradient_error(grads, fd) <= 1e-5
