"""The layer plan a NetworkSpec builds once: each layer's layout, width,
filter shape, activation, unbounded flag and flat-parameter span agree with the same facts
worked out from the layer stack alone, and the spans split the flat vector
that training builds back into the arrays it was built from."""

import numpy as np
import pytest

from widecnn import Conv, Identity, MaxPool, Output, Params
from widecnn.architectures import desk_sweep_network, mnist_conv_pool_network
from widecnn.experiments import random_landscape_case
from widecnn.layout import full_layout
from widecnn.network import _param_views

from test_netspec_io import sample_spec


def _landscape_specs():
    rng = np.random.default_rng(123)
    return [random_landscape_case(rng)[0] for _ in range(50)]


SPECS = {
    "desk T1=2": lambda: [desk_sweep_network(64, 2, 10)],
    "desk T1=16": lambda: [desk_sweep_network(64, 16, 10)],
    "mnist 4-4-8": lambda: [mnist_conv_pool_network(4, 4, 8)],
    "landscape seed 123": _landscape_specs,
    "netspec sample": lambda: [sample_spec()],
    "reference netspec": lambda: [mnist_conv_pool_network(first_filters=100)],
}


def derived(spec):
    """[(layout, width, filter shape, activation, unbounded)] of layers
    1..L, chained from the layer stack without the plan; a layer is
    unbounded when a tail of its nonlinearity has no finite limit."""
    rows, width = [], spec.input_width
    for layer in spec.layers:
        layout = layer.layout if isinstance(layer, (Conv, MaxPool)) else full_layout(width)
        width = layer.out_width(width)
        shape = (None if isinstance(layer, MaxPool)
                 else (layout.patch_size, width // layout.patch_count))
        activation = (Identity() if isinstance(layer, Output)
                      else getattr(layer, "activation", None))
        profile = None if activation is None else activation.profile()
        unbounded = (profile is not None and not isinstance(activation, Identity)
                     and None in (profile.limit_neg, profile.limit_pos))
        rows.append((layout, width, shape, activation, unbounded))
    return rows


@pytest.mark.parametrize("name", SPECS)
def test_plan_matches_the_layer_stack(name):
    for spec in SPECS[name]():
        rows = derived(spec)
        assert spec.plan[0] is None and len(spec.plan) == spec.depth + 1
        assert spec.widths == (spec.input_width, *(row[1] for row in rows))
        stop = 0
        for k, (layout, width, shape, activation, unbounded) in enumerate(rows, 1):
            entry = spec.plan[k]
            assert spec.layer_layout(k) is entry.layout
            assert entry.layout == layout and entry.width == width
            if not isinstance(spec.layer(k), (Conv, MaxPool)):
                assert entry.layout is full_layout(spec.widths[k - 1])
            assert spec.filter_shape(k) == entry.filter_shape == shape
            assert spec.activation(k) == entry.activation == activation
            assert spec.is_pooling(k) == (shape is None)
            assert entry.unbounded is unbounded
            size = 0 if shape is None else shape[0] * shape[1] + width
            assert (entry.offset, entry.stop) == (stop, stop + size)
            stop += size


@pytest.mark.parametrize("name", SPECS)
def test_param_views_split_the_flat_vector_back(name):
    for spec in SPECS[name]():
        params = Params.gaussian(spec, np.random.default_rng(5))
        # the concatenation train_adam builds
        flat = np.concatenate([a.ravel() for pair in zip(params.weights, params.biases)
                               for a in pair if a is not None])
        assert flat.size == spec.plan[-1].stop
        for first in range(1, spec.depth + 1):
            weights, biases = _param_views(spec, flat[spec.plan[first].offset:], first)
            for k in range(spec.depth + 1):
                if k < first:
                    assert weights[k] is None and biases[k] is None
                    continue
                for got, drawn in ((weights[k], params.weights[k]),
                                   (biases[k], params.biases[k])):
                    if drawn is None:
                        assert got is None
                    else:
                        assert got.shape == drawn.shape
                        np.testing.assert_array_equal(got, drawn)
