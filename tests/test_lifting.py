"""The lifting map: golden placement, linearity, and its adjoint."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widecnn import (
    Conv,
    MaxPool,
    NetworkSpec,
    Sigmoid,
    StructuralError,
    UnsupportedLayerError,
    lift_adjoint,
    lift_weights,
)
from widecnn.layout import PatchLayout, conv1d_layout, full_layout


def conv_spec(layout, filters):
    return NetworkSpec(layout.width, (Conv(layout, filters, Sigmoid()),))


@st.composite
def layouts(draw):
    """Arbitrary valid layouts: sliding windows for coverage plus a few
    random (possibly non-contiguous, unordered) index sets."""
    width = draw(st.integers(3, 9))
    size = draw(st.integers(1, width))
    patches = [tuple(range(s, s + size)) for s in range(width - size + 1)]
    seen = {frozenset(p) for p in patches}
    for _ in range(draw(st.integers(0, 3))):
        extra = tuple(draw(st.permutations(range(width)))[:size])
        if frozenset(extra) not in seen:
            seen.add(frozenset(extra))
            patches.append(extra)
    return PatchLayout(width, tuple(patches))


class TestGoldenExample:
    def test_two_filters_of_length_three_over_five_inputs(self):
        """Stride-1 lifting of a 3x2 filter matrix must produce the 6x5
        banded transpose with rows (a,b,c,0,0), (d,e,f,0,0), shifted."""
        a, b, c, d, e, f = 1.0, 2.0, 3.0, 4.0, 5.0, 6.0
        W = np.array([[a, d], [b, e], [c, f]])
        spec = conv_spec(conv1d_layout(5, 3, 1), 2)
        expected_UT = np.array(
            [
                [a, b, c, 0, 0],
                [d, e, f, 0, 0],
                [0, a, b, c, 0],
                [0, d, e, f, 0],
                [0, 0, a, b, c],
                [0, 0, d, e, f],
            ]
        )
        np.testing.assert_array_equal(lift_weights(spec, 1, W).T, expected_UT)

    def test_fully_connected_lift_is_identity(self):
        spec = conv_spec(full_layout(4), 3)
        W = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(lift_weights(spec, 1, W), W)

    def test_zero_filters_lift_to_zero(self):
        spec = conv_spec(conv1d_layout(6, 2, 2), 3)
        U = lift_weights(spec, 1, np.zeros((2, 3)))
        assert not U.any()


class TestErrors:
    def test_shape_mismatch(self):
        spec = conv_spec(conv1d_layout(5, 3, 1), 2)
        with pytest.raises(StructuralError,
                           match=r"^layer 1 weights \(2, 2\), expected \(3, 2\)$"):
            lift_weights(spec, 1, np.zeros((2, 2)))
        with pytest.raises(StructuralError,
                           match=r"^layer 1 lifted matrix \(5, 5\), expected \(5, 6\)$"):
            lift_adjoint(spec, 1, np.zeros((5, 5)))

    def test_max_pool_layer_unsupported(self):
        spec = NetworkSpec(4, (MaxPool(conv1d_layout(4, 2, 2)),))
        with pytest.raises(UnsupportedLayerError):
            lift_weights(spec, 1, np.zeros((2, 2)))
        with pytest.raises(UnsupportedLayerError):
            lift_adjoint(spec, 1, np.zeros((4, 2)))


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(layouts(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_row_placement_rule(self, layout, filters, seed):
        """Column h = p*T + t of U carries filter t at patch p's indices
        and zeros everywhere else."""
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((layout.patch_size, filters))
        U = lift_weights(conv_spec(layout, filters), 1, W)
        for p, idx in enumerate(layout.patches):
            for t in range(filters):
                column = U[:, p * filters + t]
                np.testing.assert_array_equal(column[list(idx)], W[:, t])
                mask = np.ones(layout.width, dtype=bool)
                mask[list(idx)] = False
                assert not column[mask].any()

    @settings(max_examples=50, deadline=None)
    @given(layouts(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_linearity(self, layout, filters, seed):
        rng = np.random.default_rng(seed)
        spec = conv_spec(layout, filters)
        A = rng.standard_normal((layout.patch_size, filters))
        B = rng.standard_normal((layout.patch_size, filters))
        x, y = rng.standard_normal(2)
        np.testing.assert_allclose(
            lift_weights(spec, 1, x * A + y * B),
            x * lift_weights(spec, 1, A) + y * lift_weights(spec, 1, B),
            rtol=1e-12,
            atol=1e-12,
        )

    @settings(max_examples=50, deadline=None)
    @given(layouts(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_adjoint_inner_product_identity(self, layout, filters, seed):
        """<lift(W), V> == <W, adjoint(V)> defines the gradient pull-back."""
        rng = np.random.default_rng(seed)
        spec = conv_spec(layout, filters)
        W = rng.standard_normal((layout.patch_size, filters))
        V = rng.standard_normal((layout.width, layout.patch_count * filters))
        lhs = float(np.sum(lift_weights(spec, 1, W) * V))
        rhs = float(np.sum(W * lift_adjoint(spec, 1, V)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @settings(max_examples=50, deadline=None)
    @given(layouts(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_scatter_add_is_the_adjoint_of_extract(self, layout, rows, seed):
        """<extract(x), y> == <x, scatter_add(y)>: the backward of a
        convolution adds each patch entry onto the neuron it was read from."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, layout.width))
        y = rng.standard_normal((rows, layout.patch_count, layout.patch_size))
        lhs = float(np.sum(layout.extract(x) * y))
        rhs = float(np.sum(x * layout.scatter_add(y)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
