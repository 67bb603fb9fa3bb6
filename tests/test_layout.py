"""Patch layout invariants and builders."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from widecnn import MaxPool, StructuralError
from widecnn.architectures import mnist_conv_pool_network
from widecnn.layout import (
    PatchLayout,
    conv1d_layout,
    conv2d_layout,
    conv2d_multichannel_layout,
    full_layout,
    pool2d_multichannel_layout,
)

from oracles import loop_conv1d_patches, loop_conv2d_patches, loop_pool2d_patches


class TestInvariants:
    def test_indices_must_be_in_range(self):
        with pytest.raises(StructuralError):
            PatchLayout(3, ((0, 1), (2, 3)))

    def test_patches_must_have_equal_size(self):
        with pytest.raises(StructuralError):
            PatchLayout(3, ((0, 1), (2,)))

    def test_every_neuron_must_be_covered(self):
        with pytest.raises(StructuralError, match="uncovered"):
            PatchLayout(4, ((0, 1), (1, 2)))

    def test_duplicate_index_sets_rejected(self):
        # {1, 0} is the same index set as {0, 1}
        with pytest.raises(StructuralError, match="duplicates"):
            PatchLayout(3, ((0, 1), (1, 0), (1, 2)))

    def test_repeated_index_within_patch_rejected(self):
        with pytest.raises(StructuralError, match="repeats"):
            PatchLayout(3, ((0, 0), (1, 2)))

    def test_whole_layer_patch_alone_is_fine(self):
        layout = full_layout(4)
        assert layout.patch_count == 1
        assert layout.patch_size == 4

    @pytest.mark.parametrize("width,patches,message", [
        (3, ((0, 1), (2,)), "patch 1 has size 1, expected 2"),
        (3, ((0, 1), (2, 2)), "patch 1 repeats a neuron index"),
        (3, ((0, 1), (2, 3)), "patch 1 index 3 out of range [0, 3)"),
        (3, ((0, 1), (2, -1)), "patch 1 index -1 out of range [0, 3)"),
        (3, ((0, 1), (1, 2), (1, 0)), "patch 2 duplicates an earlier index set"),
        (5, ((0, 1), (1, 2)),
         "patches do not cover the layer; first uncovered neurons: [3, 4]"),
        (3, (), "layout needs at least one patch"),
    ], ids=["ragged", "repeat", "above", "negative", "duplicate", "uncovered",
            "empty"])
    def test_single_fault_message(self, width, patches, message):
        with pytest.raises(StructuralError) as caught:
            PatchLayout(width, patches)
        assert str(caught.value) == message

    def test_patches_are_a_read_only_copy(self):
        source = np.array([[0, 1], [1, 2]])
        layout = PatchLayout(3, source)
        source[0, 0] = 2
        assert layout.patches.dtype == np.intp
        assert not layout.patches.flags.writeable
        assert layout.patches.tolist() == [[0, 1], [1, 2]]

    def test_equality_and_hash_follow_the_indices(self):
        a, b = PatchLayout(3, ((0, 1), (1, 2))), conv1d_layout(3, 2)
        assert a == b and hash(a) == hash(b)
        assert a != PatchLayout(3, ((1, 2), (0, 1)))
        assert a != PatchLayout(4, ((0, 1), (1, 2), (3, 0)))


class TestBuilders:
    def test_conv1d_stride1(self):
        layout = conv1d_layout(5, 3, 1)
        assert layout.patches.tolist() == [[0, 1, 2], [1, 2, 3], [2, 3, 4]]

    def test_conv1d_uncovering_stride_rejected(self):
        # width 7, kernel 2, stride 3 leaves neuron 6 uncovered
        with pytest.raises(StructuralError):
            conv1d_layout(7, 2, 3)

    @pytest.mark.parametrize("build, message", [
        (lambda: conv1d_layout(5, 0), "^kernel and stride must be positive$"),
        (lambda: conv1d_layout(5, 2, 0), "^kernel and stride must be positive$"),
        (lambda: conv1d_layout(3, 4), "^kernel 4 exceeds layer width 3$"),
        (lambda: conv2d_layout(0, 4, 2, 2), "^grid, kernel and stride sizes must be positive$"),
        (lambda: conv2d_multichannel_layout(4, 4, 0, 2, 2),
         "^grid, kernel and stride sizes must be positive$"),
        (lambda: pool2d_multichannel_layout(4, 4, 1, 2, 2, 2, 0),
         "^grid, kernel and stride sizes must be positive$"),
        (lambda: conv2d_layout(3, 5, 4, 2), "^kernel exceeds grid size$"),
        (lambda: conv2d_layout(5, 3, 2, 4), "^kernel exceeds grid size$"),
    ])
    def test_malformed_sizes_rejected(self, build, message):
        with pytest.raises(StructuralError, match=message):
            build()

    def test_conv2d_positions_row_major(self):
        layout = conv2d_layout(3, 3, 2, 2, 1, 1)
        assert layout.patch_count == 4
        assert layout.patches[0].tolist() == [0, 1, 3, 4]
        assert layout.patches[1].tolist() == [1, 2, 4, 5]

    def test_multichannel_spans_all_channels(self):
        layout = conv2d_multichannel_layout(2, 2, 3, 2, 2, 1, 1)
        assert layout.width == 12
        assert layout.patch_count == 1
        assert layout.patch_size == 12

    def test_pool_layout_is_per_channel(self):
        layout = pool2d_multichannel_layout(2, 2, 2, 2, 2, 2, 2)
        # one window, one patch per channel, channels-last indexing
        assert layout.patch_count == 2
        assert layout.patches[0].tolist() == [0, 2, 4, 6]
        assert layout.patches[1].tolist() == [1, 3, 5, 7]

    def test_extract_gathers_patches(self):
        layout = conv1d_layout(4, 2, 2)
        rows = np.array([[0.0, 1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(
            layout.extract(rows), [[[0.0, 1.0], [2.0, 3.0]]]
        )

    def test_extract_rejects_wrong_width(self):
        with pytest.raises(StructuralError):
            conv1d_layout(4, 2, 2).extract(np.zeros((2, 5)))

    def test_scatter_add_rejects_wrong_shape(self):
        layout = conv1d_layout(4, 2, 2)
        for shape in ((2, 2, 3), (2, 3, 2), (2, 4)):
            with pytest.raises(StructuralError):
                layout.scatter_add(np.zeros(shape))


def _assert_built_as_looped(build, width, expected):
    """``build()`` gives the looped index tuples as its array, or raises
    the coverage error when they leave a neuron out."""
    if len({i for patch in expected for i in patch}) < width:
        with pytest.raises(StructuralError, match="uncovered"):
            build()
        return
    layout = build()
    assert layout.width == width
    assert layout.patches.dtype == np.intp
    np.testing.assert_array_equal(layout.patches, np.array(expected, dtype=np.intp))


class TestBuildersMatchLoops:
    """Every builder's index arithmetic against the nested loops in
    ``oracles``."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(width=st.integers(1, 12), kernel=st.integers(1, 5), stride=st.integers(1, 4))
    def test_1d(self, width, kernel, stride):
        assume(kernel <= width)
        _assert_built_as_looped(lambda: conv1d_layout(width, kernel, stride), width,
                                loop_conv1d_patches(width, kernel, stride))
        _assert_built_as_looped(lambda: full_layout(width), width, (tuple(range(width)),))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 4), st.integers(1, 3), st.integers(1, 3))
    def test_2d(self, height, width, channels, kernel_h, kernel_w, stride_h, stride_w):
        assume(kernel_h <= height and kernel_w <= width)
        grid = (height, width, channels, kernel_h, kernel_w, stride_h, stride_w)
        size = height * width * channels
        _assert_built_as_looped(lambda: conv2d_multichannel_layout(*grid), size,
                                loop_conv2d_patches(*grid))
        _assert_built_as_looped(lambda: pool2d_multichannel_layout(*grid), size,
                                loop_pool2d_patches(*grid))
        single = (height, width, 1, kernel_h, kernel_w, stride_h, stride_w)
        _assert_built_as_looped(
            lambda: conv2d_layout(height, width, kernel_h, kernel_w, stride_h, stride_w),
            height * width, loop_conv2d_patches(*single))

    def test_reference_network(self):
        spec = mnist_conv_pool_network()
        grids = [(28, 28, 1, 3, 3, 1, 1), (26, 26, 100, 2, 2, 2, 2),
                 (13, 13, 100, 3, 3, 2, 2), (6, 6, 80, 2, 2, 2, 2)]
        for k, grid in zip((1, 2, 3, 4), grids):
            loops = loop_pool2d_patches if isinstance(spec.layer(k), MaxPool) \
                else loop_conv2d_patches
            assert spec.layer(k).layout == PatchLayout(spec.widths[k - 1], loops(*grid))
