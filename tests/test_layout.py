"""Patch layout invariants and builders."""

import numpy as np
import pytest

from widecnn import StructuralError
from widecnn.layout import (
    PatchLayout,
    conv1d_layout,
    conv2d_layout,
    conv2d_multichannel_layout,
    full_layout,
    pool2d_multichannel_layout,
)


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


class TestBuilders:
    def test_conv1d_stride1(self):
        layout = conv1d_layout(5, 3, 1)
        assert layout.patches == ((0, 1, 2), (1, 2, 3), (2, 3, 4))

    def test_conv1d_uncovering_stride_rejected(self):
        # width 7, kernel 2, stride 3 leaves neuron 6 uncovered
        with pytest.raises(StructuralError):
            conv1d_layout(7, 2, 3)

    def test_conv2d_positions_row_major(self):
        layout = conv2d_layout(3, 3, 2, 2, 1, 1)
        assert layout.patch_count == 4
        assert layout.patches[0] == (0, 1, 3, 4)
        assert layout.patches[1] == (1, 2, 4, 5)

    def test_multichannel_spans_all_channels(self):
        layout = conv2d_multichannel_layout(2, 2, 3, 2, 2, 1, 1)
        assert layout.width == 12
        assert layout.patch_count == 1
        assert layout.patch_size == 12

    def test_pool_layout_is_per_channel(self):
        layout = pool2d_multichannel_layout(2, 2, 2, 2, 2, 2, 2)
        # one window, one patch per channel, channels-last indexing
        assert layout.patch_count == 2
        assert layout.patches[0] == (0, 2, 4, 6)
        assert layout.patches[1] == (1, 3, 5, 7)

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
