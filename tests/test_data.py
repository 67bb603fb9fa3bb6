"""IDX byte format and synthetic dataset generation."""

import struct

import numpy as np
import pytest

from widecnn import (
    Dataset,
    FormatError,
    StructuralError,
    check_distinct_patches,
    load_idx,
    read_idx_images,
    read_idx_labels,
    synthesize_dataset,
)
from widecnn.layout import full_layout

from idx_files import write_idx_images, write_idx_labels


def write_pair(tmp_path, images, labels):
    ip = tmp_path / "img.idx"
    lp = tmp_path / "lab.idx"
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    return ip, lp


class TestIdxFormat:
    def test_handcrafted_two_image_file(self, tmp_path):
        images = np.array(
            [[[0, 255], [128, 64]], [[255, 0], [0, 255]]], dtype=np.uint8
        )
        ip, lp = write_pair(tmp_path, images, [1, 0])
        dataset = load_idx(ip, lp)
        np.testing.assert_allclose(
            dataset.X[0], [0.0, 1.0, 128 / 255.0, 64 / 255.0]
        )
        assert dataset.labels == (1, 0)
        assert dataset.Y.shape == (2, 2)
        np.testing.assert_array_equal(dataset.Z, np.eye(2))

    def test_roundtrip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(5, 3, 4), dtype=np.uint8)
        labels = rng.integers(0, 10, size=5, dtype=np.uint8)
        ip, lp = write_pair(tmp_path, images, labels)
        np.testing.assert_array_equal(read_idx_images(ip), images)
        np.testing.assert_array_equal(read_idx_labels(lp), labels)

    def test_swapped_magic_rejected(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        ip, lp = write_pair(tmp_path, images, [3])
        with pytest.raises(FormatError, match="magic"):
            load_idx(lp, ip)  # images file given where labels expected too
        with pytest.raises(FormatError, match="0x00000801"):
            read_idx_labels(ip)

    def test_truncated_file_reports_offset(self, tmp_path):
        path = tmp_path / "broken.idx"
        path.write_bytes(struct.pack(">i", 0x00000803) + b"\x00\x00")
        with pytest.raises(FormatError, match="offset 4"):
            read_idx_images(path)

    def test_payload_size_mismatch(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">iiii", 0x00000803, 2, 2, 2) + b"\x00" * 7)
        with pytest.raises(FormatError, match="byte offset 16"):
            read_idx_images(path)

    @pytest.mark.parametrize("count, rows, cols", [
        (-1, -1, 1), (-1, 2, -2), (2, 0, 3), (4, 3, 0),
    ])
    def test_header_sizes_checked(self, tmp_path, count, rows, cols):
        path = tmp_path / "header.idx"
        payload = b"\x00" * max(0, count * rows * cols)
        path.write_bytes(struct.pack(">iiii", 0x00000803, count, rows, cols) + payload)
        with pytest.raises(FormatError, match="byte offset 4"):
            read_idx_images(path)

    def test_zero_images_rejected(self, tmp_path):
        ip, lp = write_pair(tmp_path, np.zeros((0, 2, 2), dtype=np.uint8), [])
        assert read_idx_images(ip).shape == (0, 2, 2)
        with pytest.raises(FormatError, match="no images"):
            load_idx(ip, lp)

    def test_count_mismatch_between_files(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        ip, _ = write_pair(tmp_path, images, [0, 1])
        lp = tmp_path / "three.idx"
        write_idx_labels(lp, [0, 1, 2])
        with pytest.raises(FormatError, match="labels"):
            load_idx(ip, lp)


class TestSynthesize:
    def test_reproducible_and_distinct(self):
        a = synthesize_dataset(16, 10, 2, seed=5)
        b = synthesize_dataset(16, 10, 2, seed=5)
        np.testing.assert_array_equal(a.X, b.X)
        assert a.labels == b.labels
        assert check_distinct_patches(a.X, full_layout(10)).holds

    def test_balanced_classes(self):
        dataset = synthesize_dataset(10, 4, 3, seed=6)
        counts = np.bincount(np.asarray(dataset.labels), minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_perturbation_applied(self):
        clean = synthesize_dataset(4, 3, 2, seed=7, perturb_sigma=0.0)
        noisy = synthesize_dataset(4, 3, 2, seed=7, perturb_sigma=1e-5)
        assert not np.array_equal(clean.X, noisy.X)

    @pytest.mark.parametrize("N, d, m", [(0, 5, 2), (4, 0, 2), (4, 5, 0), (-1, 5, 2)])
    def test_sizes_below_one_are_rejected(self, N, d, m):
        with pytest.raises(StructuralError, match="^N, d, and m must be positive$"):
            synthesize_dataset(N, d, m)

    def test_singleton(self):
        dataset = synthesize_dataset(1, 5, 2, seed=8)
        assert dataset.sample_count == 1
        assert dataset.Y.shape == (1, 2)


class TestDatasetEmbedding:
    def test_singular_embedding_rejected(self):
        Z = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(StructuralError, match="full rank"):
            Dataset(X=np.eye(2), Y=Z, labels=(0, 1), Z=Z)

    @pytest.mark.parametrize("X,Y,labels,Z,message", [
        (np.zeros(2), np.eye(2), None, None, "X and Y must be matrices"),
        (np.zeros((3, 2)), np.eye(2), None, None, "X has 3 rows but Y has 2"),
        (np.zeros((2, 2)), np.eye(2), (0,), None, "one label per sample required"),
        (np.zeros((2, 2)), np.eye(2), None, np.eye(3), "Z must be (2, 2), got (3, 3)"),
        (np.zeros((3, 2)), np.eye(2)[[0, 1, 0]], (0, 1, 1), np.eye(2),
         "row 2 of Y does not equal embedding row 1"),
        (np.zeros((3, 2)), np.eye(2)[[0, 1, 0]], (0, -1, 1), np.eye(2),
         "label -1 outside [0, 2)"),
        # a bad target in an earlier row than a bad label is the error
        (np.zeros((3, 2)), np.eye(2)[[0, 0, 1]], (0, 1, 5), np.eye(2),
         "row 1 of Y does not equal embedding row 1"),
        (np.zeros((2, 2)), np.eye(2), (0, 10**30), np.eye(2),
         f"label {10**30} outside [0, 2)"),
    ], ids=["not-matrices", "row-counts", "label-count", "embedding-shape",
            "target", "label", "target-before-label", "huge-label"])
    def test_malformed_dataset(self, X, Y, labels, Z, message):
        with pytest.raises(StructuralError) as caught:
            Dataset(X=X, Y=Y, labels=labels, Z=Z)
        assert str(caught.value) == message

    def test_non_identity_embedding_accepted(self):
        Z = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert Dataset(X=np.eye(2), Y=Z[[1, 0]], labels=(1, 0), Z=Z).class_count == 2
