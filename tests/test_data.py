"""IDX byte format and synthetic dataset generation."""

import hashlib
import struct

import numpy as np
import pytest

from widecnn import (
    Dataset,
    FormatError,
    GenerationError,
    StructuralError,
    check_distinct_patches,
    load_idx,
    read_idx_images,
    read_idx_labels,
    synthesize_dataset,
)
from widecnn.layout import full_layout

from idx_files import write_idx_images, write_idx_labels
from oracles import pairwise_distinct_patches


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

    @pytest.mark.parametrize("read, header, payload, message", [
        (read_idx_images, (0x00000801, 1, 1, 1), b"\x00", "bad image magic 0x00000801 at "
         "byte offset 0, expected 0x00000803"),
        (read_idx_images, (0x00000803, 2, 0, 3), b"", "header at byte offset 4 gives 2 "
         "images of 0x3 pixels; expected a non-negative count and positive sizes"),
        (read_idx_images, (0x00000803, 2, 2, 3), b"\x00" * 11, "pixel payload from "
         "byte offset 16 has 11 bytes, expected 12"),
        (read_idx_images, (0x00000803, 2), b"", "truncated at byte offset 8; "
         "expected a 4-byte big-endian integer"),
        (read_idx_labels, (0x00000803, 1), b"\x00", "bad label magic 0x00000803 at "
         "byte offset 0, expected 0x00000801"),
        (read_idx_labels, (0x00000801, -1), b"", "header at byte offset 4 gives -1 "
         "labels; expected a non-negative count"),
        (read_idx_labels, (0x00000801, 3), b"\x00\x01", "label payload from byte "
         "offset 8 has 2 bytes, expected 3"),
        (read_idx_labels, (0x00000801,), b"", "truncated at byte offset 4; "
         "expected a 4-byte big-endian integer"),
    ])
    def test_messages_name_the_byte_offset(self, tmp_path, read, header, payload,
                                           message):
        path = tmp_path / "file.idx"
        path.write_bytes(struct.pack(f">{len(header)}i", *header) + payload)
        with pytest.raises(FormatError) as caught:
            read(path)
        assert str(caught.value) == f"{path}: {message}"

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

    @pytest.mark.parametrize("sigma", [np.inf, np.nan])
    def test_a_non_finite_variance_is_rejected(self, sigma):
        with pytest.raises(StructuralError,
                           match=rf"^noise variance must be finite, got {sigma}$"):
            synthesize_dataset(4, 3, 2, perturb_sigma=sigma)


def digest(dataset):
    """SHA-256 over the bytes of X, Y, Z and the labels as int64."""
    h = hashlib.sha256()
    for a in (dataset.X, dataset.Y, dataset.Z, np.asarray(dataset.labels, np.int64)):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# each dataset's digest: it changes if any draw, or the order of the draws
# of X, the perturbation seed and the labels, changes
PINNED = [
    ((512, 64, 10, 0), {}, "4ee2a66bfec18497aff327679e0ca045246fcbf801f18e85ee474f486f8fc1a3"),
    ((512, 64, 10, 1), {}, "fe5cee3904c2458bd6a811026fa4f80702951b487531a95672f5730b96e58afd"),
    ((512, 64, 10, 2), {}, "03f249f6f54abf9e8e070feded256ea653c97778ab871718f96dc3bb2aab5b6b"),
    ((512, 64, 10, 3), {}, "e541265bdc8b22f27cd3dd0c0b301e2eb915377be4b8692742790984c76a408d"),
    ((64, 16, 2, 0), {}, "39373f77998d9f987e7a4ec6a41303b4a2fe9b08d55428f217faf5391c91eaa5"),
    ((32, 10, 4, 1000), {"perturb_sigma": 1e-5},
     "b8da2a0c650b57ad83518a5b7a0e49878874a90f3a6966218f4ad322865d8b7f"),
]


@pytest.mark.parametrize("args, kwargs, expected", PINNED,
                         ids=["-".join(map(str, args)) for args, _, _ in PINNED])
def test_synthesized_bits_are_pinned(args, kwargs, expected):
    assert digest(synthesize_dataset(*args, **kwargs)) == expected


class PlantedDraws:
    """A generator whose first ``standard_normal`` draws are passed through
    the ``planted`` functions; every draw still advances the wrapped one."""

    def __init__(self, rng, planted):
        self._rng, self._planted = rng, list(planted)

    def standard_normal(self, size):
        X = self._rng.standard_normal(size)
        return self._planted.pop(0)(X) if self._planted else X

    def __getattr__(self, name):
        return getattr(self._rng, name)


DEFAULT_RNG = np.random.default_rng


def plant(monkeypatch, *planted):
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: PlantedDraws(DEFAULT_RNG(seed), planted))


def repeat_first_row(X):
    X = X.copy()
    X[1] = X[0]
    return X


class TestResampling:
    N, d, m, seed = 6, 3, 2, 4

    def draws(self):
        """The three (X, labels) draws of the generator, in order."""
        rng = np.random.default_rng(self.seed)
        out = []
        for _ in range(3):
            X = rng.standard_normal((self.N, self.d))
            rng.integers(2**63)
            out.append((X, tuple(int(c) for c in rng.permutation(np.arange(self.N) % self.m))))
        return out

    @pytest.mark.parametrize("repeats", [0, 1, 2])
    def test_draws_with_a_repeated_row_are_drawn_again(self, monkeypatch, repeats):
        X, labels = self.draws()[repeats]
        plant(monkeypatch, *[repeat_first_row] * repeats)
        dataset = synthesize_dataset(self.N, self.d, self.m, seed=self.seed)
        np.testing.assert_array_equal(dataset.X, X)
        assert dataset.labels == labels

    def test_three_draws_with_a_repeated_row_fail(self, monkeypatch):
        plant(monkeypatch, *[repeat_first_row] * 3)
        with pytest.raises(GenerationError, match="^could not generate a dataset "
                           "with distinct rows in 3 attempts$"):
            synthesize_dataset(self.N, self.d, self.m, seed=self.seed)


def small_integer_matrices(count, seed=0):
    """Matrices of 1-6 rows and 1-4 columns with entries in -2..2, an equal
    pair of rows planted in two of three, and half the zeros made -0.0."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        N, d = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        M = rng.integers(-2, 3, size=(N, d)).astype(np.float64)
        if N > 1 and k % 3:
            i, j = rng.choice(N, 2, replace=False)
            M[j] = M[i]
        M[(M == 0) & (rng.random(M.shape) < 0.5)] = -0.0
        yield M


def test_distinct_rows_agree_with_the_pairwise_patch_search(monkeypatch):
    outcomes = {"distinct": 0, "equal": 0, "equal_up_to_signed_zeros": 0, "single_row": 0}
    for M in small_integer_matrices(1500):
        N, d = M.shape
        plant(monkeypatch, *[lambda _, M=M: M] * 3)
        if pairwise_distinct_patches(M, full_layout(d)).holds:
            outcomes["distinct"] += 1
            outcomes["single_row"] += N == 1
            np.testing.assert_array_equal(synthesize_dataset(N, d, 2).X, M)
        else:
            outcomes["equal"] += 1
            bits = {M[i].tobytes() for i in range(N)}
            outcomes["equal_up_to_signed_zeros"] += len(bits) == N
            with pytest.raises(GenerationError):
                synthesize_dataset(N, d, 2)
    assert min(outcomes.values()) >= 50, outcomes


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
