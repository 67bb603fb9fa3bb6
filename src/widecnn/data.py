"""Data ingestion: IDX image/label files and synthetic generators.

The IDX readers parse the classic big-endian byte format (magic, dims,
unsigned-byte payload), refuse malformed headers and payloads with
FormatError, scale pixels to [0, 1], and produce one-hot targets with the
identity class embedding. A writer is provided so loaders can be
round-trip tested byte-for-byte. The synthetic generator draws Gaussian
inputs with balanced random classes and certifies patch distinctness
before returning.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .assumptions import check_distinct_patches, perturb_dataset
from .errors import FormatError, GenerationError, StructuralError
from .layout import full_layout
from .network import Dataset, _seal

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


def _read_be32(buf: bytes, offset: int, path: Path) -> int:
    if offset + 4 > len(buf):
        raise FormatError(
            f"{path}: truncated at byte offset {offset}; expected a 4-byte "
            "big-endian integer"
        )
    return struct.unpack_from(">i", buf, offset)[0]


def read_idx_images(path) -> np.ndarray:
    """(count, rows, cols) uint8 pixel array from an IDX image file."""
    path = Path(path)
    buf = path.read_bytes()
    magic = _read_be32(buf, 0, path)
    if magic != IMAGE_MAGIC:
        raise FormatError(
            f"{path}: bad image magic 0x{magic:08x} at byte offset 0, "
            f"expected 0x{IMAGE_MAGIC:08x}"
        )
    count = _read_be32(buf, 4, path)
    rows = _read_be32(buf, 8, path)
    cols = _read_be32(buf, 12, path)
    if count < 0 or rows < 1 or cols < 1:
        raise FormatError(
            f"{path}: header at byte offset 4 gives {count} images of "
            f"{rows}x{cols} pixels; expected a non-negative count and "
            "positive sizes"
        )
    expected = 16 + count * rows * cols
    if len(buf) != expected:
        raise FormatError(
            f"{path}: pixel payload from byte offset 16 has {len(buf) - 16} "
            f"bytes, expected {count * rows * cols}"
        )
    pixels = np.frombuffer(buf, dtype=np.uint8, offset=16)
    return pixels.reshape(count, rows, cols)


def read_idx_labels(path) -> np.ndarray:
    """(count,) uint8 label array from an IDX label file."""
    path = Path(path)
    buf = path.read_bytes()
    magic = _read_be32(buf, 0, path)
    if magic != LABEL_MAGIC:
        raise FormatError(
            f"{path}: bad label magic 0x{magic:08x} at byte offset 0, "
            f"expected 0x{LABEL_MAGIC:08x}"
        )
    count = _read_be32(buf, 4, path)
    if len(buf) != 8 + count:
        raise FormatError(
            f"{path}: label payload from byte offset 8 has {len(buf) - 8} "
            f"bytes, expected {count}"
        )
    return np.frombuffer(buf, dtype=np.uint8, offset=8)


def write_idx_images(path, images: np.ndarray) -> None:
    """Write a (count, rows, cols) uint8 array in IDX image format."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise StructuralError("images must be (count, rows, cols)")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">iiii", IMAGE_MAGIC, *images.shape))
        fh.write(images.tobytes())


def write_idx_labels(path, labels) -> None:
    """Write integer labels 0..255 in IDX label format."""
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    if labels.ndim != 1:
        raise StructuralError("labels must be one-dimensional")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">ii", LABEL_MAGIC, labels.shape[0]))
        fh.write(labels.tobytes())


def load_idx(images_path, labels_path) -> Dataset:
    """Load paired IDX image/label files, holding at least one image, into
    a Dataset.

    Pixels are scaled to [0, 1] and flattened row-major; targets are the
    one-hot rows of the identity embedding over max label + 1 classes
    (10 for standard digit data).
    """
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise FormatError(
            f"{images_path} has {images.shape[0]} images but {labels_path} "
            f"has {labels.shape[0]} labels"
        )
    if images.shape[0] == 0:
        raise FormatError(f"{images_path} holds no images")
    X = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    Z = np.eye(int(labels.max()) + 1)
    Y = Z[labels.astype(np.intp)]
    return Dataset(X=X, Y=Y, labels=tuple(int(c) for c in labels), Z=Z)


def synthesize_dataset(
    N: int,
    d: int,
    m: int,
    seed: int = 0,
    perturb_sigma: float = 0.0,
) -> Dataset:
    """Gaussian inputs with balanced random classes and one-hot targets.

    Class counts differ by at most one; the identity embedding is
    attached. After optional Gaussian perturbation (variance
    ``perturb_sigma``), cross-sample distinctness of the whole input rows
    is certified; up to 3 resamples are attempted before giving up.
    """
    if min(N, d, m) < 1:
        raise StructuralError("N, d, and m must be positive")
    rng = np.random.default_rng(seed)
    layout = full_layout(d)
    for _ in range(3):
        X = rng.standard_normal((N, d))
        X = perturb_dataset(X, perturb_sigma, seed=int(rng.integers(2**63)))
        labels = rng.permutation(np.arange(N) % m)
        if check_distinct_patches(X, layout).holds:
            # sealed, so the Dataset and its row slices share them
            Z = np.eye(m)
            return Dataset(
                X=_seal(X),
                Y=_seal(Z[labels]),
                labels=tuple(int(c) for c in labels),
                Z=_seal(Z),
            )
    raise GenerationError(
        "could not generate a dataset with distinct rows in 3 attempts"
    )
