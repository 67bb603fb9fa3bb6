"""Data ingestion: IDX image/label files and synthetic generators.

The IDX image and label readers are one call each of ``_read_idx``,
which parses the classic big-endian byte format (magic, int32 sizes,
unsigned-byte payload) and refuses a malformed header or payload with
FormatError naming its byte offset. ``load_idx`` scales pixels to [0, 1]
and produces one-hot targets with the identity class embedding. The
synthetic generator draws Gaussian inputs with balanced random classes
and certifies by one exact sort of the rows that no two samples are
equal before returning.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .assumptions import perturb_dataset
from .errors import FormatError, GenerationError, StructuralError
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


def _read_idx(path, magic: int, kind: str, unit: str, sizes: int) -> np.ndarray:
    """The uint8 payload of an IDX file, shaped (count, *sizes): after the
    4-byte ``magic`` number come the count and ``sizes`` more int32
    sizes, big-endian, then count times their product unsigned bytes.
    ``kind`` names the items (``image``) and ``unit`` the payload's bytes
    (``pixel``) in error messages."""
    path = Path(path)
    buf = path.read_bytes()
    found = _read_be32(buf, 0, path)
    if found != magic:
        raise FormatError(
            f"{path}: bad {kind} magic 0x{found:08x} at byte offset 0, "
            f"expected 0x{magic:08x}"
        )
    count, *size = (_read_be32(buf, 4 * i, path) for i in range(1, sizes + 2))
    if count < 0 or min(size, default=1) < 1:
        each = f" of {'x'.join(map(str, size))} {unit}s" if size else ""
        raise FormatError(
            f"{path}: header at byte offset 4 gives {count} {kind}s{each}; "
            "expected a non-negative count" + (" and positive sizes" if size else "")
        )
    start, expected = 8 + 4 * sizes, count * math.prod(size)
    if len(buf) != start + expected:
        raise FormatError(
            f"{path}: {unit} payload from byte offset {start} has "
            f"{len(buf) - start} bytes, expected {expected}"
        )
    return np.frombuffer(buf, dtype=np.uint8, offset=start).reshape(count, *size)


def read_idx_images(path) -> np.ndarray:
    """(count, rows, cols) uint8 pixel array from an IDX image file."""
    return _read_idx(path, IMAGE_MAGIC, "image", "pixel", 2)


def read_idx_labels(path) -> np.ndarray:
    """(count,) uint8 label array from an IDX label file."""
    return _read_idx(path, LABEL_MAGIC, "label", "label", 0)


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
    attached. A draw takes X, its optional Gaussian perturbation's seed
    (variance ``perturb_sigma``) and the labels; it is redrawn, up to 3
    draws, while an exact sort finds two equal rows (-0.0 equals 0.0).
    """
    if min(N, d, m) < 1:
        raise StructuralError("N, d, and m must be positive")
    rng = np.random.default_rng(seed)
    for _ in range(3):
        X = rng.standard_normal((N, d))
        X = perturb_dataset(X, perturb_sigma, seed=int(rng.integers(2**63)))
        labels = rng.permutation(np.arange(N) % m)
        rows = X[np.lexsort(X.T)]  # equal rows end up adjacent
        if not (rows[1:] == rows[:-1]).all(axis=1).any():
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
