"""IDX image and label writers, so the loaders can be round-trip tested
byte for byte."""

import struct

import numpy as np

from widecnn.data import IMAGE_MAGIC, LABEL_MAGIC
from widecnn.errors import StructuralError


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
