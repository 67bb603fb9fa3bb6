"""Patch layouts: which neurons of a layer each filter window reads.

A layout is a (P, l) integer array whose row p lists the neurons of the
previous layer that patch p reads; the gather, the scatter, lifting and
max-pooling all index with it. No row repeats an index, every neuron is
in some row, and no two rows read the same index set. Builders compute
the rows by index arithmetic for the common cases (whole-layer, 1D/2D
valid convolution windows, per-channel pooling windows); any other
layout is built from a (P, l) array-like, such as nested index lists.

A fully connected layer reads one patch, the whole layer in order
(``full_layout``); ``extract`` and ``scatter_add`` of such a layout are
views of the rows, and every other layout copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import StructuralError


@dataclass(frozen=True)
class PatchLayout:
    """Ordered patches over a layer of ``width`` neurons.

    ``patches`` is a read-only (P, l) ``intp`` copy of the array-like
    given; row ``p`` lists the neuron indices read by patch ``p``, each
    once (a filter tap reads each neuron once).
    """

    width: int
    patches: np.ndarray

    def __post_init__(self):
        if self.width < 1:
            raise StructuralError("layout width must be positive")
        try:
            arr = np.array(self.patches, dtype=np.intp)
        except (ValueError, OverflowError) as exc:  # ragged rows, or an index beyond intp
            sizes = [len(idx) for idx in self.patches]
            p = next((p for p, n in enumerate(sizes) if n != sizes[0]), None)
            if p is None:
                raise StructuralError(
                    f"patches must be lists of integer indices in [0, {self.width})") from exc
            raise StructuralError(
                f"patch {p} has size {sizes[p]}, expected {sizes[0]}") from exc
        _check(arr, self.width)
        arr.setflags(write=False)
        object.__setattr__(self, "patches", arr)

    def __eq__(self, other):
        if not isinstance(other, PatchLayout):
            return NotImplemented
        return self.width == other.width and np.array_equal(self.patches, other.patches)

    def __hash__(self):
        return hash((self.width, self.patches.shape, self.patches.tobytes()))

    @property
    def patch_count(self) -> int:
        return self.patches.shape[0]

    @property
    def patch_size(self) -> int:
        return self.patches.shape[1]

    @cached_property
    def _whole_layer(self) -> bool:
        """Whether the one patch reads the whole layer in order, so that a
        patch of a row is the row itself."""
        return (self.patches.shape == (1, self.width)
                and bool((self.patches[0] == np.arange(self.width)).all()))

    def extract(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Gather patches from feature rows.

        ``rows`` is (N, width); returns (N, P, l) with
        ``out[i, p, :] = rows[i, patches[p]]``, written into ``out`` when
        given. A whole-layer layout returns the view ``rows[:, None, :]``
        and leaves ``out`` alone.
        """
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.width:
            raise StructuralError(
                f"expected (N, {self.width}) feature rows, got {rows.shape}"
            )
        if self._whole_layer:
            return rows[:, None, :]
        # take, unlike rows[:, index], returns the (N, P, l) array
        # C-contiguous, so the convolution's reshape to (N*P, l) is a view.
        # The indices were checked against the width at construction, so
        # "clip" alters none; the default "raise" would gather into a
        # temporary and copy that into out.
        return np.take(rows, self.patches, axis=1, out=out, mode="clip")

    def scatter_add(self, patches: np.ndarray) -> np.ndarray:
        """Transpose of ``extract``: (N, P, l) patches to (N, width) rows,
        each neuron summing every patch entry that reads it. Windows
        overlap, hence ``np.add.at``: a buffered ``+=`` drops repeats. A
        whole-layer layout returns the patches reshaped, a view."""
        patches = np.asarray(patches)
        if patches.ndim != 3 or patches.shape[1:] != self.patches.shape:
            raise StructuralError(
                f"expected (N, {self.patch_count}, {self.patch_size}) patches, "
                f"got {patches.shape}"
            )
        if self._whole_layer:
            return patches.reshape(patches.shape[0], self.width)
        out = np.zeros((patches.shape[0], self.width), dtype=patches.dtype)
        np.add.at(out, (slice(None), self.patches), patches)
        return out


def _check(arr: np.ndarray, width: int) -> None:
    """Raise StructuralError for a layout without patches, for the first
    row that repeats an index, reads outside ``[0, width)`` or reads the
    index set of an earlier row (checked in that order within a row), and
    for a neuron in no row. Rows whose smallest indices rise from row to
    row are distinct, as every builder's are; then the first row holds the
    smallest index, and the row-by-row search is skipped."""
    if arr.shape[:1] == (0,):
        raise StructuralError("layout needs at least one patch")
    if arr.ndim != 2:
        raise StructuralError("patches must be flat index lists")
    if arr.shape[1] == 0:
        raise StructuralError("patches must be non-empty")
    rows = np.sort(arr, axis=1)
    lows = rows[:, 0]
    if not ((len(rows) == 1 or (lows[1:] > lows[:-1]).all()) and lows[0] >= 0
            and rows[:, -1].max() < width and (rows[:, 1:] != rows[:, :-1]).all()):
        repeats = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
        outside = (lows < 0) | (rows[:, -1] >= width)
        order = np.lexsort(rows.T[::-1])  # stable: equal rows keep their order
        later = order[1:][(rows[order[1:]] == rows[order[:-1]]).all(axis=1)]
        faults = np.flatnonzero(repeats | outside | np.isin(np.arange(len(rows)), later))
        if faults.size:
            p = faults[0]
            if repeats[p]:
                raise StructuralError(f"patch {p} repeats a neuron index")
            if outside[p]:
                i = arr[p][(arr[p] < 0) | (arr[p] >= width)][0]
                raise StructuralError(f"patch {p} index {i} out of range [0, {width})")
            raise StructuralError(f"patch {p} duplicates an earlier index set")
    covered = np.zeros(width, dtype=bool)
    covered[arr] = True
    if not covered.all():
        missing = np.flatnonzero(~covered)[:5].tolist()
        raise StructuralError(
            f"patches do not cover the layer; first uncovered neurons: {missing}"
        )


@lru_cache(maxsize=64)
def full_layout(width: int) -> PatchLayout:
    """Single patch covering the whole layer in order (the fully connected
    case); one shared layout per width."""
    return PatchLayout(width, np.arange(width)[None, :])


def conv1d_layout(width: int, kernel: int, stride: int = 1) -> PatchLayout:
    """Valid (no padding) 1D windows of ``kernel`` taps every ``stride``."""
    if kernel < 1 or stride < 1:
        raise StructuralError("kernel and stride must be positive")
    if kernel > width:
        raise StructuralError(f"kernel {kernel} exceeds layer width {width}")
    starts = np.arange(0, width - kernel + 1, stride)
    return PatchLayout(width, starts[:, None] + np.arange(kernel))


def conv2d_layout(height: int, width: int, kernel_h: int, kernel_w: int,
                  stride_h: int = 1, stride_w: int = 1) -> PatchLayout:
    """Valid 2D windows over a row-major single-channel grid.

    Patch order is row-major over window positions; indices within a patch
    are row-major within the window.
    """
    return conv2d_multichannel_layout(
        height, width, 1, kernel_h, kernel_w, stride_h, stride_w
    )


def conv2d_multichannel_layout(height: int, width: int, channels: int, kernel_h: int,
                               kernel_w: int, stride_h: int = 1,
                               stride_w: int = 1) -> PatchLayout:
    """2D windows spanning all channels of a channels-last grid.

    The layer is assumed indexed ``(r*width + c)*channels + t``, the
    ordering produced by a convolutional layer with ``channels`` filters
    whose output unit for (position p, filter t) is ``p*T + t``. Each
    patch covers a ``kernel_h x kernel_w`` window across every channel.
    """
    grid = _windows(height, width, channels, kernel_h, kernel_w, stride_h, stride_w)
    return PatchLayout(height * width * channels,
                       grid.reshape(-1, kernel_h * kernel_w * channels))


def pool2d_multichannel_layout(height: int, width: int, channels: int, kernel_h: int,
                               kernel_w: int, stride_h: int,
                               stride_w: int) -> PatchLayout:
    """Per-channel 2D windows for max-pooling a channels-last grid.

    One patch per (window position, channel), ordered position-major then
    channel, so the pooled layer keeps the same channels-last indexing
    convention as a convolutional layer with ``channels`` filters.
    """
    grid = _windows(height, width, channels, kernel_h, kernel_w, stride_h, stride_w)
    return PatchLayout(height * width * channels,
                       grid.transpose(0, 1, 4, 2, 3).reshape(-1, kernel_h * kernel_w))


def _windows(height, width, channels, kernel_h, kernel_w, stride_h, stride_w):
    """Index ``(r*width + c)*channels + t`` of every cell of every valid
    window, as a (window row, window column, dr, dc, t) grid, where
    ``(r, c) = (r0 + dr, c0 + dc)`` for the window at (r0, c0)."""
    if min(height, width, channels, kernel_h, kernel_w, stride_h, stride_w) < 1:
        raise StructuralError("grid, kernel and stride sizes must be positive")
    if kernel_h > height or kernel_w > width:
        raise StructuralError("kernel exceeds grid size")
    r = np.arange(0, height - kernel_h + 1, stride_h)[:, None] + np.arange(kernel_h)
    c = np.arange(0, width - kernel_w + 1, stride_w)[:, None] + np.arange(kernel_w)
    cells = r[:, None, :, None] * width + c[None, :, None, :]
    return cells[..., None] * channels + np.arange(channels)
