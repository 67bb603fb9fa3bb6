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

A layout whose indices are an offset plus strides over a row-major index
of its patches and taps, as every builder's are, is a window grid
(``window_grid``): ``window_view`` reads its patches from the rows as a
strided view, without a copy. The layout finds this from ``patches``
alone, so a layout loaded from index lists qualifies as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import StructuralError


class WindowGrid(NamedTuple):
    """Patch p, tap t of a layout reads neuron ``offset + sum(i[a] *
    strides[a])``, where i is p unravelled row-major over
    ``patch_shape`` followed by t unravelled row-major over
    ``tap_shape``."""

    offset: int
    patch_shape: tuple[int, ...]
    tap_shape: tuple[int, ...]
    strides: tuple[int, ...]


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

    @cached_property
    def window_grid(self) -> WindowGrid | None:
        """The layout's ``WindowGrid``, or None when its indices are no
        such grid. The grid is read off the first column and the first
        row of ``patches``, and holds only if its strided view of
        ``np.arange(width)`` equals ``patches`` exactly."""
        patch_dims, tap_dims = _runs(self.patches[:, 0]), _runs(self.patches[0])
        if patch_dims is None or tap_dims is None:
            return None
        offset, dims = int(self.patches[0, 0]), patch_dims + tap_dims
        reach = [(extent - 1) * stride for extent, stride in dims]
        grid = WindowGrid(offset, tuple(e for e, _ in patch_dims),
                          tuple(e for e, _ in tap_dims), tuple(s for _, s in dims))
        # the bounds first: the view of a grid that leaves the layer would
        # read memory outside the array
        if (offset + sum(min(r, 0) for r in reach) < 0
                or offset + sum(max(r, 0) for r in reach) >= self.width
                or not np.array_equal(_view(np.arange(self.width)[None], grid)
                                      .reshape(self.patches.shape), self.patches)):
            return None
        return grid

    def window_view(self, rows: np.ndarray) -> np.ndarray:
        """The patches of a ``window_grid`` layout as a read-only strided
        view of the (N, width) ``rows``, shaped (N, *patch_shape,
        *tap_shape): ``extract(rows)`` without its copy, up to that
        reshape. A layout without a grid raises StructuralError."""
        grid = self.window_grid
        if grid is None:
            raise StructuralError("layout is not a window grid; gather it with extract")
        return _view(self._rows(rows), grid)

    def _rows(self, rows) -> np.ndarray:
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.width:
            raise StructuralError(
                f"expected (N, {self.width}) feature rows, got {rows.shape}"
            )
        return rows

    def extract(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Gather patches from feature rows.

        ``rows`` is (N, width); returns (N, P, l) with
        ``out[i, p, :] = rows[i, patches[p]]``, written into ``out`` when
        given. A whole-layer layout returns the view ``rows[:, None, :]``
        and leaves ``out`` alone.
        """
        rows = self._rows(rows)
        if self._whole_layer:
            return rows[:, None, :]
        # take, unlike rows[:, index], returns the (N, P, l) array
        # C-contiguous, so the convolution's reshape to (N*P, l) is a view.
        # The indices were checked against the width at construction, so
        # "clip" alters none; the default "raise" would gather into a
        # temporary and copy that into out.
        return np.take(rows, self.patches, axis=1, out=out, mode="clip")

    def scatter_add(self, patches: np.ndarray) -> np.ndarray:
        """Transpose of ``extract``: (N, P, l) patches to (N, width) float64
        rows, each neuron summing every patch entry that reads it. Windows
        overlap, so a buffered ``+=`` would drop repeats; ``np.bincount``
        over the flat indices ``i*width + patches[p, t]`` adds each
        neuron's entries in (i, p, t) order, starting from 0.0, the sums
        ``np.add.at`` gives. A whole-layer layout returns the patches
        reshaped, a view."""
        patches = np.asarray(patches)
        if patches.ndim != 3 or patches.shape[1:] != self.patches.shape:
            raise StructuralError(
                f"expected (N, {self.patch_count}, {self.patch_size}) patches, "
                f"got {patches.shape}"
            )
        if self._whole_layer:
            return patches.reshape(patches.shape[0], self.width)
        N = patches.shape[0]
        # one intp per patch entry: the index array is the size of patches
        index = np.add(np.arange(0, N * self.width, self.width)[:, None, None], self.patches)
        sums = np.bincount(index.reshape(-1), weights=patches.reshape(-1),
                           minlength=N * self.width)
        # bincount counts in integers when there is nothing to add (N = 0)
        return sums.astype(np.float64, copy=False).reshape(N, self.width)


def _runs(indices: np.ndarray) -> list[tuple[int, int]] | None:
    """(extent, stride) per axis, outermost first, of the one row-major
    grid that ``indices`` can be: the innermost axis is the run of the
    first step, and the outer axes are those of every run-th entry. None
    when a run does not divide the length. Whether the grid gives
    ``indices`` is the caller's check."""
    dims = []
    while len(indices) > 1:
        steps = np.diff(indices)
        breaks = np.flatnonzero(steps != steps[0])
        run = int(breaks[0]) + 1 if breaks.size else len(indices)
        if len(indices) % run:
            return None
        dims.append((run, int(steps[0])))
        indices = indices[::run]
    return dims[::-1]


def _view(rows: np.ndarray, grid: WindowGrid) -> np.ndarray:
    """Read-only (N, *patch_shape, *tap_shape) view of (N, width) rows
    whose grid indices were checked to lie in [0, width)."""
    step = rows.strides[1]
    return as_strided(rows[:, grid.offset:],
                      (rows.shape[0], *grid.patch_shape, *grid.tap_shape),
                      (rows.strides[0], *(s * step for s in grid.strides)), writeable=False)


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
