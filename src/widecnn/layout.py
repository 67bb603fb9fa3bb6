"""Patch layouts: which neurons of a layer each filter window reads.

A layout is an explicit, ordered list of index lists into the previous
layer's neurons. All patches share one size, every neuron belongs to at
least one patch, and no two patches read exactly the same index set.
Builders cover the common cases (whole-layer, 1D/2D valid convolution
windows, per-channel pooling windows); anything else can be constructed
directly from index lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StructuralError


@dataclass(frozen=True)
class PatchLayout:
    """Ordered patches over a layer of ``width`` neurons.

    ``patches[p]`` lists the neuron indices read by patch ``p``; indices
    within one patch must be unique (a filter tap reads each neuron once).
    """

    width: int
    patches: tuple[tuple[int, ...], ...]
    _index_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.width < 1:
            raise StructuralError("layout width must be positive")
        patches = tuple(tuple(int(i) for i in p) for p in self.patches)
        object.__setattr__(self, "patches", patches)
        if not patches:
            raise StructuralError("layout needs at least one patch")
        size = len(patches[0])
        if size == 0:
            raise StructuralError("patches must be non-empty")
        covered = set()
        seen = set()
        for p, idx in enumerate(patches):
            if len(idx) != size:
                raise StructuralError(
                    f"patch {p} has size {len(idx)}, expected {size}"
                )
            if len(set(idx)) != len(idx):
                raise StructuralError(f"patch {p} repeats a neuron index")
            for i in idx:
                if not 0 <= i < self.width:
                    raise StructuralError(
                        f"patch {p} index {i} out of range [0, {self.width})"
                    )
            key = frozenset(idx)
            if key in seen:
                raise StructuralError(f"patch {p} duplicates an earlier index set")
            seen.add(key)
            covered.update(idx)
        if len(covered) != self.width:
            missing = sorted(set(range(self.width)) - covered)[:5]
            raise StructuralError(
                f"patches do not cover the layer; first uncovered neurons: {missing}"
            )
        arr = np.asarray(patches, dtype=np.intp)
        arr.setflags(write=False)
        object.__setattr__(self, "_index_array", arr)

    @property
    def patch_count(self) -> int:
        return len(self.patches)

    @property
    def patch_size(self) -> int:
        return len(self.patches[0])

    def index_array(self) -> np.ndarray:
        """(P, l) integer array of patch indices; read-only."""
        return self._index_array

    def extract(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Gather patches from feature rows.

        ``rows`` is (N, width); returns (N, P, l) with
        ``out[i, p, :] = rows[i, patches[p]]``, written into ``out`` when
        given.
        """
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.width:
            raise StructuralError(
                f"expected (N, {self.width}) feature rows, got {rows.shape}"
            )
        # take, unlike rows[:, index], returns the (N, P, l) array
        # C-contiguous, so the convolution's reshape to (N*P, l) is a view.
        # The indices were checked against the width at construction, so
        # "clip" alters none; the default "raise" would gather into a
        # temporary and copy that into out.
        return np.take(rows, self._index_array, axis=1, out=out, mode="clip")

    def scatter_add(self, patches: np.ndarray) -> np.ndarray:
        """Transpose of ``extract``: (N, P, l) patches to (N, width) rows,
        each neuron summing every patch entry that reads it. Windows
        overlap, hence ``np.add.at``: a buffered ``+=`` drops repeats."""
        patches = np.asarray(patches)
        if patches.ndim != 3 or patches.shape[1:] != self._index_array.shape:
            raise StructuralError(
                f"expected (N, {self.patch_count}, {self.patch_size}) patches, "
                f"got {patches.shape}"
            )
        out = np.zeros((patches.shape[0], self.width), dtype=patches.dtype)
        np.add.at(out, (slice(None), self._index_array), patches)
        return out


def full_layout(width: int) -> PatchLayout:
    """Single patch covering the whole layer (the fully connected case)."""
    return PatchLayout(width, (tuple(range(width)),))


def conv1d_layout(width: int, kernel: int, stride: int = 1) -> PatchLayout:
    """Valid (no padding) 1D windows of ``kernel`` taps every ``stride``."""
    if kernel < 1 or stride < 1:
        raise StructuralError("kernel and stride must be positive")
    if kernel > width:
        raise StructuralError(f"kernel {kernel} exceeds layer width {width}")
    starts = range(0, width - kernel + 1, stride)
    patches = tuple(tuple(range(s, s + kernel)) for s in starts)
    return PatchLayout(width, patches)


def conv2d_layout(
    height: int,
    width: int,
    kernel_h: int,
    kernel_w: int,
    stride_h: int = 1,
    stride_w: int = 1,
) -> PatchLayout:
    """Valid 2D windows over a row-major single-channel grid.

    Patch order is row-major over window positions; indices within a patch
    are row-major within the window.
    """
    return conv2d_multichannel_layout(
        height, width, 1, kernel_h, kernel_w, stride_h, stride_w
    )


def conv2d_multichannel_layout(
    height: int,
    width: int,
    channels: int,
    kernel_h: int,
    kernel_w: int,
    stride_h: int = 1,
    stride_w: int = 1,
) -> PatchLayout:
    """2D windows spanning all channels of a channels-last grid.

    The layer is assumed indexed ``(r*width + c)*channels + t``, the
    ordering produced by a convolutional layer with ``channels`` filters
    whose output unit for (position p, filter t) is ``p*T + t``. Each
    patch covers a ``kernel_h x kernel_w`` window across every channel.
    """
    _check_grid(height, width, channels, kernel_h, kernel_w, stride_h, stride_w)
    patches = []
    for r0 in range(0, height - kernel_h + 1, stride_h):
        for c0 in range(0, width - kernel_w + 1, stride_w):
            idx = [
                ((r0 + dr) * width + (c0 + dc)) * channels + t
                for dr in range(kernel_h)
                for dc in range(kernel_w)
                for t in range(channels)
            ]
            patches.append(tuple(idx))
    return PatchLayout(height * width * channels, tuple(patches))


def pool2d_multichannel_layout(
    height: int,
    width: int,
    channels: int,
    kernel_h: int,
    kernel_w: int,
    stride_h: int,
    stride_w: int,
) -> PatchLayout:
    """Per-channel 2D windows for max-pooling a channels-last grid.

    One patch per (window position, channel), ordered position-major then
    channel, so the pooled layer keeps the same channels-last indexing
    convention as a convolutional layer with ``channels`` filters.
    """
    _check_grid(height, width, channels, kernel_h, kernel_w, stride_h, stride_w)
    patches = []
    for r0 in range(0, height - kernel_h + 1, stride_h):
        for c0 in range(0, width - kernel_w + 1, stride_w):
            for t in range(channels):
                idx = [
                    ((r0 + dr) * width + (c0 + dc)) * channels + t
                    for dr in range(kernel_h)
                    for dc in range(kernel_w)
                ]
                patches.append(tuple(idx))
    return PatchLayout(height * width * channels, tuple(patches))


def _check_grid(height, width, channels, kernel_h, kernel_w, stride_h, stride_w):
    if min(height, width, channels, kernel_h, kernel_w, stride_h, stride_w) < 1:
        raise StructuralError("grid, kernel and stride sizes must be positive")
    if kernel_h > height or kernel_w > width:
        raise StructuralError("kernel exceeds grid size")
