"""Network description, parameter containers, weight lifting, and the
forward pass.

A network is an ordered stack of layers over an input of width ``d``.
Every weighted layer is a convolution: ``T`` shared filters over the
patches of the previous layer, with the unit for (patch p, filter t) at
``h = p*T + t``. A fully connected layer is the one whose single patch is
the whole previous layer (``full_layout``); the output layer is one with
no nonlinearity. All of them go through one set of operations that read
the layout, (l, T) and width of each layer from the spec's ``plan``, which
the spec works out once when it is built: ``patch_products`` (a gather,
then one GEMM), ``lift_weights`` (the dense ``U_k``, for rank and SVD work
only) and its adjoint ``lift_adjoint``. Max-pooling (``max_pool``) is a
running maximum over the taps of the same patches. A pooling layout that
is a window grid, as every builder's is, is read through the strided
``window_view`` of the rows, with no gather; any other layout's patches
are gathered by the one tiled walk, ``_patch_blocks``, that
``patch_products`` also uses.

The forward pass allocates little beyond the trace it returns, which
keeps one feature matrix per layer, F_k. A weighted layer's products
are written one tile at a time by ``_product_tiles`` straight into the
rows of F_k, and the bias add, the finiteness sum and the activation
follow each tile in place, so G_k and F_k are one piece of memory; the
trace's ``G[k]`` of a nonlinear layer recomputes G_k from F_{k-1} by the
same walk when it is first read. A tile is a ``_patch_blocks`` block of
at most ``ROW_TILE`` (2^18 float64 entries) of gathered patches, or all
rows of a whole-layer layout in one GEMM; ``patch_products`` walks the
same blocks, so it, ``forward`` and ``G[k]`` give the same bits at every
batch size. Within a tile, the elementwise passes follow ``CHUNK``
(2^15 entries): each runs over pieces of at most one chunk, whole rows
while a row fits and column slices of one row otherwise, so that a
piece and the sigmoid's scratch stay in a core's L2 cache between the
passes. Every blocked operation but the GEMM gives the bits of one call
over the whole batch; a batch of more rows than one tile holds may see
BLAS round a tile's GEMM differently, within the bound
``patch_products`` states.

The frozen containers copy a caller's arrays but share the arrays the
library seals as it creates them, and read-only views of those. The
forward pass proves its features finite by their sums and scans the
parameters for non-finite entries only when a feature matrix is not
finite, or when the batch has no rows. A bounded activation of finite
pre-activations is finite, so only an activation with an unbounded tail
has its features summed.

Each thread keeps one float64 buffer per role (a layer's F or delta, the
flat gradient, and one scratch for temporaries that die inside a call,
such as a tile's gathered patches, whose shape, or that a whole-layer
layout needs none, ``_gather`` alone decides). ``forward`` and
``backward`` write into the buffers of the calling thread, so
repeated calls fault their arrays in once instead of once per call. A
role's buffer is recycled only when no live array references it; while
a trace or gradient set, or any view or slice of one, is held, the next
call takes a fresh buffer for that role instead, so nothing a caller
holds is ever overwritten. A thread keeps each role's current buffer
until it ends, so it holds on to the memory of the largest call that
each of those buffers served.
"""

from __future__ import annotations

import math
import sys
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .activations import Activation, Identity
from .errors import NumericOverflowError, StructuralError, UnsupportedLayerError
from .layout import PatchLayout, full_layout

# float64 entries (2 MiB) in a block of gathered patches
ROW_TILE = 1 << 18
# float64 entries (256 KiB) in a piece of an elementwise pass of forward:
# a piece of G_k, which the activation overwrites with F_k, and the
# sigmoid's scratch take 1/4 of a 2 MiB L2; of 2^11..2^16 entries, 2^15
# ran the reference net fastest
CHUNK = ROW_TILE >> 3


@dataclass(frozen=True)
class Conv:
    """Convolutional layer: ``filters`` shared filters over ``layout``'s
    patches of the previous layer. Output width is P * filters."""

    layout: PatchLayout
    filters: int
    activation: Activation

    def __post_init__(self):
        if self.filters < 1:
            raise StructuralError("filter count must be positive")

    def out_width(self, in_width: int) -> int:
        if self.layout.width != in_width:
            raise StructuralError(
                f"layout indexes a layer of width {self.layout.width}, "
                f"but the previous layer has width {in_width}"
            )
        return self.layout.patch_count * self.filters


@dataclass(frozen=True)
class FullyConnected:
    """Dense layer: ``width`` filters over one whole-layer patch."""

    width: int
    activation: Activation

    def __post_init__(self):
        if self.width < 1:
            raise StructuralError("layer width must be positive")

    def out_width(self, in_width: int) -> int:
        return self.width


@dataclass(frozen=True)
class MaxPool:
    """Per-patch maximum; output width equals the patch count."""

    layout: PatchLayout

    def out_width(self, in_width: int) -> int:
        if self.layout.width != in_width:
            raise StructuralError(
                f"pool layout indexes width {self.layout.width}, "
                f"previous layer has width {in_width}"
            )
        return self.layout.patch_count


@dataclass(frozen=True)
class Output:
    """Final fully connected layer; applies no nonlinearity."""

    width: int

    def __post_init__(self):
        if self.width < 1:
            raise StructuralError("output width must be positive")

    def out_width(self, in_width: int) -> int:
        return self.width


Layer = Conv | FullyConnected | MaxPool | Output


@dataclass(frozen=True, slots=True)
class LayerPlan:
    """One layer of a spec, worked out once: the ``layout`` it reads from
    the layer below (``full_layout`` for dense and output layers), its
    ``width`` n_k, its ``activation`` (``Identity`` for the output) and the
    (l, T) ``filter_shape`` (both None for pooling), whether finite
    pre-activations can give it non-finite features (``unbounded``: an
    activation other than ``Identity`` with a tail that has no finite
    limit), and the span [``offset``, ``stop``) of its filter matrix then
    bias in the flat parameter vector of layers 1..L, empty for pooling."""

    layout: PatchLayout
    width: int
    activation: Activation | None
    filter_shape: tuple[int, int] | None
    unbounded: bool
    offset: int
    stop: int


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture: input width plus an ordered layer stack.

    Layer numbering is 1-based in every public operation; layer 0 is the
    input. Construction validates the width chain in the one walk that
    builds ``plan``, a ``LayerPlan`` per layer index-aligned to the layers
    (entry 0 is None) that forward, backward and lifting read, and
    ``widths`` (n_0, ..., n_L). Networks used for training or landscape
    analysis additionally need an ``Output`` last layer (``backward``
    checks it); headless stacks are fine for feature-level work.
    """

    input_width: int
    layers: tuple[Layer, ...]
    plan: tuple[LayerPlan | None, ...] = field(init=False, repr=False, compare=False)
    widths: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.input_width < 1:
            raise StructuralError("input width must be positive")
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers:
            raise StructuralError("network needs at least one layer")
        for i, layer in enumerate(layers[:-1]):
            if isinstance(layer, Output):
                raise StructuralError(f"Output layer at position {i + 1} is not last")
        plan, width, offset = [None], self.input_width, 0
        for layer in layers:
            layout = (layer.layout if isinstance(layer, (Conv, MaxPool))
                      else full_layout(width))
            width = layer.out_width(width)  # raises on a width mismatch
            if isinstance(layer, MaxPool):
                plan.append(LayerPlan(layout, width, None, None, False, offset, offset))
                continue
            shape = (layout.patch_size, width // layout.patch_count)
            stop = offset + shape[0] * shape[1] + width
            activation = Identity() if isinstance(layer, Output) else layer.activation
            profile = activation.profile()
            unbounded = (not isinstance(activation, Identity)
                         and (profile.limit_neg is None or profile.limit_pos is None))
            plan.append(LayerPlan(layout, width, activation, shape, unbounded, offset, stop))
            offset = stop
        object.__setattr__(self, "plan", tuple(plan))
        object.__setattr__(self, "widths", (self.input_width, *(p.width for p in plan[1:])))

    @property
    def depth(self) -> int:
        return len(self.layers)

    def layer(self, k: int) -> Layer:
        if not 1 <= k <= self.depth:
            raise StructuralError(f"layer index {k} outside [1, {self.depth}]")
        return self.layers[k - 1]

    def _planned(self, k: int) -> LayerPlan:
        self.layer(k)  # the range check
        return self.plan[k]

    def layer_layout(self, k: int) -> PatchLayout:
        """The patch layout layer ``k`` reads from layer ``k-1``.

        Fully connected and output layers read one whole-layer patch,
        the layout ``full_layout`` shares among all layers of a width.
        """
        return self._planned(k).layout

    @property
    def input_layout(self) -> PatchLayout:
        """Patches of the input layer, i.e. what layer 1 reads."""
        return self.layer_layout(1)

    def activation(self, k: int) -> Activation | None:
        return self._planned(k).activation

    def is_pooling(self, k: int) -> bool:
        return self._planned(k).filter_shape is None

    def has_pooling(self, first: int = 1) -> bool:
        """Whether any of layers first..L pools."""
        return any(self.is_pooling(k) for k in range(first, self.depth + 1))

    def filter_shape(self, k: int) -> tuple[int, int] | None:
        """(l, T) of layer k's filter matrix, or None for pooling."""
        return self._planned(k).filter_shape


@dataclass(frozen=True, eq=False)
class Params:
    """Per-layer filter matrices and bias vectors, index-aligned to the
    owning spec (entry 0 and max-pool entries are None). Entries above a
    construction's target layer may also be None for partial parameter
    sets. Arrays are read-only; a caller's arrays are copied first."""

    weights: tuple[np.ndarray | None, ...]
    biases: tuple[np.ndarray | None, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(_frozen(w) for w in self.weights))
        object.__setattr__(self, "biases", tuple(_frozen(b) for b in self.biases))
        if len(self.weights) != len(self.biases):
            raise StructuralError("weights and biases must have equal length")

    @classmethod
    def empty(cls, spec: NetworkSpec) -> "Params":
        n = spec.depth + 1
        return cls((None,) * n, (None,) * n)

    @classmethod
    def zeros(cls, spec: NetworkSpec) -> "Params":
        return cls._per_layer(spec, np.zeros, np.zeros)

    @classmethod
    def gaussian(
        cls,
        spec: NetworkSpec,
        rng: np.random.Generator,
        weight_scale: float = 1.0,
        bias_scale: float = 1.0,
        up_to: int | None = None,
    ) -> "Params":
        """Standard-Gaussian parameters for layers 1..up_to (default all)."""
        return cls._per_layer(spec, lambda s: weight_scale * rng.standard_normal(s),
                              lambda n: bias_scale * rng.standard_normal(n), up_to)

    @classmethod
    def fan_in_gaussian(cls, spec: NetworkSpec, rng: np.random.Generator) -> "Params":
        """Gaussian weights scaled by 1/sqrt(fan-in) and Gaussian biases of
        standard deviation 0.01; a sensible training initialization that
        keeps pre-activations O(1) through sigmoid-style layers."""
        return cls._per_layer(spec, lambda s: rng.standard_normal(s) / np.sqrt(s[0]),
                              lambda n: 0.01 * rng.standard_normal(n))

    @classmethod
    def _per_layer(cls, spec: NetworkSpec, weight, bias, up_to: int | None = None):
        """``weight(filter_shape)`` then ``bias(width)`` for each weighted
        layer up to ``up_to``, in layer order: that order fixes the random
        draws of the Gaussian initializers."""
        up_to = spec.depth if up_to is None else up_to
        weights, biases = [None], [None]
        for k, layer in enumerate(spec.plan[1:], 1):
            shape = layer.filter_shape if k <= up_to else None
            weights.append(None if shape is None else _seal(weight(shape)))
            biases.append(None if shape is None else _seal(bias(layer.width)))
        return cls(tuple(weights), tuple(biases))

    def with_layer(self, k: int, W: np.ndarray, b: np.ndarray) -> "Params":
        weights = list(self.weights)
        biases = list(self.biases)
        weights[k] = W
        biases[k] = b
        return Params(tuple(weights), tuple(biases))


def _seal(arr: np.ndarray) -> np.ndarray:
    """Mark an array that the library has just created, and that nothing
    else references, read-only in place, together with the array it is a
    view of, if any; the frozen containers then take it without a copy."""
    arr.setflags(write=False)
    if arr.base is not None:
        arr.base.setflags(write=False)
    return arr


def _is_sealed(arr) -> bool:
    """A read-only ndarray that owns its memory: no writable view of it
    exists."""
    return (isinstance(arr, np.ndarray) and arr.flags.owndata
            and not arr.flags.writeable)


def _frozen(arr):
    """arr itself if it is a read-only float64 array that is sealed or a
    view of a sealed array, such as a row slice of a sealed dataset. Any
    other array, which includes every writable array a caller passes and
    every read-only view of one, is copied by ``_freeze``."""
    if arr is None or (isinstance(arr, np.ndarray) and arr.dtype == np.float64
                       and not arr.flags.writeable
                       and (arr.base is None or _is_sealed(arr.base))):
        return arr
    return _freeze(arr)


def _freeze(arr) -> np.ndarray:
    """A read-only float64 copy of arr."""
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


def _param_views(spec: NetworkSpec, flat: np.ndarray, first: int = 1):
    """Per-layer (weights, biases) lists of views of the flat vector
    ``flat``, which holds layer first's filter matrix, then its bias, then
    layer first+1's, and so on up to the last layer: the order in which
    the initializers draw, and the plan's spans less layer first's offset.
    Entries below ``first`` and at pooling layers are None."""
    weights = [None] * (spec.depth + 1)
    biases = [None] * (spec.depth + 1)
    base = spec.plan[first].offset
    for k, layer in enumerate(spec.plan[first:], first):
        if layer.filter_shape is None:
            continue
        at, bias_at = layer.offset - base, layer.stop - base - layer.width
        weights[k] = flat[at:bias_at].reshape(layer.filter_shape)
        biases[k] = flat[bias_at : layer.stop - base]
    return weights, biases


def _require_output_last(spec: NetworkSpec) -> None:
    if not isinstance(spec.layers[-1], Output):
        raise StructuralError("loss-level operations require an Output last layer")


def _check_params_finite(params: Params, up_to: int) -> None:
    """Raise StructuralError naming the first of layers 1..up_to whose
    filter matrix or bias holds a non-finite value."""
    for k in range(1, up_to + 1):
        W, b = params.weights[k], params.biases[k]
        if W is not None and not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise StructuralError(f"layer {k} parameters contain non-finite values")


def _check_param_shapes(spec: NetworkSpec, params: Params, up_to: int | None = None) -> None:
    """Check that layers 1..up_to have parameters of the network's shapes."""
    up_to = spec.depth if up_to is None else up_to
    if len(params.weights) != spec.depth + 1:
        raise StructuralError(
            f"params cover {len(params.weights) - 1} layers, spec has {spec.depth}"
        )
    for k, layer in enumerate(spec.plan[1 : up_to + 1], 1):
        shape = layer.filter_shape
        W, b = params.weights[k], params.biases[k]
        if shape is None:
            if W is not None or b is not None:
                raise StructuralError(f"layer {k} is max-pool but has parameters")
            continue
        if W is None or b is None:
            raise StructuralError(f"layer {k} is missing parameters")
        if W.shape != shape:
            raise StructuralError(f"layer {k} weights {W.shape}, expected {shape}")
        if b.shape != (layer.width,):
            raise StructuralError(f"layer {k} bias {b.shape}, expected ({layer.width},)")


@dataclass(frozen=True, eq=False)
class ForwardTrace:
    """Per-layer feature matrices for one batch.

    ``F[k]`` are post-activations (``F[0]`` is the input), ``G[k]`` the
    pre-activations; ``G`` is None at index 0 and at max-pool layers.
    Arrays are read-only; a caller's arrays are copied first. A trace
    from ``forward`` computes each ``G[k]`` of a nonlinear layer when it
    is first read (see ``_PreActivations``).
    """

    F: tuple[np.ndarray, ...]
    G: Sequence[np.ndarray | None]

    def __post_init__(self):
        object.__setattr__(self, "F", tuple(_frozen(a) for a in self.F))
        if not isinstance(self.G, _PreActivations):
            object.__setattr__(self, "G", tuple(_frozen(a) for a in self.G))

    @property
    def output(self) -> np.ndarray:
        return self.F[-1]

    @property
    def last_layer(self) -> int:
        return len(self.F) - 1


class _PreActivations(Sequence):
    """G_0..G_K of a trace from ``forward``, indexed by layer: None at
    index 0 and at pooling layers, F_k itself at a linear layer, and at a
    nonlinear one F_{k-1} @ lift(W_k) + b_k, recomputed on first read by
    ``_pre_activation``, the tile walk of ``forward``, then cached
    read-only, so that a second read returns the same array.

    It holds the trace's F and the parameters forward read, and is
    exact only while these keep their values: the arrays of ``Params``
    are read-only, and ``train_adam``, which writes the vector that its
    ``Params`` views, drops each step's trace before it writes.
    """

    def __init__(self, spec: NetworkSpec, params: Params, F: tuple[np.ndarray, ...]):
        self._plan, self._params, self._F = spec.plan, params, F
        self._cache: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._F)

    def __getitem__(self, k: int) -> np.ndarray | None:
        k = range(len(self._F))[k]  # IndexError past the last layer
        layer = self._plan[k]
        if layer is None or layer.filter_shape is None:
            return None
        if isinstance(layer.activation, Identity):
            return self._F[k]
        if k not in self._cache:
            # a racing thread computes the same bits; the first one stored wins
            self._cache.setdefault(k, _pre_activation(
                layer, self._F[k - 1], self._params.weights[k], self._params.biases[k]))
        return self._cache[k]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Training inputs X (N x d) and targets Y (N x m), optionally with
    integer class labels and a full-rank class embedding Z (m x m) whose
    row j is the target for every sample of class j."""

    X: np.ndarray
    Y: np.ndarray
    labels: tuple[int, ...] | None = None
    Z: np.ndarray | None = None

    def __post_init__(self):
        X = _frozen(self.X)
        Y = _frozen(self.Y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        if X.ndim != 2 or Y.ndim != 2:
            raise StructuralError("X and Y must be matrices")
        if X.shape[0] != Y.shape[0]:
            raise StructuralError(
                f"X has {X.shape[0]} rows but Y has {Y.shape[0]}"
            )
        if self.labels is not None:
            labels = tuple(int(c) for c in self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != X.shape[0]:
                raise StructuralError("one label per sample required")
        if self.Z is not None:
            Z = _frozen(self.Z)
            object.__setattr__(self, "Z", Z)
            m = Y.shape[1]
            if Z.shape != (m, m):
                raise StructuralError(f"Z must be ({m}, {m}), got {Z.shape}")
            from .analysis import estimate_rank

            if not estimate_rank(Z).full_rank:
                raise StructuralError("class embedding Z must have full rank")
            if self.labels is not None:
                codes = np.array(self.labels)
                outside = (codes < 0) | (codes >= m)
                inside = np.where(outside, 0, codes).astype(np.intp)
                bad = outside | (Y != Z[inside]).any(axis=1)
                if bad.any():
                    i = int(np.argmax(bad))
                    c = self.labels[i]
                    if outside[i]:
                        raise StructuralError(f"label {c} outside [0, {m})")
                    raise StructuralError(f"row {i} of Y does not equal embedding row {c}")

    @property
    def sample_count(self) -> int:
        return self.X.shape[0]

    @property
    def input_width(self) -> int:
        return self.X.shape[1]

    @property
    def class_count(self) -> int:
        return self.Y.shape[1]


def _weighted(spec: NetworkSpec, k: int) -> LayerPlan:
    """Layer k's plan entry. A pooling layer has no weights to lift or
    construct: UnsupportedLayerError."""
    if spec.is_pooling(k):
        raise UnsupportedLayerError(f"layer {k} is max-pool and has no weights")
    return spec.plan[k]


def lift_weights(spec: NetworkSpec, k: int, W: np.ndarray) -> np.ndarray:
    """Embed filter matrix W of layer k into the full weight matrix U.

    Column ``h = p*T + t`` of U carries filter t's entries at the index
    positions of patch p and zeros elsewhere, so that
    ``G_k = F_{k-1} @ U + b`` reproduces the per-patch definition. For a
    fully connected layer U equals W. The map is linear in W.
    """
    layer = _weighted(spec, k)
    layout, shape = layer.layout, layer.filter_shape
    W = np.asarray(W, dtype=np.float64)
    if W.shape != shape:
        raise StructuralError(f"layer {k} weights {W.shape}, expected {shape}")
    U = np.zeros((layout.width, layer.width))
    U.reshape(layout.width, layout.patch_count, shape[1])[
        layout.patches, np.arange(layout.patch_count)[:, None]] = W
    return U


def lift_adjoint(spec: NetworkSpec, k: int, V: np.ndarray) -> np.ndarray:
    """Adjoint of ``lift_weights`` in the Frobenius inner product:
    ``<lift(W), V> == <W, lift_adjoint(V)>`` for all W. Sums V's entries
    over every (patch, filter) placement of each filter tap; this is the
    chain rule that pulls a full-matrix gradient back to filter space.
    """
    layer = _weighted(spec, k)
    layout = layer.layout
    V = np.asarray(V, dtype=np.float64)
    expected = (layout.width, layer.width)
    if V.shape != expected:
        raise StructuralError(f"layer {k} lifted matrix {V.shape}, expected {expected}")
    # summing the (l, T) blocks in patch order fixes the rounding of grad_W
    return V.reshape(layout.width, layout.patch_count, layer.filter_shape[1])[
        layout.patches, np.arange(layout.patch_count)[:, None]].sum(axis=0)


class _Workspace(threading.local):
    """The calling thread's float64 buffers, keyed by role and recycled
    from call to call; a thread's first call makes its own.

    ``take`` hands out the first ``prod(shape)`` entries of the role's
    buffer when the buffer is large enough and no live array references
    it. Every view or slice of a buffer keeps the buffer itself as its
    ``.base``, so a held trace, gradient set or any piece of one keeps its
    buffers busy. A busy or too small buffer is replaced by a fresh one of
    the requested size, which the role adopts, so an array that ``take``
    handed out is never overwritten while anyone holds it. A recycled
    buffer that ``_seal`` made read-only for a trace is made writable
    again first.
    """

    def __init__(self):
        self._buffers: dict = {}

    def take(self, key, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size or sys.getrefcount(buf) > _FREE_REFS:
            buf = self._buffers[key] = np.empty(size)
        else:
            buf.setflags(write=True)
        return buf[:size].reshape(shape)


def _free_refs() -> int:
    """What ``sys.getrefcount`` reads in ``_Workspace.take`` for a buffer
    that only its role holds: on CPython 3.11 the role, ``take``'s local
    and the call's argument. Read once, the way ``take`` reads it, since
    an interpreter may lend a local to a call without counting it."""
    roles = {None: np.empty(0)}
    buf = roles.get(None)
    return sys.getrefcount(buf)


_FREE_REFS = _free_refs()
_WORKSPACE = _Workspace()


def _tile_rows(width: int) -> int:
    """How many rows of ``width`` entries one ``ROW_TILE`` holds, at least
    one."""
    return max(1, ROW_TILE // width)


def _chunks(rows: int, width: int):
    """(row slice, column slice) pairs that cover an (rows, width) array in
    row-major order with pieces of at most ``CHUNK`` entries: blocks of
    whole rows while one row fits, else slices of ``CHUNK`` columns of one
    row, the last one shorter."""
    if width <= CHUNK:
        step = CHUNK // width
        for start in range(0, rows, step):
            yield slice(start, start + step), slice(None)
        return
    for row in range(rows):
        for start in range(0, width, CHUNK):
            yield slice(row, row + 1), slice(start, start + CHUNK)


def _gather(layout: PatchLayout, rows: int) -> np.ndarray | None:
    """Where ``layout.extract`` of ``rows`` rows writes: the thread's
    scratch as (rows, P, l), or None for a whole-layer layout, which needs
    none: its one patch of a row is a view of the row."""
    return None if layout._whole_layer else _WORKSPACE.take(
        "scratch", (rows, *layout.patches.shape))


def _patch_blocks(layout: PatchLayout, F: np.ndarray):
    """Walk the (N, layout.width) rows F in blocks of ``_tile_rows(P*l)``
    rows, yielding each block's row slice and its (rows, P, l) patches,
    gathered by ``layout.extract`` into the thread's scratch as
    ``_gather`` sizes it, so a gathered block holds at most one
    ``ROW_TILE``. The scratch is taken anew for each block, so a caller
    that drops a block's patches may use the scratch until the next one.
    A whole-layer layout's patches are views."""
    N, (P, l) = F.shape[0], layout.patches.shape
    rows = _tile_rows(P * l)
    for start in range(0, N, rows):
        block = F[start : start + rows]
        yield slice(start, start + rows), layout.extract(
            block, out=_gather(layout, len(block)))


def _product_tiles(layout: PatchLayout, F: np.ndarray, W: np.ndarray, out: np.ndarray):
    """The one walk of a weighted layer's products before the bias, on the
    (N, layout.width) rows F: yields each tile's (rows, P*T) products,
    written to the tile's rows of the (N, P*T) ``out``. A tile is a
    ``_patch_blocks`` block and its products are one (rows*P, l) x (l, T)
    GEMM; the tile's patches are dropped before it is yielded, so the
    thread's scratch is free until the walk resumes. A whole-layer layout
    is one tile of all N rows and one GEMM, since BLAS may round a GEMM of
    fewer rows differently. ``patch_products``, ``forward`` and
    ``ForwardTrace.G`` share this walk, so they give the same bits."""
    T = W.shape[1]
    if layout._whole_layer:
        yield np.matmul(F, W, out=out)
        return
    for rows, patches in _patch_blocks(layout, F):
        G = out[rows]
        np.matmul(patches.reshape(-1, layout.patch_size), W, out=G.reshape(-1, T))
        del patches  # held, it would keep the caller from recycling the scratch
        yield G


def _pre_activation(layer: LayerPlan, F: np.ndarray, W: np.ndarray, b: np.ndarray):
    """G = F @ lift(W) + b of a weighted layer on the rows F of the layer
    below, by ``forward``'s tile walk, into a sealed array of its own:
    the bits that forward's tiles held."""
    G = patch_products(layer.layout, F, W).reshape(F.shape[0], layer.width)
    G += b
    return _seal(G)


def patch_products(layout: PatchLayout, F: np.ndarray, W: np.ndarray) -> np.ndarray:
    """(N, P, T) inner products ``<W[:, t], patch_p(F[i])>``: a weighted
    layer's pre-activation before the bias, as one (b*P, l) x (l, T) GEMM
    for each block that ``_patch_blocks`` gathers, by ``_product_tiles``.
    A whole-layer layout gathers nothing: its one patch is a row of F, and
    all N rows go in one GEMM.

    A batch of one block is one gather and one GEMM. Above that, BLAS may
    round a block's GEMM differently from the whole batch's: each entry
    stays within 2*l*eps*(|patch| @ |W|) of it."""
    N, P, T = F.shape[0], len(layout.patches), W.shape[1]
    G = np.empty((N, P * T))
    for _ in _product_tiles(layout, F, W, G):
        pass
    return G.reshape(N, P, T)


def max_pool(
    layout: PatchLayout,
    F: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """(N, P) per-patch maxima of the (N, layout.width) rows F: tap 0,
    then a running ``np.maximum`` with taps 1..l-1 in order, so NaN
    propagates, and since ``np.maximum`` returns its first operand when
    both are NaN, a window that holds NaN gives the bits of its first NaN
    in tap order, sign and payload included. A ``window_grid`` layout
    reads its taps from the strided ``window_view`` of F, with no gather
    and no scratch; any other layout takes them from each block that
    ``_patch_blocks`` gathers. Both do the same operations on the same
    values, so they give the same bits, NaN and signed zeros included.
    ``out`` receives the maxima; without it they are allocated."""
    M = np.empty((F.shape[0], layout.patch_count)) if out is None else out
    grid = layout.window_grid
    if grid is not None:
        windows = layout.window_view(F)
        maxima = M.reshape((F.shape[0], *grid.patch_shape), copy=False)
        taps = np.ndindex(grid.tap_shape)
        maxima[...] = windows[(..., *next(taps))]
        for tap in taps:
            np.maximum(maxima, windows[(..., *tap)], out=maxima)
        return M
    for rows, patches in _patch_blocks(layout, F):
        maxima = M[rows]
        maxima[...] = patches[:, :, 0]
        for tap in range(1, layout.patch_size):
            np.maximum(maxima, patches[:, :, tap], out=maxima)
    return M


def _all_finite(A: np.ndarray) -> bool:
    """Whether every entry of A is finite. A finite sum proves it in one
    pass; a sum that is not finite, which finite entries can also give by
    overflowing, is settled by the exact entrywise scan. The caller holds
    an ``np.errstate`` that ignores the sum's overflow and invalid
    warnings."""
    return bool(np.isfinite(A.sum()) or np.isfinite(A).all())


def _raise_non_finite(params: Params, up_to: int, message: str):
    """Blame a non-finite G or F on the parameters if any of layers
    1..up_to holds a non-finite entry (StructuralError), otherwise on
    overflow (NumericOverflowError). A non-finite W or b entry makes a
    whole column of its layer's G non-finite, so the parameters need to
    be scanned only here."""
    _check_params_finite(params, up_to)
    raise NumericOverflowError(message)


def forward(
    spec: NetworkSpec,
    params: Params,
    X: np.ndarray,
    up_to: int | None = None,
) -> ForwardTrace:
    """Evaluate layers 1..up_to (default: all) on a batch.

    Every weighted layer's pre-activation equals the lifted-matrix product
    ``F_{k-1} @ lift_weights(W_k) + b_k`` up to floating-point rounding,
    and every pooling layer is ``max_pool``. A weighted layer's products
    are written tile by tile by ``_product_tiles`` into the rows of its
    F_k buffer; the bias add, the finiteness sums and the activation then
    run in place over the ``_chunks`` of each tile, so each of their
    temporaries is at most one ``CHUNK`` and no G buffer is kept. A linear
    layer's G_k is its F_k. Pure function: identical inputs give identical
    traces. Every F except the input is a view of a buffer of the calling
    thread's; a later call on the thread recycles that buffer only once
    nothing references the trace or any view of its arrays. The trace's
    ``G[k]`` of a nonlinear layer is recomputed from its F_{k-1} and the
    layer's parameters on first read, bit for bit.

    Raises StructuralError for an ``up_to`` outside [0, L], a malformed or
    non-finite batch and misshapen or non-finite parameters of layers
    1..up_to, and NumericOverflowError naming the layer whose G or F
    leaves the finite range when the parameters are finite.
    """
    up_to = spec.depth if up_to is None else up_to
    if not 0 <= up_to <= spec.depth:
        raise StructuralError(f"up_to {up_to} outside [0, {spec.depth}]")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != spec.input_width:
        raise StructuralError(
            f"X must be (N, {spec.input_width}), got {X.shape}"
        )
    X = _frozen(X)  # so that the trace's G reads the rows forward read
    take = _WORKSPACE.take
    # overflow surfaces as NumericOverflowError below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if not _all_finite(X):
            raise StructuralError("X contains non-finite values")
        _check_param_shapes(spec, params, up_to)
        N = X.shape[0]
        if N == 0:
            # no entry of G can show a non-finite parameter
            _check_params_finite(params, up_to)

        F: list[np.ndarray] = [X]
        for k, layer in enumerate(spec.plan[1 : up_to + 1], 1):
            prev, layout, width = F[k - 1], layer.layout, layer.width
            Fk = take(("F", k), (N, width))
            if layer.filter_shape is None:
                # the maxima of finite features are finite
                F.append(_seal(max_pool(layout, prev, Fk)))
                continue
            sigma, W, bias = layer.activation, params.weights[k], params.biases[k]
            linear = isinstance(sigma, Identity)
            G_finite = F_finite = True
            # each tile's products land in F_k's rows and become F_k in place
            for Gt in _product_tiles(layout, prev, W, Fk):
                # the sigmoid's scratch, taken once the tile's patches are dropped
                scratch = None if linear else take("scratch", (min(Gt.size, CHUNK),))
                for piece, cols in _chunks(len(Gt), width):
                    Gb = Gt[piece, cols]
                    Gb += bias[cols]  # the products are the thread's buffer
                    G_finite = G_finite and _all_finite(Gb)
                    if not linear:
                        sigma(Gb, out=Gb, scratch=scratch[: Gb.size].reshape(Gb.shape))
                        F_finite = F_finite and (not layer.unbounded or _all_finite(Gb))
                del scratch  # held, it would keep the next tile from recycling the scratch
            if not G_finite:
                _raise_non_finite(params, up_to, f"non-finite pre-activation at layer {k}")
            if not F_finite:
                _raise_non_finite(params, up_to, f"non-finite activation at layer {k}")
            F.append(_seal(Fk))
    return ForwardTrace(tuple(F), _PreActivations(spec, params, tuple(F)))
