"""Network description, parameter containers, weight lifting, and the
forward pass.

A network is an ordered stack of layers over an input of width ``d``.
Convolutional layers apply ``T`` shared filters to the patches of the
previous layer; the unit for (patch p, filter t) sits at position
``h = p*T + t``. A fully connected layer is the single-patch special
case. Max-pooling takes the per-patch maximum. The output layer is fully
connected with no nonlinearity.

A convolution is computed by gathering its layout's patches
(``patch_products``); backward propagates through the transpose of that
gather, ``PatchLayout.scatter_add``, which equals ``D_k U_k^T``.
``lift_weights`` builds the dense matrix ``U_k`` of the convolution for
rank and SVD work only; ``lift_adjoint`` is its transpose as a linear map,
which pulls full-matrix gradients back to filter space.

The frozen containers copy a caller's arrays but share the arrays the
library seals as it creates them, and read-only views of those. The
forward pass proves its features finite by their sums and scans the
parameters for non-finite entries only when a feature matrix is not
finite, or when the batch has no rows. A bounded activation of finite
pre-activations is finite, so only an activation with an unbounded tail
has its features summed.

A ``Workspace`` holds one float64 buffer per role (a layer's G, F, delta
or lifted gradient, the flat gradient, and one scratch for temporaries
that die inside a call). ``forward`` and ``backward`` given the same
workspace write into those buffers instead of allocating, so a training
run faults its arrays in once instead of once per step. A trace or
gradient set made with a workspace is overwritten by the next call that
uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .activations import Activation, Identity
from .errors import NumericOverflowError, StructuralError, UnsupportedLayerError
from .layout import PatchLayout, full_layout


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
        self._check_in_width(in_width)
        return self.layout.patch_count * self.filters

    def _check_in_width(self, in_width):
        if self.layout.width != in_width:
            raise StructuralError(
                f"layout indexes a layer of width {self.layout.width}, "
                f"but the previous layer has width {in_width}"
            )


@dataclass(frozen=True)
class FullyConnected:
    """Dense layer; equivalent to Conv with one whole-layer patch."""

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


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture: input width plus an ordered layer stack.

    Layer numbering is 1-based in every public operation; layer 0 is the
    input. Width chaining is validated at construction. Networks used for
    training or landscape analysis additionally need an ``Output`` last
    layer (``backward`` checks it); headless stacks are fine for
    feature-level work.
    """

    input_width: int
    layers: tuple[Layer, ...]

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
        width = self.input_width
        for layer in layers:
            width = layer.out_width(width)  # raises on mismatch

    @property
    def depth(self) -> int:
        return len(self.layers)

    @cached_property
    def widths(self) -> tuple[int, ...]:
        """(n_0, n_1, ..., n_L), computed once per spec."""
        out = [self.input_width]
        for layer in self.layers:
            out.append(layer.out_width(out[-1]))
        return tuple(out)

    def layer(self, k: int) -> Layer:
        if not 1 <= k <= self.depth:
            raise StructuralError(f"layer index {k} outside [1, {self.depth}]")
        return self.layers[k - 1]

    def layer_layout(self, k: int) -> PatchLayout:
        """The patch layout layer ``k`` reads from layer ``k-1``.

        Fully connected and output layers read one whole-layer patch.
        """
        layer = self.layer(k)
        if isinstance(layer, (Conv, MaxPool)):
            return layer.layout
        return full_layout(self.widths[k - 1])

    @property
    def input_layout(self) -> PatchLayout:
        """Patches of the input layer, i.e. what layer 1 reads."""
        return self.layer_layout(1)

    def activation(self, k: int) -> Activation | None:
        layer = self.layer(k)
        if isinstance(layer, (Conv, FullyConnected)):
            return layer.activation
        if isinstance(layer, Output):
            return Identity()
        return None

    def is_pooling(self, k: int) -> bool:
        return isinstance(self.layer(k), MaxPool)

    def has_pooling(self, first: int = 1, last: int | None = None) -> bool:
        last = self.depth if last is None else last
        return any(self.is_pooling(k) for k in range(first, last + 1))

    def filter_shape(self, k: int) -> tuple[int, int] | None:
        """(rows, cols) of layer k's parameter matrix, or None for pooling."""
        layer = self.layer(k)
        if isinstance(layer, Conv):
            return (layer.layout.patch_size, layer.filters)
        if isinstance(layer, (FullyConnected, Output)):
            return (self.widths[k - 1], self.widths[k])
        return None


@dataclass(frozen=True)
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
        for k in range(1, spec.depth + 1):
            shape = spec.filter_shape(k) if k <= up_to else None
            weights.append(None if shape is None else _seal(weight(shape)))
            biases.append(None if shape is None else _seal(bias(spec.widths[k])))
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
    the initializers draw. Entries below ``first`` and at pooling layers
    are None."""
    weights = [None] * (spec.depth + 1)
    biases = [None] * (spec.depth + 1)
    at = 0
    for k in range(first, spec.depth + 1):
        shape = spec.filter_shape(k)
        if shape is None:
            continue
        size = shape[0] * shape[1]
        weights[k] = flat[at : at + size].reshape(shape)
        biases[k] = flat[at + size : at + size + spec.widths[k]]
        at += size + spec.widths[k]
    return weights, biases


def _param_count(spec: NetworkSpec, first: int = 1) -> int:
    """Length of the flat vector that ``_param_views`` splits."""
    return sum(shape[0] * shape[1] + spec.widths[k]
               for k in range(first, spec.depth + 1)
               if (shape := spec.filter_shape(k)) is not None)


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
    for k in range(1, up_to + 1):
        shape = spec.filter_shape(k)
        W, b = params.weights[k], params.biases[k]
        if shape is None:
            if W is not None or b is not None:
                raise StructuralError(f"layer {k} is max-pool but has parameters")
            continue
        if W is None or b is None:
            raise StructuralError(f"layer {k} is missing parameters")
        if W.shape != shape:
            raise StructuralError(f"layer {k} weights {W.shape}, expected {shape}")
        if b.shape != (spec.widths[k],):
            raise StructuralError(
                f"layer {k} bias {b.shape}, expected ({spec.widths[k]},)"
            )


@dataclass(frozen=True)
class ForwardTrace:
    """Per-layer feature matrices for one batch.

    ``F[k]`` are post-activations (``F[0]`` is the input), ``G[k]`` the
    pre-activations; ``G`` is None at index 0 and at max-pool layers.
    Arrays are read-only; a caller's arrays are copied first.
    """

    F: tuple[np.ndarray, ...]
    G: tuple[np.ndarray | None, ...]

    def __post_init__(self):
        object.__setattr__(self, "F", tuple(_frozen(a) for a in self.F))
        object.__setattr__(self, "G", tuple(_frozen(a) for a in self.G))

    @property
    def output(self) -> np.ndarray:
        return self.F[-1]

    @property
    def last_layer(self) -> int:
        return len(self.F) - 1


@dataclass(frozen=True)
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
                for i, c in enumerate(self.labels):
                    if not 0 <= c < m:
                        raise StructuralError(f"label {c} outside [0, {m})")
                    if not np.array_equal(Y[i], Z[c]):
                        raise StructuralError(
                            f"row {i} of Y does not equal embedding row {c}"
                        )

    @property
    def sample_count(self) -> int:
        return self.X.shape[0]

    @property
    def input_width(self) -> int:
        return self.X.shape[1]

    @property
    def class_count(self) -> int:
        return self.Y.shape[1]


def lift_weights(spec: NetworkSpec, k: int, W: np.ndarray) -> np.ndarray:
    """Embed filter matrix W of layer k into the full weight matrix U.

    Column ``h = p*T + t`` of U carries filter t's entries at the index
    positions of patch p and zeros elsewhere, so that
    ``G_k = F_{k-1} @ U + b`` reproduces the per-patch definition. For a
    fully connected layer U is W itself. The map is linear in W.
    """
    layer = spec.layer(k)
    if isinstance(layer, MaxPool):
        raise UnsupportedLayerError(f"layer {k} is max-pool and has no weights")
    shape = spec.filter_shape(k)
    W = np.asarray(W, dtype=np.float64)
    if W.shape != shape:
        raise StructuralError(f"layer {k} weights {W.shape}, expected {shape}")
    if isinstance(layer, (FullyConnected, Output)):
        return W.copy()
    idx = layer.layout.index_array()  # (P, l)
    P, T = layer.layout.patch_count, layer.filters
    U = np.zeros((spec.widths[k - 1], P * T))
    U.reshape(-1, P, T)[idx, np.arange(P)[:, None]] = W
    return U


def lift_adjoint(spec: NetworkSpec, k: int, V: np.ndarray) -> np.ndarray:
    """Adjoint of ``lift_weights`` in the Frobenius inner product:
    ``<lift(W), V> == <W, lift_adjoint(V)>`` for all W. Sums V's entries
    over every (patch, filter) placement of each filter tap; this is the
    chain rule that pulls a full-matrix gradient back to filter space.
    """
    layer = spec.layer(k)
    if isinstance(layer, MaxPool):
        raise UnsupportedLayerError(f"layer {k} is max-pool and has no weights")
    V = np.asarray(V, dtype=np.float64)
    expected = (spec.widths[k - 1], spec.widths[k])
    if V.shape != expected:
        raise StructuralError(f"layer {k} lifted matrix {V.shape}, expected {expected}")
    if isinstance(layer, (FullyConnected, Output)):
        return V.copy()
    idx = layer.layout.index_array()
    P, T = layer.layout.patch_count, layer.filters
    # summing the (l, T) blocks in patch order fixes the rounding of grad_W
    return V.reshape(-1, P, T)[idx, np.arange(P)[:, None]].sum(axis=0)


class Workspace:
    """Float64 buffers keyed by role, reused from call to call.

    ``take`` hands out the first ``prod(shape)`` entries of the role's
    buffer, which grows to the largest request. A buffer that ``_seal``
    made read-only for a trace is made writable again first: the trace's
    own views stay read-only, but their contents change with the next
    call that takes the same role.
    """

    def __init__(self):
        self._buffers: dict = {}

    def take(self, key, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = self._buffers[key] = np.empty(size)
        else:
            buf.setflags(write=True)
        return buf[:size].reshape(shape)


def _take(workspace: Workspace | None, key, shape: tuple[int, ...]) -> np.ndarray | None:
    """The workspace's buffer for ``key``, or None without a workspace, in
    which case the operation that receives it allocates its result."""
    return None if workspace is None else workspace.take(key, shape)


def patch_products(
    layout: PatchLayout,
    F: np.ndarray,
    W: np.ndarray,
    out: np.ndarray | None = None,
    gather: np.ndarray | None = None,
) -> np.ndarray:
    """(N, P, T) inner products ``<W[:, t], patch_p(F[i])>``: the
    convolution's pre-activation before the bias, via the patch gather.
    ``out`` (N*P*T entries) receives the products and ``gather`` the
    patches; without them both are allocated, the gather first."""
    patches = layout.extract(F, out=gather)
    N, P, l = patches.shape
    G = np.matmul(patches.reshape(N * P, l), W,
                  out=None if out is None else out.reshape(N * P, W.shape[1]))
    return G.reshape(N, P, W.shape[1])


def _all_finite(A: np.ndarray) -> bool:
    """Whether every entry of A is finite. A finite sum proves it in one
    pass; a sum that is not finite, which finite entries can also give by
    overflowing, is settled by the exact entrywise scan."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(A.sum()):
            return True
    return bool(np.isfinite(A).all())


def _raise_non_finite(params: Params, up_to: int, message: str):
    """Blame a non-finite G or F on the parameters if any of layers
    1..up_to holds a non-finite entry (StructuralError), otherwise on
    overflow (NumericOverflowError). A non-finite W or b entry makes a
    whole column of its layer's G non-finite, so the parameters need to
    be scanned only here."""
    _check_params_finite(params, up_to)
    raise NumericOverflowError(message)


def _unbounded(sigma: Activation) -> bool:
    """Whether sigma has a tail without a finite limit, so that finite
    pre-activations can give non-finite features."""
    profile = sigma.profile()
    return profile.limit_neg is None or profile.limit_pos is None


def forward(
    spec: NetworkSpec,
    params: Params,
    X: np.ndarray,
    up_to: int | None = None,
    *,
    workspace: Workspace | None = None,
) -> ForwardTrace:
    """Evaluate layers 1..up_to (default: all) on a batch.

    Convolutional layers are computed by ``patch_products``, which equals
    the lifted-matrix product ``F_{k-1} @ lift_weights(W_k) + b_k`` up to
    floating-point rounding. Pure function: identical inputs give identical
    traces. With a ``workspace`` every G and F except the input is a view
    of its buffers, computed by the same operations in the same order, and
    the next call with that workspace overwrites them.

    Raises StructuralError for a malformed or non-finite batch and for
    misshapen or non-finite parameters of layers 1..up_to, and
    NumericOverflowError naming the layer whose G or F leaves the finite
    range when the parameters are finite.
    """
    up_to = spec.depth if up_to is None else up_to
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != spec.input_width:
        raise StructuralError(
            f"X must be (N, {spec.input_width}), got {X.shape}"
        )
    if not _all_finite(X):
        raise StructuralError("X contains non-finite values")
    _check_param_shapes(spec, params, up_to)
    N = X.shape[0]
    if N == 0:
        # no entry of G can show a non-finite parameter
        _check_params_finite(params, up_to)

    F: list[np.ndarray] = [X]
    G: list[np.ndarray | None] = [None]
    for k in range(1, up_to + 1):
        layer = spec.layer(k)
        prev = F[k - 1]
        shape = (N, spec.widths[k])
        sigma = spec.activation(k)
        # overflow surfaces as NumericOverflowError below, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            if isinstance(layer, MaxPool):
                P, l = layer.layout.index_array().shape
                gather = _take(workspace, "scratch", (N, P, l))
                # no name holds an allocated gather alive into the next layer
                Fk = np.max(layer.layout.extract(prev, out=gather), axis=2,
                            out=_take(workspace, ("F", k), shape))
                Gk = None
            else:
                W, b = params.weights[k], params.biases[k]
                out = _take(workspace, ("G", k), shape)
                if isinstance(layer, Conv):
                    P, l = layer.layout.index_array().shape
                    Gk = patch_products(layer.layout, prev, W, out,
                                        _take(workspace, "scratch", (N, P, l)))
                    Gk = Gk.reshape(shape)
                else:
                    Gk = np.matmul(prev, W, out=out)
                Gk += b  # the product is a new array or the workspace's
                Fk = Gk if isinstance(sigma, Identity) else sigma(
                    Gk, out=_take(workspace, ("F", k), shape),
                    scratch=_take(workspace, "scratch", shape))
        if Gk is not None and not _all_finite(Gk):
            _raise_non_finite(params, up_to, f"non-finite pre-activation at layer {k}")
        if (Fk is not Gk and (sigma is None or _unbounded(sigma))
                and not _all_finite(Fk)):
            _raise_non_finite(params, up_to, f"non-finite activation at layer {k}")
        F.append(_seal(Fk))
        G.append(None if Gk is None else _seal(Gk))
    return ForwardTrace(tuple(F), tuple(G))
