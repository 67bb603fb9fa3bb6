"""Network description files: JSON documents with explicit patch lists.

Schema (all keys required unless noted, no others allowed):

    {
      "input_width": <int>,
      "layers": [
        {"kind": "conv", "filters": <int>, "activation": <act>,
         "patches": [[<int>, ...], ...]},
        {"kind": "fully_connected", "width": <int>, "activation": <act>},
        {"kind": "max_pool", "patches": [[<int>, ...], ...]},
        {"kind": "output", "width": <int>}
      ]
    }

where ``<act>`` is ``{"kind": "sigmoid" | "relu" | "identity"}`` or
``{"kind": "softplus", "alpha": <float>}``. Patch indices are 0-based
into the previous layer; the enclosing width is implied by the chain.
``<int>`` is a JSON integer, not a bool, float or string. A malformed or
inconsistent document raises FormatError naming the layer. Round-trips
are lossless. The layer kinds are described once, in ``_KINDS`` (each
kind's class and keys in file order) and ``_KEYS`` (how each key is
written and read); ``spec_to_dict`` and ``spec_from_dict`` both read them,
and a layer's keys are read in file order.
"""

from __future__ import annotations

import json
from pathlib import Path

from .activations import activation_from_dict
from .errors import FormatError, StructuralError
from .layout import PatchLayout
from .network import Conv, FullyConnected, MaxPool, NetworkSpec, Output


def _require_keys(obj: dict, required: set[str], where: str):
    keys = set(obj)
    missing = required - keys
    unknown = keys - required
    if missing:
        raise FormatError(f"{where}: missing keys {sorted(missing)}")
    if unknown:
        raise FormatError(f"{where}: unknown keys {sorted(unknown)}")


def _activation(obj, where: str):
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: activation must be an object")
    try:
        return activation_from_dict(obj)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def spec_to_dict(spec: NetworkSpec) -> dict:
    layers = []
    for layer in spec.layers:
        kind = next(kind for kind, (cls, _) in _KINDS.items() if isinstance(layer, cls))
        entry = {"kind": kind}
        for key in _KINDS[kind][1]:
            name, write, _ = _KEYS[key]
            entry[key] = write(getattr(layer, name))
        layers.append(entry)
    return {"input_width": spec.input_width, "layers": layers}


def spec_from_dict(doc: dict) -> NetworkSpec:
    if not isinstance(doc, dict):
        raise FormatError("network document must be an object")
    _require_keys(doc, {"input_width", "layers"}, "network")
    width = _integer(doc["input_width"], "network: input_width")
    if not isinstance(doc["layers"], list) or not doc["layers"]:
        raise FormatError("layers must be a non-empty list")
    layers = []
    for i, entry in enumerate(doc["layers"], start=1):
        where = f"layer {i}"
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: must be an object")
        kind = entry.get("kind")
        # a list or an object is no kind, and hashing it would raise TypeError
        if not isinstance(kind, str) or kind not in _KINDS:
            raise FormatError(f"{where}: unknown layer kind {kind!r}")
        cls, keys = _KINDS[kind]
        _require_keys(entry, {"kind", *keys}, where)
        try:
            layer = cls(**{_KEYS[key][0]: _KEYS[key][2](entry[key], where, width)
                           for key in keys})
            width = layer.out_width(width)
        except StructuralError as exc:
            raise FormatError(f"{where}: {exc}") from exc
        layers.append(layer)
    try:
        return NetworkSpec(doc["input_width"], tuple(layers))
    except StructuralError as exc:
        raise FormatError(f"network: {exc}") from exc


def _integer(value, what: str) -> int:
    """A JSON integer; a bool, float or string is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return value


def _layout(patches, width: int, where: str) -> PatchLayout:
    if not isinstance(patches, list) or not all(isinstance(p, list) for p in patches):
        raise FormatError(f"{where}: patches must be a list of index lists")
    return PatchLayout(width, [[_integer(i, f"{where}: patch index") for i in p]
                               for p in patches])


# a layer key -> (the layer field it holds, the field's JSON value, and the
# field read back from that value, given the layer's place and the width
# of the layer below)
_KEYS = {
    "filters": ("filters", lambda n: n,
                lambda v, where, _: _integer(v, f"{where}: filters")),
    "width": ("width", lambda n: n,
              lambda v, where, _: _integer(v, f"{where}: width")),
    "activation": ("activation", lambda act: act.to_dict(),
                   lambda v, where, _: _activation(v, where)),
    "patches": ("layout", lambda layout: layout.patches.tolist(),
                lambda v, where, width: _layout(v, width, where)),
}
# layer kind -> (its class, its keys after "kind", in file order)
_KINDS = {
    "conv": (Conv, ("filters", "activation", "patches")),
    "fully_connected": (FullyConnected, ("width", "activation")),
    "max_pool": (MaxPool, ("patches",)),
    "output": (Output, ("width",)),
}


def save_netspec(spec: NetworkSpec, path) -> None:
    Path(path).write_text(json.dumps(spec_to_dict(spec), indent=2) + "\n")


def load_netspec(path) -> NetworkSpec:
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    return spec_from_dict(doc)
