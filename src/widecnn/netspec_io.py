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
are lossless.
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
        if isinstance(layer, Conv):
            layers.append(
                {
                    "kind": "conv",
                    "filters": layer.filters,
                    "activation": layer.activation.to_dict(),
                    "patches": layer.layout.patches.tolist(),
                }
            )
        elif isinstance(layer, FullyConnected):
            layers.append(
                {
                    "kind": "fully_connected",
                    "width": layer.width,
                    "activation": layer.activation.to_dict(),
                }
            )
        elif isinstance(layer, MaxPool):
            layers.append(
                {"kind": "max_pool", "patches": layer.layout.patches.tolist()}
            )
        else:
            layers.append({"kind": "output", "width": layer.width})
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
        try:
            if kind == "conv":
                _require_keys(entry, {"kind", "filters", "activation", "patches"}, where)
                layer = Conv(_layout(entry["patches"], width, where),
                             _integer(entry["filters"], f"{where}: filters"),
                             _activation(entry["activation"], where))
            elif kind == "fully_connected":
                _require_keys(entry, {"kind", "width", "activation"}, where)
                layer = FullyConnected(_integer(entry["width"], f"{where}: width"),
                                       _activation(entry["activation"], where))
            elif kind == "max_pool":
                _require_keys(entry, {"kind", "patches"}, where)
                layer = MaxPool(_layout(entry["patches"], width, where))
            elif kind == "output":
                _require_keys(entry, {"kind", "width"}, where)
                layer = Output(_integer(entry["width"], f"{where}: width"))
            else:
                raise FormatError(f"{where}: unknown layer kind {kind!r}")
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


def save_netspec(spec: NetworkSpec, path) -> None:
    Path(path).write_text(json.dumps(spec_to_dict(spec), indent=2) + "\n")


def load_netspec(path) -> NetworkSpec:
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    return spec_from_dict(doc)
