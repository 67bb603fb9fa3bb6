"""Fuzz tests of the input surface: a JSON-shaped config or netspec
document, or a pair of IDX image and label files, either parses or raises
the parser's typed error, never another exception. Inputs are drawn valid
and then, three times in four, changed: a JSON document has one entry
replaced by junk, deleted, or joined by an unknown key; an IDX pair has
header fields overwritten, a file cut short, or bytes appended."""

import copy
import struct
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from widecnn import ConfigError, FormatError, load_idx, spec_from_dict
from widecnn.data import IMAGE_MAGIC, LABEL_MAGIC
from widecnn.experiments import config_from_dict

# wrong types, empty containers, zeros, negatives, non-finite floats
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
    st.lists(st.integers(-2, 5), max_size=3),
)
positive = st.integers(1, 6)
non_negative = st.integers(0, 6)
positive_float = st.floats(1e-4, 2.0)

valid_configs = st.fixed_dictionaries({}, optional={
    "dataset": st.one_of(
        st.fixed_dictionaries({"source": st.just("synthetic")}, optional={
            "n": positive, "d": positive, "m": positive, "seed": non_negative,
            "perturb_sigma": st.floats(0.0, 1.0)}),
        st.fixed_dictionaries({"source": st.just("idx"), "images": st.just("i.idx"),
                               "labels": st.just("l.idx")}),
    ),
    "network": st.just("net.netspec"),
    "seeds": st.lists(non_negative, min_size=1, max_size=3),
    "n_subset": positive,
    "epochs": positive,
    "learning_rate": st.fixed_dictionaries({}, optional={
        "initial": positive_float, "decay": positive_float, "interval": positive}),
    "adam": st.fixed_dictionaries({}, optional={
        "beta1": st.floats(0.0, 0.99), "beta2": st.floats(0.0, 0.999),
        "eps": positive_float}),
    "batch_size": st.one_of(st.none(), positive),
    "filter_counts": st.lists(positive, min_size=1, max_size=3),
    "wide_layer": positive,
    "case": st.integers(1, 3),
    "trials": positive,
    "activation": st.sampled_from(["sigmoid", "relu", "softplus", "softplus(2.5)"]),
    "out": st.just("report.csv"),
})

activations = st.one_of(
    st.sampled_from([{"kind": "sigmoid"}, {"kind": "relu"}, {"kind": "identity"}]),
    st.builds(lambda alpha: {"kind": "softplus", "alpha": alpha}, positive_float),
)


@st.composite
def valid_netspecs(draw):
    """A chain of conv, dense and pooling layers with an output layer."""
    width = draw(positive)
    doc = {"input_width": width, "layers": []}
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["conv", "fully_connected", "max_pool"]))
        if kind == "fully_connected":
            layer = {"kind": kind, "width": draw(positive),
                     "activation": draw(activations)}
            width = layer["width"]
        else:
            kernel = draw(st.integers(1, width))
            patches = [list(range(s, s + kernel)) for s in range(width - kernel + 1)]
            layer = {"kind": kind, "patches": patches}
            width = len(patches)
            if kind == "conv":
                layer.update(filters=draw(positive), activation=draw(activations))
                width *= layer["filters"]
        doc["layers"].append(layer)
    doc["layers"].append({"kind": "output", "width": draw(positive)})
    return doc


def _containers(value):
    if isinstance(value, (dict, list)):
        yield value
        for item in value.values() if isinstance(value, dict) else value:
            yield from _containers(item)


@st.composite
def mutated(draw, documents):
    """(document, changed): a valid document, or one with a single entry of
    some object or list set to junk or deleted, or an unknown key added."""
    doc = copy.deepcopy(draw(documents))  # drawn values may be shared
    if draw(st.integers(0, 3)) == 0:
        return doc, False
    # deepest first: hypothesis leans towards early choices
    target = draw(st.sampled_from(list(_containers(doc))[::-1]))
    if isinstance(target, dict):
        key = draw(st.sampled_from(sorted(target) + ["bogus"]))
    elif target:
        key = draw(st.integers(0, len(target) - 1))
    else:
        return [doc], True
    if draw(st.booleans()) and (isinstance(target, list) or key in target):
        del target[key]
    else:
        target[key] = draw(junk)
    return doc, True


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(
    mutated(valid_configs).map(lambda case: (config_from_dict, ConfigError, *case)),
    mutated(valid_netspecs()).map(lambda case: (spec_from_dict, FormatError, *case)),
))
def test_document_parses_or_raises_its_typed_error(case):
    parse, error, doc, changed = case
    try:
        parse(doc)
    except error:
        assert changed, f"a valid document was refused: {doc}"


@st.composite
def idx_pairs(draw):
    """(images, labels, count, changed): the bytes of an IDX image file and
    a label file of ``count`` entries, with one to three changes if
    ``changed``. Besides single header fields, the image sizes may be
    redrawn as a group with the payload resized to match, so that the
    sizes, not the file length, are what is wrong."""
    count = draw(st.integers(0, 4))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pixels = draw(st.binary(min_size=count * rows * cols, max_size=count * rows * cols))
    images = bytearray(struct.pack(">iiii", IMAGE_MAGIC, count, rows, cols) + pixels)
    labels = bytearray(struct.pack(">ii", LABEL_MAGIC, count) + bytes(
        draw(st.lists(st.integers(0, 9), min_size=count, max_size=count))))
    changed = draw(st.integers(0, 3)) > 0
    for _ in range(draw(st.integers(1, 3)) if changed else 0):
        target = images if draw(st.booleans()) else labels
        how = draw(st.sampled_from(["field", "sizes", "truncate", "extend"]))
        if how == "field":
            at = 4 * draw(st.integers(0, 3 if target is images else 1))
            value = draw(st.integers(-2, 5) | st.integers(-2**31, 2**31 - 1))
            target[at:at + 4] = struct.pack(">i", value)
        elif how == "sizes":
            sizes = draw(st.lists(st.integers(-2, 4), min_size=3, max_size=3))
            images[4:16] = struct.pack(">iii", *sizes)
            if draw(st.booleans()):
                images[16:] = bytes(max(0, sizes[0] * sizes[1] * sizes[2]))
        elif how == "truncate" and target:
            del target[draw(st.integers(0, len(target) - 1)):]
        else:
            target += draw(st.binary(min_size=1, max_size=8))
    return bytes(images), bytes(labels), count, changed


@settings(max_examples=300, derandomize=True, deadline=None)
@given(idx_pairs())
def test_idx_pair_loads_or_raises_format_error(case):
    images, labels, count, changed = case
    with tempfile.TemporaryDirectory() as tmp:
        image_path, label_path = Path(tmp, "images.idx"), Path(tmp, "labels.idx")
        image_path.write_bytes(images)
        label_path.write_bytes(labels)
        try:
            dataset = load_idx(image_path, label_path)
        except FormatError:
            assert changed or count == 0, "a valid IDX pair was refused"
        else:
            assert changed or dataset.sample_count == count
