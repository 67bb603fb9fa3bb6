"""Fuzz test of the input surface: a JSON-shaped config or netspec document
either parses or raises the parser's typed error, never another
exception. Documents are drawn valid and then, three times in four, have
one entry replaced by junk, deleted, or joined by an unknown key."""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from widecnn import ConfigError, FormatError, spec_from_dict
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
