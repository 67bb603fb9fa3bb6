"""Network description files: round-trips and strict validation."""

import pytest

from widecnn import (
    Conv,
    FormatError,
    FullyConnected,
    MaxPool,
    NetworkSpec,
    Output,
    Sigmoid,
    Softplus,
    load_netspec,
    save_netspec,
    spec_from_dict,
    spec_to_dict,
)
from widecnn.architectures import mnist_conv_pool_network
from widecnn.layout import conv1d_layout


def sample_spec():
    return NetworkSpec(
        6,
        (
            Conv(conv1d_layout(6, 3, 1), 2, Softplus(10.0)),
            MaxPool(conv1d_layout(8, 2, 2)),
            FullyConnected(4, Sigmoid()),
            Output(2),
        ),
    )


class TestRoundTrip:
    def test_dict_roundtrip_is_lossless(self):
        spec = sample_spec()
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_file_roundtrip_is_lossless(self, tmp_path):
        spec = sample_spec()
        path = tmp_path / "net.netspec"
        save_netspec(spec, path)
        assert load_netspec(path) == spec

    def test_reference_architecture_roundtrip(self, tmp_path):
        spec = mnist_conv_pool_network(first_filters=3)
        path = tmp_path / "ref.netspec"
        save_netspec(spec, path)
        assert load_netspec(path).widths == spec.widths


class TestValidation:
    def test_unknown_top_level_key(self):
        doc = spec_to_dict(sample_spec())
        doc["padding"] = "same"
        with pytest.raises(FormatError, match="unknown keys"):
            spec_from_dict(doc)

    def test_unknown_layer_key(self):
        doc = spec_to_dict(sample_spec())
        doc["layers"][0]["stride"] = 1
        with pytest.raises(FormatError, match="layer 1"):
            spec_from_dict(doc)

    def test_unknown_layer_kind(self):
        doc = spec_to_dict(sample_spec())
        doc["layers"][0]["kind"] = "avg_pool"
        with pytest.raises(FormatError, match="avg_pool"):
            spec_from_dict(doc)

    @pytest.mark.parametrize("kind", [["conv"], {"kind": "conv"}, 3, None])
    def test_a_kind_that_is_not_a_string_is_unknown(self, kind):
        doc = spec_to_dict(sample_spec())
        doc["layers"][1]["kind"] = kind
        with pytest.raises(FormatError) as caught:
            spec_from_dict(doc)
        assert str(caught.value) == f"layer 2: unknown layer kind {kind!r}"

    def test_unknown_activation(self):
        doc = spec_to_dict(sample_spec())
        doc["layers"][2]["activation"] = {"kind": "tanh"}
        with pytest.raises(FormatError, match="tanh"):
            spec_from_dict(doc)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.netspec"
        path.write_text("input_width: 5\n")
        with pytest.raises(FormatError, match="JSON"):
            load_netspec(path)

    def test_document_must_be_an_object(self):
        with pytest.raises(FormatError) as caught:
            spec_from_dict([{"kind": "output", "width": 2}])
        assert str(caught.value) == "network document must be an object"

    def test_spec_level_error_names_the_network(self):
        doc = {"input_width": 4, "layers": [{"kind": "output", "width": 2},
                                            {"kind": "output", "width": 2}]}
        with pytest.raises(FormatError) as caught:
            spec_from_dict(doc)
        assert str(caught.value) == "network: Output layer at position 1 is not last"

    def test_missing_keys(self):
        with pytest.raises(FormatError, match="missing"):
            spec_from_dict({"input_width": 4})


def _dense_doc(**first):
    return {"input_width": 4, "layers": [
        {"kind": "fully_connected", "width": 8, "activation": {"kind": "sigmoid"},
         **first},
        {"kind": "output", "width": 2},
    ]}


def _conv_doc(patches, filters=2):
    return {"input_width": 4, "layers": [
        {"kind": "conv", "filters": filters, "activation": {"kind": "sigmoid"},
         "patches": patches},
        {"kind": "output", "width": 2},
    ]}


class TestIntegerFields:
    @pytest.mark.parametrize("doc,where", [
        (_dense_doc(width="8"), "layer 1"),
        (_dense_doc(width=2.5), "layer 1"),
        (_conv_doc([[0, "a"], [2, 3]]), "layer 1"),
        (_conv_doc([0, 1]), "layer 1"),
        (_conv_doc([[0, 1], [2, 3]], filters="2"), "layer 1"),
        (_conv_doc([[0, 1], [2, 3]], filters=None), "layer 1"),
        ({**_dense_doc(), "input_width": True}, "input_width"),
        (_conv_doc([[0, 1], [2, 4]]), "layer 1"),  # index out of range
        (_dense_doc(width=0), "layer 1"),
        (_dense_doc(activation={"kind": "softplus", "alpha": "10"}), "layer 1"),
        (_dense_doc(activation={"kind": "sigmoid", "alpha": 3.0}), "layer 1"),
        (_dense_doc(activation={"kind": "softplus"}), "layer 1"),  # alpha required
        (_conv_doc([[0, 1], [2, 10**20]]), "layer 1"),  # beyond a machine integer
    ])
    def test_malformed_document_names_its_place(self, doc, where):
        with pytest.raises(FormatError, match=where):
            spec_from_dict(doc)

    def test_conv_document_parses(self):
        spec = spec_from_dict(_conv_doc([[0, 1], [2, 3]]))
        assert spec.widths == (4, 4, 2)
