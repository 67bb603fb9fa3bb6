"""The benchmark's tracer (perfbench/spans.py) wraps widecnn callables by
name; every name it lists must still resolve, or ``--trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from widecnn import (Conv, FullyConnected, NetworkSpec, Output, Params, Sigmoid, forward,
                     gradients)
from widecnn.layout import conv1d_layout

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_function_targets_resolve(spans):
    for module_name, attr, _, _ in (*spans.FUNCTION_SPANS, *spans.COUNT_ONLY):
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"


def test_method_targets_are_defined_on_their_class(spans):
    for cls, attr, _, _ in spans.METHOD_SPANS:
        assert attr in cls.__dict__, f"{cls.__name__}.{attr}"


def test_sigma_prime_from_the_features_is_a_traced_derivative(spans):
    """backward takes sigma' through ``Activation.derivative``, so a traced
    pass counts it as activation time, not as backward's own."""
    spec = NetworkSpec(6, (Conv(conv1d_layout(6, 3, 1), 2, Sigmoid()),
                           FullyConnected(4, Sigmoid()), Output(2)))
    rng = np.random.default_rng(0)
    params = Params.fan_in_gaussian(spec, rng)
    X, Y = rng.standard_normal((5, 6)), rng.standard_normal((5, 2))
    trace = forward(spec, params, X)
    tracer = spans.Tracer()
    patches = tracer.install()
    try:
        tracer.begin_run(0)
        tracer.active = True
        gradients.backward(spec, params, trace, Y)  # the wrapped binding
        tracer.active = False
    finally:
        tracer.uninstall(patches)
    metrics = tracer.run_metrics(0, 1.0)
    assert metrics["gradients.backward.calls"] == 1
    assert metrics["activations.derivative.calls"] > 0
