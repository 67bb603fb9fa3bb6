"""The benchmark's tracer (perfbench/spans.py) wraps widecnn callables by
name; every name it lists must still resolve, or ``--trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
