"""Span tracing installed from outside the widecnn package.

``install`` wraps the public functions and methods of each widecnn module
(plus the private construction workers and ``_freeze``) so that every call
records a span (name, start, end, parent, run id) in memory. Wrappers go on
every module attribute bound to the original object, because
``from .network import forward`` copies the name into the importing module.
Nothing under ``src/`` changes, and ``uninstall`` restores the originals.

Computed work counts (bytes, elements, pairs) come from array shapes, not
from measurement, so they repeat exactly between runs of the same code.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

from widecnn import activations, layout, network


def _extract_bytes(args, kwargs, result):
    return int(result.nbytes)  # N * P * l * 8


def _lift_bytes(args, kwargs, result):
    return int(result.nbytes)  # dense U_k


def _freeze_bytes(args, kwargs, result):
    return 0 if result is None else int(result.nbytes)


def _activation_elems(args, kwargs, result):
    return int(result.size)


def _distinct_pairs(args, kwargs, result):
    X = args[0]
    patches = (args[1] if len(args) > 1 else kwargs["layout"]).patch_count
    n = len(X)
    return n * (n - 1) // 2 * patches * patches


# (module, attribute, span name, computed count or None). Several names may
# share one span: both experiment runners are the "experiments" layer.
FUNCTION_SPANS = (
    ("widecnn.network", "forward", "network.forward", None),
    ("widecnn.network", "lift_weights", "network.lift_weights", ("bytes", _lift_bytes)),
    ("widecnn.network", "lift_adjoint", "network.lift_adjoint", None),
    ("widecnn.gradients", "backward", "gradients.backward", None),
    ("widecnn.gradients", "loss", "gradients.loss", None),
    ("widecnn.training", "train_adam", "training.update", None),
    ("widecnn.training", "classification_errors", "training.classification_errors", None),
    ("widecnn.analysis", "estimate_rank", "analysis.estimate_rank", None),
    ("widecnn.analysis", "gradient_bounds", "analysis.gradient_bounds", None),
    ("widecnn.analysis", "s_k_membership", "analysis.s_k_membership", None),
    ("widecnn.assumptions", "check_distinct_patches",
     "assumptions.check_distinct_patches", ("pairs", _distinct_pairs)),
    ("widecnn.constructions", "_independence_impl", "constructions.independence", None),
    ("widecnn.constructions", "_transport_impl", "constructions.transport", None),
    ("widecnn.constructions", "zero_loss_construction", "constructions.zero_loss", None),
    ("widecnn.constructions", "expressivity_fit", "constructions.expressivity", None),
    ("widecnn.data", "synthesize_dataset", "data.synthesize", None),
    ("widecnn.experiments", "run_table2_sweep", "experiments", None),
    ("widecnn.experiments", "run_rank_genericity", "experiments", None),
)

# Methods are patched on the class, where the interpreter looks them up.
# The dataclass __init__ calls self.__post_init__, so a Params, ForwardTrace
# or Dataset build is one "network.freeze" span.
METHOD_SPANS = (
    (layout.PatchLayout, "__post_init__", "layout.build", None),
    (layout.PatchLayout, "extract", "layout.extract", ("bytes", _extract_bytes)),
    (network.Params, "__post_init__", "network.freeze", None),
    (network.ForwardTrace, "__post_init__", "network.freeze", None),
    (network.Dataset, "__post_init__", "network.freeze", None),
    *(
        (cls, attr, span, count)
        for cls in (activations.Sigmoid, activations.Softplus, activations.ReLU,
                    activations.Identity)
        for attr, span, count in (
            ("__call__", "activations.call", ("elems", _activation_elems)),
            ("derivative", "activations.derivative", None),
        )
    ),
)

# Counted without a span: one call per array copied into a frozen container.
COUNT_ONLY = (("widecnn.network", "_freeze", "network.freeze", ("bytes", _freeze_bytes)),)

SPAN_NAMES = tuple(dict.fromkeys(
    [s for _, _, s, _ in FUNCTION_SPANS] + [s for _, _, s, _ in METHOD_SPANS]
))
COMPUTED_COUNTS = tuple(dict.fromkeys(
    f"{span}.{count[0]}"
    for _, _, span, count in (*FUNCTION_SPANS, *METHOD_SPANS, *COUNT_ONLY)
    if count is not None
))
CONSTRUCTION_SPANS = frozenset(s for s in SPAN_NAMES if s.startswith("constructions."))


class Tracer:
    """Records spans while ``active``; ``run_id`` tags the spans and counts
    of one benchmark pass."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, run id, ok)
        self.counts: dict = {}
        self.active = False
        self._stack: list[int] = []
        self._run_counts = defaultdict(int)
        self.run_id = None

    def begin_run(self, run_id) -> None:
        self.run_id = run_id
        self._run_counts = self.counts.setdefault(run_id, defaultdict(int))

    def span_wrapper(self, name, fn, count):
        tracer = self
        count_key = None if count is None else f"{name}.{count[0]}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.run_id, ok)
            if count_key is not None:
                tracer._run_counts[count_key] += count[1](args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, name, fn, count):
        tracer = self
        count_key = f"{name}.{count[0]}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active:
                tracer._run_counts[count_key] += count[1](args, kwargs, result)
            return result

        return wrapper

    def install(self) -> list:
        """Patch every binding of the traced callables; returns the undo list
        for ``uninstall``."""
        modules = [m for name, m in sys.modules.items()
                   if name == "widecnn" or name.startswith("widecnn.")]
        patches = []
        for table, make in ((FUNCTION_SPANS, self.span_wrapper),
                            (COUNT_ONLY, self.count_wrapper)):
            for module_name, attr, span, count in table:
                original = getattr(importlib.import_module(module_name), attr)
                wrapper = make(span, original, count)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, key, original))
                            setattr(module, key, wrapper)
        for cls, attr, span, count in METHOD_SPANS:
            original = cls.__dict__[attr]
            patches.append((cls, attr, original))
            setattr(cls, attr, self.span_wrapper(span, original, count))
        return patches

    @staticmethod
    def uninstall(patches) -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    def run_metrics(self, run_id, wall_s: float) -> dict:
        """Per-layer numbers of one pass: calls and self time per span name,
        the computed counts, and the derived ratios."""
        child_time = [0.0] * len(self.spans)
        in_construction = [False] * len(self.spans)
        for i, (name, start, end, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                in_construction[i] = (in_construction[parent]
                                      or self.spans[parent][0] in CONSTRUCTION_SPANS)
        out = {}
        for span in SPAN_NAMES:
            out[f"{span}.calls"] = 0
            out[f"{span}.self_s"] = 0.0
        out.update({key: 0 for key in COMPUTED_COUNTS})
        root_s = 0.0
        steps = accepted = construction_ranks = 0
        for i, (name, start, end, parent, run, ok) in enumerate(self.spans):
            if run != run_id:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child_time[i]
            if parent < 0:
                root_s += end - start
            parent_name = self.spans[parent][0] if parent >= 0 else None
            if name == "gradients.backward" and parent_name == "training.update":
                steps += 1
            if name == "analysis.estimate_rank" and in_construction[i]:
                construction_ranks += 1
            if name in CONSTRUCTION_SPANS and ok and not in_construction[i]:
                accepted += 1
        out.update(self.counts.get(run_id, {}))
        out["training.steps"] = steps
        out["constructions.accepted"] = accepted
        out["constructions.rank_checks_per_accept"] = (
            construction_ranks / accepted if accepted else 0.0)
        out["activations.share"] = (
            (out["activations.call.self_s"] + out["activations.derivative.self_s"])
            / wall_s)
        out["trace.coverage"] = root_s / wall_s
        out["trace.wall_s"] = wall_s
        return out

    def write(self, path) -> None:
        """Write all spans as JSON lines, one object per span."""
        with open(path, "w") as fh:
            for name, start, end, parent, run, ok in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run, "ok": ok}))
                fh.write("\n")

