"""Span tracer installed from outside the library, and the per-layer metrics.

install() wraps every public function and public method of the eight layer
modules (the names in each module's __all__) and rebinds the wrapper in every
blaschke module namespace that holds the original, so calls made through an
imported name are caught too.  Functions imported inside a function body
read the module attribute at call time and are caught by the same rebinding.
Methods are rebound on their class.

A span is [label index, start, end, parent span, op id, raised].  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("core", "circle", "critical", "shiftop", "poncelet", "decompose", "monodromy", "cli")

# Called per evaluation point, Newton step, printed number or group element:
# 12k-54k times per op.  Their time stays in the caller's self time.
# PermutationGroup.elements is the enumeration behind order(); it stays
# inside order()'s span so that span holds the group-order cost.
SKIP = {
    "core.BlaschkeProduct.evaluate",
    "core.BlaschkeProduct.derivative",
    "core.format_float",
    "circle.argument_derivative",
    "circle.CircleSolutionSet.point",
    "circle.CircleSolutionSet.angle",
    "monodromy.Permutation",
    "monodromy.PermutationGroup.elements",
}


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self._undo: list[tuple] = []
        self._index: dict[str, int] = {}

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"blaschke.{layer}")
            for name in module.__all__:
                obj = getattr(module, name)
                label = f"{layer}.{name}"
                if label in SKIP:
                    continue
                if inspect.isclass(obj):
                    self._wrap_methods(label, obj)
                elif inspect.isfunction(obj):
                    self._undo += _rebind(obj, self._wrap(label, obj))

    def uninstall(self) -> None:
        """Put every original back; spans recorded so far are kept."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap_methods(self, prefix: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            label = f"{prefix}.{name}"
            if name.startswith("_") or label in SKIP:
                continue
            if isinstance(attr, staticmethod):
                wrapped = staticmethod(self._wrap(label, attr.__func__))
            elif inspect.isfunction(attr):
                wrapped = self._wrap(label, attr)
            else:
                continue
            setattr(cls, name, wrapped)
            self._undo.append((cls, name, attr))

    def _wrap(self, label: str, fn):
        if label not in self._index:
            self._index[label] = len(self.labels)
            self.labels.append(label)
        index = self._index[label]
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [index, clock(), 0.0, stack[-1] if stack else -1, tracer.op, False]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def dump(self) -> dict:
        return {"labels": self.labels, "spans": self.spans}


def _rebind(original, wrapper) -> list[tuple]:
    """Bind wrapper wherever a blaschke module holds original; returns the undo list."""
    undo = []
    for name, module in list(sys.modules.items()):
        if name == "blaschke" or name.startswith("blaschke."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))
    return undo


def keep_results(module_name: str, name: str, sink: list) -> None:
    """Append every return value of module.name to sink.

    cross_validate runs the inner-factor search but reports only whether a
    factor was found; the checks need the factors themselves.  The
    pass-through costs one Python call per search (2-3 per op).
    """
    original = getattr(importlib.import_module(module_name), name)

    @functools.wraps(original)
    def keep(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    _rebind(original, keep)


def lift_cache_counts() -> list[int] | None:
    """(hits, misses) of circle._lift_grid while that cache exists."""
    circle = sys.modules.get("blaschke.circle")
    info = getattr(getattr(circle, "_lift_grid", None), "cache_info", None)
    if info is None:
        return None
    stats = info()
    return [stats.hits, stats.misses]


# ------------------------------------------------------------- summaries


def summarize(dump: dict) -> dict:
    """Per-label calls, self seconds and raised calls, plus the circle
    solves made under poncelet.closure_order.  Summaries add up."""
    labels, spans = dump["labels"], dump["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    under_closure = [False] * len(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    raised: dict[str, int] = {}
    closure_solves = 0
    for i, (index, start, end, parent, _, failed) in enumerate(spans):
        label = labels[index]
        if parent >= 0:
            under_closure[i] = under_closure[parent] or (
                labels[spans[parent][0]] == "poncelet.closure_order"
            )
        if label == "circle.solve_on_circle" and under_closure[i]:
            closure_solves += 1
        calls[label] = calls.get(label, 0) + 1
        self_s[label] = self_s.get(label, 0.0) + (end - start - child[i])
        raised[label] = raised.get(label, 0) + int(failed)
    return {"calls": calls, "self_s": self_s, "raised": raised, "closure_solves": closure_solves}


def merge(summaries: list[dict]) -> dict:
    out = {"calls": {}, "self_s": {}, "raised": {}, "closure_solves": 0}
    for s in summaries:
        for key in ("calls", "self_s", "raised"):
            for label, value in s[key].items():
                out[key][label] = out[key].get(label, 0) + value
        out["closure_solves"] += s["closure_solves"]
    return out


# (metric, label, statistic); statistics are per traced op unless named
FUNCTION_METRICS = (
    ("core.normalize.calls_per_op", "core.normalize", "calls"),
    ("core.normalize.self_ms_per_op", "core.normalize", "self"),
    ("circle.solve_on_circle.calls_per_op", "circle.solve_on_circle", "calls"),
    ("circle.solve_on_circle.self_ms_per_op", "circle.solve_on_circle", "self"),
    ("circle.invariant_orbit.self_ms_per_op", "circle.invariant_orbit", "self"),
    ("critical.critical_data.calls_per_op", "critical.critical_data", "calls"),
    ("critical.critical_data.self_ms_per_op", "critical.critical_data", "self"),
    ("critical.critical_data.failed_frac", "critical.critical_data", "raised_frac"),
    ("critical.polynomial_roots.self_ms_per_op", "critical.polynomial_roots", "self"),
    ("shiftop.is_elliptical_range.self_ms_per_op", "shiftop.is_elliptical_range", "self"),
    ("shiftop.numerical_range_boundary.self_ms_per_op", "shiftop.numerical_range_boundary", "self"),
    ("poncelet.package.self_ms_per_op", "poncelet.package", "self"),
    ("poncelet.closure_order.self_ms_per_op", "poncelet.closure_order", "self"),
    ("poncelet.closure_order.solves_per_call", "poncelet.closure_order", "solves_per_call"),
    ("poncelet.fit_conic.self_ms_per_op", "poncelet.fit_conic", "self"),
    ("decompose.inner_factor_general.calls_per_op", "decompose.inner_factor_general", "calls"),
    ("decompose.inner_factor_general.self_ms_per_op", "decompose.inner_factor_general", "self"),
    ("monodromy.monodromy_group.calls_per_op", "monodromy.monodromy_group", "calls"),
    ("monodromy.continue_branch.calls_per_op", "monodromy.continue_branch", "calls"),
    ("monodromy.continue_branch.self_ms_per_op", "monodromy.continue_branch", "self"),
    ("monodromy.continue_branch.failed", "monodromy.continue_branch", "raised"),
    ("monodromy.PermutationGroup.order.self_ms_per_op", "monodromy.PermutationGroup.order", "self"),
    ("monodromy.block_systems.self_ms_per_op", "monodromy.block_systems", "self"),
    ("monodromy.wreath_audit.self_ms_per_op", "monodromy.wreath_audit", "self"),
    ("monodromy.cross_validate.self_ms_per_op", "monodromy.cross_validate", "self"),
)
UNITS = {"calls": "count", "self": "ms", "raised_frac": "ratio", "solves_per_call": "count", "raised": "count"}

# Names and units of every per-layer metric, in report order.
PER_LAYER = (
    [(f"{m}.self_ms_per_op", "ms") for m in LAYERS]
    + [("cli.import_ms", "ms"), ("cli.main_self_ms", "ms"), ("cli.exit_nonzero", "count")]
    + [(name, UNITS[stat]) for name, _, stat in FUNCTION_METRICS]
    + [
        ("decompose.inner_factor_general.found_ratio", "ratio"),
        ("circle.lift_cache.hit_ratio", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ]
)


def layer_metrics(summary: dict, ops: int) -> dict[str, float]:
    """The span-derived per-layer metrics for `ops` traced ops."""
    calls, self_s, raised = summary["calls"], summary["self_s"], summary["raised"]
    out = {}
    for m in LAYERS:
        total = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == m)
        out[f"{m}.self_ms_per_op"] = 1e3 * total / ops
    out["cli.main_self_ms"] = 1e3 * self_s.get("cli.main", 0.0) / ops
    for name, label, stat in FUNCTION_METRICS:
        n = calls.get(label, 0)
        if stat == "calls":
            value = n / ops
        elif stat == "self":
            value = 1e3 * self_s.get(label, 0.0) / ops
        elif stat == "raised":
            value = raised.get(label, 0) / ops
        elif stat == "raised_frac":
            value = raised.get(label, 0) / n if n else 0.0
        else:
            value = summary["closure_solves"] / n if n else 0.0
        out[name] = value
    return out
