"""Spans around calls into cubeharm's public functions, and the per-layer
metrics derived from them.

Nothing under src/ is edited.  `install` replaces each public function of a
layer module with a wrapper in every loaded cubeharm module that refers to
it, so calls between modules (identities -> integrate, oracle -> _kernels)
become nested spans.  A layer or function that a later refactor removes is
reported as missing; it never raises.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from time import perf_counter

# Layer name as it appears in metric names -> module under cubeharm.
# Metric names may not start with "_", so cubeharm._kernels reports as "kernels".
LAYERS = {
    "cli": "cli",
    "parser": "parser",
    "kernel": "kernel",
    "integrate": "integrate",
    "identities": "identities",
    "onesided": "onesided",
    "oracle": "oracle",
    "kernels": "_kernels",
}

# Public methods that are traced besides module-level functions.
METHODS = {"identities": {"IdentityReport": ("to_json", "to_csv")}}

ORACLE_DEFAULT_Q = 24  # QuadratureSpec's default; used only when a call passes no spec


class Tracer:
    """In-memory span recorder.  A span is [id, parent_id, name, start, end, attrs].

    `traced` holds the span names `install` could wrap; `missing` the layers
    whose module could not be imported.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.traced: set[str] = set()
        self.missing: set[str] = set()
        self._stack: list[list] = []

    def open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        span = [len(self.spans), parent, name, perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = perf_counter()
        self._stack.pop()

    def adopt(self, path: str) -> None:
        """Append the spans another process dumped to path, renumbering ids."""
        with open(path) as fh:
            other = json.load(fh)
        base = len(self.spans)
        for sid, parent, name, start, end, attrs in other["spans"]:
            self.spans.append(
                [base + sid, base + parent if parent >= 0 else -1, name, start, end, attrs]
            )
        self.traced.update(other["traced"])
        self.missing.update(other["missing"])

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"traced": sorted(self.traced), "missing": sorted(self.missing),
                 "spans": self.spans},
                fh,
            )


# -- counters computed from arguments and return values -------------------------


# oracle function -> (position of its spec argument, quadrature nodes one call
# evaluates for dimension n and q nodes per axis; computed, not read)
_ORACLE_CALLS = {
    "numeric_integrate_cube": (3, lambda n, q: 2 * n * q**n),
    "numeric_integrate_cube_many": (3, lambda n, q: 2 * n * q**n),
    "numeric_integrate_diagonal": (3, lambda n, q: 4 * math.comb(n, 2) * q ** (n - 1)),
    "numeric_integrate_diagonal_many": (3, lambda n, q: 4 * math.comb(n, 2) * q ** (n - 1)),
    "numeric_integrate_boundary": (2, lambda n, q: 2 * n * q ** (n - 1)),
}


def _attrs(layer: str, fn_name: str, args, kwargs, result) -> dict | None:
    if layer == "integrate" and fn_name in (
        "integrate_cube", "integrate_diagonal", "integrate_boundary"
    ):
        return {"terms": len(args[0].terms)}
    if layer == "kernel" and fn_name == "graded_basis":
        return {"elements": len(result.elements)}
    if layer == "oracle" and fn_name in _ORACLE_CALLS:
        spec_pos, nodes = _ORACLE_CALLS[fn_name]
        spec = kwargs.get("spec", args[spec_pos] if len(args) > spec_pos else None)
        q = getattr(spec, "points_per_axis", ORACLE_DEFAULT_Q)
        points = nodes(args[1].n, q)
        return {"points": points, "point_terms": points * len(args[0].terms)}
    if layer == "onesided" and fn_name == "check_onesided":
        used = result.grid_points_per_axis
        requested = kwargs.get("grid_points_per_axis", args[2] if len(args) > 2 else None)
        return {
            "kind": result.kind,
            "grid_points": used ** args[1].n if used is not None else 0,
            "shrunk": used is not None and requested is not None and used < requested,
        }
    return None


def _wrap(tracer: Tracer, layer: str, fn_name: str, fn):
    span_name = f"{layer}.{fn_name}"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(span_name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        span[5] = _attrs(layer, fn_name.rsplit(".", 1)[-1], args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every public function of each layer module in tracer spans."""
    originals: dict[int, object] = {}
    traced_names, missing = tracer.traced, tracer.missing
    for layer, module_name in LAYERS.items():
        try:
            module = importlib.import_module(f"cubeharm.{module_name}")
        except ImportError:
            missing.add(layer)
            continue
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            originals[id(obj)] = _wrap(tracer, layer, name, obj)
            traced_names.add(f"{layer}.{name}")
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name, None)
            for method in methods:
                fn = getattr(cls, method, None)
                if fn is not None:
                    setattr(cls, method, _wrap(tracer, layer, f"{cls_name}.{method}", fn))
                    traced_names.add(f"{layer}.{cls_name}.{method}")
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "cubeharm" or mod_name.startswith("cubeharm.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)


# -- aggregation ------------------------------------------------------------------


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer, items: int) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics from the tracer's spans, normalised per item.
    Returns ({name: (value, unit)}, [names that could not be measured])."""
    spans, traced, missing_layers = tracer.spans, tracer.traced, tracer.missing
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[4] - s[3])

    def outermost(s) -> bool:
        layer, parent = _layer(s[2]), s[1]
        while parent >= 0:
            p = by_id[parent]
            if _layer(p[2]) == layer:
                return False
            parent = p[1]
        return True

    busy: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr_sum: dict[tuple[str, str], float] = {}
    named_time: dict[str, float] = {}
    named_count: dict[str, int] = {}
    onesided_kinds: dict[str, int] = {}
    for s in spans:
        name, dur, attrs = s[2], s[4] - s[3], s[5] or {}
        layer = _layer(name)
        self_time[layer] = self_time.get(layer, 0.0) + dur - child_time.get(s[0], 0.0)
        named_time[name] = named_time.get(name, 0.0) + dur
        named_count[name] = named_count.get(name, 0) + 1
        if name == "onesided.check_onesided":
            # counted at any depth: certify_best_approx and weighted_l1_error call it
            onesided_kinds[attrs["kind"]] = onesided_kinds.get(attrs["kind"], 0) + 1
            for key in ("grid_points", "shrunk"):
                attr_sum[(layer, key)] = attr_sum.get((layer, key), 0) + attrs[key]
            attrs = {}
        if outermost(s):
            busy[layer] = busy.get(layer, 0.0) + dur
            calls[layer] = calls.get(layer, 0) + 1
            for key, value in attrs.items():
                attr_sum[(layer, key)] = attr_sum.get((layer, key), 0) + value
    per = 1.0 / max(items, 1)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def prefixed(prefix: str) -> float:
        return sum(v for k, v in named_time.items() if k.startswith(prefix))

    checks = sum(onesided_kinds.values())
    # metric -> (value, unit, span names of which at least one must be traced)
    table = {
        "cli.import_s": (named_time.get("cli.import", 0.0) * per, "s/item", {"cli.main"}),
        "cli.main_s": (named_time.get("cli.main", 0.0) * per, "s/item", {"cli.main"}),
        "parser.calls": (calls.get("parser", 0) * per, "count/item", {"parser.parse_poly"}),
        "parser.busy_s": (busy.get("parser", 0.0) * per, "s/item", {"parser.parse_poly"}),
        "kernel.busy_s": (busy.get("kernel", 0.0) * per, "s/item", {"kernel.graded_basis"}),
        "kernel.elements": (
            attr_sum.get(("kernel", "elements"), 0) * per, "count/item", {"kernel.graded_basis"}
        ),
        "integrate.calls": (calls.get("integrate", 0) * per, "count/item", {"integrate.integrate_cube"}),
        "integrate.busy_s": (busy.get("integrate", 0.0) * per, "s/item", {"integrate.integrate_cube"}),
        "integrate.terms": (
            attr_sum.get(("integrate", "terms"), 0) * per, "count/item", {"integrate.integrate_cube"}
        ),
        "identities.self_s": (self_time.get("identities", 0.0) * per, "s/item", {"identities.run_suite"}),
        "identities.residuals": (
            sum(c for k, c in named_count.items() if k.startswith("identities.residual_")) * per,
            "count/item",
            {"identities.residual_surface_mean"},
        ),
        "identities.serialize_s": (
            prefixed("identities.IdentityReport.") * per,
            "s/item",
            {"identities.IdentityReport.to_json"},
        ),
        "oracle.calls": (calls.get("oracle", 0) * per, "count/item", {"oracle.numeric_integrate_cube_many"}),
        "oracle.busy_s": (busy.get("oracle", 0.0) * per, "s/item", {"oracle.numeric_integrate_cube_many"}),
        "oracle.points": (
            attr_sum.get(("oracle", "points"), 0) * per, "count/item", {"oracle.numeric_integrate_cube_many"}
        ),
        "oracle.points_per_s": (
            ratio(attr_sum.get(("oracle", "points"), 0), busy.get("oracle", 0.0)),
            "1/s",
            {"oracle.numeric_integrate_cube_many"},
        ),
        "kernels.busy_s": (busy.get("kernels", 0.0) * per, "s/item", {"kernels.evaluate_terms"}),
        "kernels.point_terms": (
            attr_sum.get(("oracle", "point_terms"), 0) * per,
            "count/item",
            {"oracle.numeric_integrate_cube_many"},
        ),
        "kernels.share_of_oracle": (
            ratio(busy.get("kernels", 0.0), busy.get("oracle", 0.0)),
            "ratio",
            {"kernels.evaluate_terms", "oracle.numeric_integrate_cube_many"},
        ),
        "onesided.busy_s": (busy.get("onesided", 0.0) * per, "s/item", {"onesided.check_onesided"}),
        "onesided.grid_points": (
            attr_sum.get(("onesided", "grid_points"), 0) * per, "count/item", {"onesided.check_onesided"}
        ),
        "onesided.grid_shrunk": (
            attr_sum.get(("onesided", "shrunk"), 0) * per, "count/item", {"onesided.check_onesided"}
        ),
        "onesided.certified_ratio": (
            ratio(onesided_kinds.get("certified", 0), checks), "ratio", {"onesided.check_onesided"}
        ),
    }
    metrics: dict[str, tuple[float, str]] = {}
    unmeasured: list[str] = []
    for name, (value, unit, needs) in table.items():
        layer = name.split(".", 1)[0]
        if layer in missing_layers or not needs & traced:
            unmeasured.append(name)
        else:
            metrics[name] = (float(value), unit)
    return metrics, unmeasured
