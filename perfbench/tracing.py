"""In-memory span tracer for the dyndml layers, installed from outside the package.

`Tracer.install` wraps each layer function in every dyndml module namespace
that binds it (so calls between modules are seen where they are looked up)
and the feature maps' `batch` and `PanelDataset.subset` on their classes. A
span records its name, start, end, parent, the operation it belongs to, and
the rows and bytes its result holds. Each thread keeps its own span stack;
a span opened on a thread with an empty stack (a `jobs` worker) takes the
innermost span open on the operation's own thread as its parent. A layer's self time is its span's duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import statistics
import sys
import threading
from time import perf_counter
from typing import Callable


def _array_out(out) -> tuple[int, int]:
    return out.shape[0], out.nbytes


def _panel_out(out) -> tuple[int, int]:
    return out.n_units, 0


def _pair_out(out) -> tuple[int, int]:
    return out.n_short + out.n_long, 0


# (layer, defining module, attribute, result measure). Functions are wrapped
# wherever a dyndml namespace binds them; "Class.method" names are wrapped on
# the class. Several entries may share a layer name.
LAYERS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("core.features", "dyndml.core", "TabularFeatures.batch", _array_out),
    ("core.features", "dyndml.core", "PolynomialFeatures.batch", _array_out),
    ("core.features", "dyndml.core", "RandomFourierFeatures.batch", _array_out),
    ("core.subset", "dyndml.core", "PanelDataset.subset", _panel_out),
    ("core.moment_batch", "dyndml.core", "moment_batch", None),
    ("core.read_panel_csv", "dyndml.core", "read_panel_csv", _panel_out),
    ("moment.moment_scores", "dyndml.moment", "moment_scores", None),
    ("nuisance.fit_recursive_riesz", "dyndml.nuisance", "fit_recursive_riesz", None),
    ("nuisance.fit_nested_regressions", "dyndml.nuisance", "fit_nested_regressions", None),
    ("nuisance.fit_clever_covariate", "dyndml.nuisance", "fit_clever_covariate", None),
    ("nuisance.fit_ridge", "dyndml.nuisance", "fit_ridge", None),
    ("nuisance.solve_spd", "dyndml.nuisance", "_solve_spd", None),
    ("inference.dml_estimate", "dyndml.inference", "dml_estimate", None),
    ("inference.make_folds", "dyndml.inference", "make_folds", None),
    ("inference.mc_experiment", "dyndml.inference", "mc_experiment", None),
    ("oracle.simulate", "dyndml.oracle", "simulate", _panel_out),
    ("oracle.oracle_theta", "dyndml.oracle", "oracle_theta", None),
    ("surrogate.read_surrogate_csvs", "dyndml.surrogate", "read_surrogate_csvs", _pair_out),
    ("surrogate.surrogate_estimate", "dyndml.surrogate", "surrogate_estimate", None),
    ("surrogate.surrogate_fit", "dyndml.surrogate", "surrogate_fit", None),
    ("surrogate.surrogate_scores", "dyndml.surrogate", "surrogate_scores", None),
    ("cli.main", "dyndml.cli", "main", None),
)

OP = "op"  # the benchmark's own span around one operation


class Tracer:
    def __init__(self) -> None:
        # (id, parent, name, op, start, end, rows, bytes); list.append is atomic
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_index = -1
        self._op_span: int | None = None
        self._client_stack: list[int] = []   # span stack of the thread running the operation
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, measure: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op_span is None:  # outside an operation: not part of any trace
                return fn(*args, **kwargs)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else self._client_stack[-1]
            stack.append(sid)
            rows = nbytes = 0
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if measure is not None:
                    rows, nbytes = measure(out)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, self._op_index, t0, t1, rows, nbytes))

        return traced

    def install(self) -> None:
        self.missing = []
        modules = [m for n, m in list(sys.modules.items()) if n == "dyndml" or n.startswith("dyndml.")]
        for layer, module_name, attr, measure in LAYERS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method or attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(layer, original, measure)
            for target in [owner] if owner_name else modules:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._restore.append((target, key, value))
                        setattr(target, key, wrapped)

    def uninstall(self) -> None:
        for target, key, value in reversed(self._restore):
            setattr(target, key, value)
        self._restore.clear()

    def operation(self, index: int, fn: Callable, *args):
        """Run fn(*args) as traced operation `index` under a root span."""
        sid = next(self._ids)
        self._op_index, self._op_span = index, sid
        stack = self._client_stack = self._stack()
        stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, None, OP, index, t0, t1, 0, 0))
            self._op_span = None

    def write(self, path: str) -> None:
        keys = ("id", "parent", "name", "op", "start", "end", "rows", "bytes")
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def op_layer_totals(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per layer over the spans of one operation: calls, rows, bytes,
    inclusive seconds `s` and `self_s`."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _, _, t0, t1, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    totals: dict[str, dict[str, float]] = {}
    for sid, _, name, _, t0, t1, rows, nbytes in spans:
        acc = totals.setdefault(name, {"calls": 0, "rows": 0, "bytes": 0, "s": 0.0, "self_s": 0.0})
        acc["calls"] += 1
        acc["rows"] += rows
        acc["bytes"] += nbytes
        acc["s"] += t1 - t0
        acc["self_s"] += (t1 - t0) - _covered(children.get(sid, []), t0, t1)
    return totals


def layer_metrics(tracer: Tracer, names: list[str], rows_per_op: int, units_per_op: int) -> dict[str, float]:
    """Per traced operation, each metric `<layer>.<field>` of `names`: counts
    (calls, rows, bytes_computed) are means, since they repeat exactly for
    identical inputs; times (s inclusive, self_s) are medians. rows_per_unit
    divides featurized rows by rows x periods and subset rows by input rows.
    The `trace.*` names describe the trace itself."""
    by_op: dict[int, list[tuple]] = {}
    for span in tracer.spans:
        by_op.setdefault(span[3], []).append(span)
    per_op = [op_layer_totals(spans) for spans in by_op.values()]
    empty = {"calls": 0, "rows": 0, "bytes": 0, "s": 0.0, "self_s": 0.0}

    def value(name: str) -> float:
        if name == "trace.unattributed_s":   # operation time no layer span covers
            return statistics.median(t[OP]["self_s"] for t in per_op)
        if name == "trace.self_share":       # 1 for one thread, above 1 where workers overlap
            return statistics.median(sum(v["self_s"] for v in t.values()) / t[OP]["s"] for t in per_op)
        layer, field = name.rsplit(".", 1)
        if field == "rows_per_unit":
            base = units_per_op if layer == "core.features" else rows_per_op
            return statistics.fmean(t.get(layer, empty)["rows"] for t in per_op) / base
        key = "bytes" if field == "bytes_computed" else field
        vals = [t.get(layer, empty)[key] for t in per_op]
        return statistics.median(vals) if key in ("s", "self_s") else statistics.fmean(vals)

    return {name: value(name) for name in names}
