"""Span tracer that wraps ringflow's public functions from outside.

:meth:`Tracer.install` replaces every public function of the measured
modules in each namespace that holds it.  ``ringflow.scenario`` imports
``pressure`` by name, for instance, so the wrapper goes into
``ringflow.scenario`` as well as ``ringflow.series``; calls between the
modules therefore cross a span boundary.  :meth:`Tracer.restore` puts every
original back.

A span records its name, start, end, parent span and operation id, plus a
status (ok, documented error, undocumented error, non-finite result) and a
work count (field points, cell steps, emitted rows).  Spans live in
in-memory arrays and are written out once, by :meth:`Tracer.save`.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import math
import time
from array import array
from collections import defaultdict

import numpy as np

#: Measured layers; ``core`` and ``errors`` do no measurable work.
LAYERS = ("cli", "scenario", "optimize", "series", "oracle")
_NAMESPACES = ("ringflow",) + tuple(f"ringflow.{m}" for m in LAYERS)

OK, DOCUMENTED, UNDOCUMENTED, NONFINITE = 0, 1, 2, 3

#: Root span the benchmark opens around each operation.
OP_SPAN = "bench.op"


def _points(args, result) -> int:
    """Field points one series call evaluates."""
    return int(result.size) if isinstance(result, np.ndarray) else 1


def _cell_steps(args, result) -> int:
    grid = args[2]
    return grid.cells * int(round(grid.horizon_s / grid.dt_s))


def _rows(args, result) -> int:
    return len(args[0].rows)


_COUNTERS = {"oracle.simulate": _cell_steps, "scenario.emit": _rows}


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind != "f" or bool(np.isfinite(value).all())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return all(math.isfinite(v) for v in vars(value).values()
                   if isinstance(v, float))
    return True


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        from ringflow.errors import RingflowError
        self._documented = RingflowError
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cols = {k: array("q") for k in
                     ("name", "start", "end", "parent", "op", "status",
                      "count")}
        self._stack: list[int] = []
        self.op = -1
        self.peaks: dict[str, float] = defaultdict(float)
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        c = self.cols
        idx = len(c["name"])
        c["name"].append(name_id)
        c["parent"].append(self._stack[-1] if self._stack else -1)
        c["op"].append(self.op)
        c["status"].append(OK)
        c["count"].append(0)
        c["end"].append(0)
        self._stack.append(idx)
        c["start"].append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.cols["end"][idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str):
        name_id = self._name_id(name)
        counter = _COUNTERS.get(name, _points if name.startswith("series.")
                                else None)
        status = self.cols["status"]
        count = self.cols["count"]
        documented = self._documented
        peaks = self.peaks
        residual = name == "oracle.simulate"

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except documented:
                status[idx] = DOCUMENTED
                raise
            except Exception:
                status[idx] = UNDOCUMENTED
                raise
            finally:
                self._close(idx)
            if counter is not None:
                count[idx] = counter(args, result)
            if residual:
                peaks["oracle.max_residual_rel"] = max(
                    peaks["oracle.max_residual_rel"], result.max_residual_rel)
            if not _finite(result):
                status[idx] = NONFINITE
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def operation(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as operation ``op_id`` under a root span."""
        self.op = op_id
        idx = self._open(self._name_id(OP_SPAN))
        try:
            return fn(*args)
        finally:
            self._close(idx)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for ns_name in _NAMESPACES:
            ns = importlib.import_module(ns_name)
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("ringflow.") \
                        or layer not in LAYERS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(obj,
                                                  f"{layer}.{obj.__name__}")
                setattr(ns, attr, wrappers[id(obj)])
                self._patched.append((ns, attr, obj))

    def restore(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict:
        return {k: np.frombuffer(v, dtype=np.int64) if len(v)
                else np.zeros(0, dtype=np.int64) for k, v in self.cols.items()}

    def save(self, path) -> None:
        """Write every span (columns as .npz, names in the header file)."""
        np.savez(path, **self.arrays())
        with open(f"{path}.names.json", "w", encoding="utf-8") as handle:
            json.dump(self.names, handle)


def analyse(tracer: Tracer, timed_ops: int, failed_ops) -> dict:
    """Per-function and per-layer totals from the spans.

    Times and counts cover the timed operations (op ids below
    ``timed_ops``).  Failure counts cover every operation, census included,
    and are charged to the layer where the failure started: the innermost
    span that raised, else the innermost span that returned a non-finite
    value, else the operation's outermost layer span.
    """
    a = tracer.arrays()
    names = tracer.names
    layers = sorted({n.partition(".")[0] for n in names})
    layer_of_name = np.array([layers.index(n.partition(".")[0])
                              for n in names] or [0], dtype=np.int64)
    nid, parent, status = a["name"], a["parent"], a["status"]
    dur = (a["end"] - a["start"]).astype(float)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=len(dur))
    self_time = dur - child_time
    layer = layer_of_name[nid]
    parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
    outer = layer != parent_layer          # entered from another layer
    timed = a["op"] < timed_ops

    def by(keys, size, mask, weights=None):
        w = None if weights is None else weights[mask]
        return np.bincount(keys[mask], weights=w, minlength=size)

    stats: dict = {}
    for key, arr in (("calls", by(nid, len(names), timed)),
                     ("busy_ns", by(nid, len(names), timed, dur)),
                     ("self_ns", by(nid, len(names), timed, self_time)),
                     ("count", by(nid, len(names), timed,
                                  a["count"].astype(float)))):
        stats.update({f"{n}.{key}": float(v) for n, v in zip(names, arr)})
    entered = timed & outer
    for key, arr in (("calls", by(layer, len(layers), entered)),
                     ("busy_ns", by(layer, len(layers), entered, dur)),
                     ("count", by(layer, len(layers), entered,
                                  a["count"].astype(float))),
                     ("self_ns", by(layer, len(layers), timed, self_time))):
        stats.update({f"{n}.{key}": float(v) for n, v in zip(layers, arr)})
    if "series" in layers and "optimize" in layers:
        fan = entered & (layer == layers.index("series")) \
            & (parent_layer == layers.index("optimize"))
        stats["optimize.series_calls"] = float(np.count_nonzero(fan))

    raised = (status == DOCUMENTED) | (status == UNDOCUMENTED)
    raising_child = np.bincount(parent[has_parent & raised],
                                minlength=len(dur)) > 0
    origin = raised & ~raising_child
    undocumented: dict = defaultdict(int)
    for i in np.nonzero(origin & (status == UNDOCUMENTED))[0]:
        undocumented[layers[layer[i]]] += 1
    failed: dict = defaultdict(int)
    ops = a["op"]
    for op_id in failed_ops:
        in_op = np.nonzero(ops == op_id)[0]
        nonfinite = in_op[status[in_op] == NONFINITE]
        if np.any(origin[in_op]):
            span = in_op[origin[in_op]][0]
        elif nonfinite.size:
            span = nonfinite[np.argmin(a["end"][nonfinite])]
        else:
            inner = in_op[has_parent[in_op]]
            if not inner.size:
                continue
            span = inner[0]
        failed[layers[layer[span]]] += 1
    return {"stats": stats, "failed": dict(failed),
            "undocumented": dict(undocumented),
            "peaks": dict(tracer.peaks)}
