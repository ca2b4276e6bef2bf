"""The per-layer ledger: spans recorded around calls into each layer.

No program file changes.  The traced run wraps bound methods of the
objects the benchmark built by swapping each object's class for a
subclass whose listed methods record a span (name, start, end, parent,
op id) around the original.  The subclass adds no slots, so slotted
classes such as the conflict graph accept the swap.  Spans live in
memory in flat arrays and are written out when the run ends.

A span's self time is its duration minus the time its child spans
cover.  A layer's ``calls`` counts its spans whose parent belongs to
another layer, so a layer calling into itself is one call.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

perf = time.perf_counter

#: span name -> layer.  The layer names are the per-layer metric prefixes.
LAYER_OF: Dict[str, str] = {
    "router.route": "routing",
    "router.candidates": "routing",
    "conflict.add_dipath": "conflict",
    "conflict.remove_dipath": "conflict",
    "assigner.assign": "assigner",
    "assigner.release": "assigner",
    "engine.admit": "engine",
    "engine.depart": "engine",
    "engine.admit_batch": "transaction",
    "durable.admit": "journal",
    "durable.depart": "journal",
    "durable.admit_batch": "journal",
    "durable.cut": "journal",
    "durable.repair": "journal",
    "injector.cut": "faults",
    "injector.repair": "faults",
    "guard.admits": "guard",
    "service.process": "service",
    "service.utilisation": "reads",
    "service.metrics_snapshot": "reads",
    "harness.handoff": "harness",
}

#: The layers in table order; ``harness`` is the benchmark's own time.
LAYERS = ("routing", "conflict", "assigner", "engine", "transaction",
          "journal", "faults", "guard", "service", "reads", "harness")


class SpanRecorder:
    """In-memory span store: one row per span in parallel flat arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_id: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("q")
        self._stack: List[int] = []
        #: span name -> accumulator fed by that span's result observer
        self.observed: Dict[str, Dict[str, float]] = {}
        #: span index -> request ids of a batch call
        self.batch_ops: Dict[int, List[int]] = {}

    def __len__(self) -> int:
        return len(self.start)

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, span: str, method: Callable,
             observe: Optional[Callable] = None,
             op_arg: bool = False, batch_arg: bool = False) -> Callable:
        """``method`` recording one span per call.

        ``op_arg``: the first argument is the request id (the span's op
        id; other spans inherit their parent's).  ``batch_arg``: the first
        argument is a list of arrival events whose ids are kept.
        ``observe(acc, result, args)`` folds the call's outcome into the
        span's accumulator.
        """
        nid = self._nid(span)
        acc = self.observed.setdefault(span, {})
        names, starts, ends = self.name, self.start, self.end
        parents, ops, stack = self.parent, self.op, self._stack
        batch_ops = self.batch_ops

        def traced(obj, *args, **kwargs):
            index = len(starts)
            parent = stack[-1] if stack else -1
            if op_arg and args:
                op = args[0]
            else:
                op = ops[parent] if parent >= 0 else -1
            names.append(nid)
            parents.append(parent)
            ops.append(op)
            ends.append(0.0)
            if batch_arg:
                batch_ops[index] = [e.request_id for e in args[0]]
            stack.append(index)
            starts.append(perf())
            try:
                result = method(obj, *args, **kwargs)
            finally:
                ends[index] = perf()
                stack.pop()
            if observe is not None:
                observe(acc, result, args)
            return result

        traced.__name__ = getattr(method, "__name__", span)
        return traced

    def span(self, name: str, body: Callable):
        """Run ``body()`` inside one span (for the harness's own work)."""
        return self.wrap(name, lambda _obj: body())(None)

    def instrument(self, obj, methods: Dict[str, Tuple]) -> None:
        """Swap ``obj``'s class for a subclass whose ``methods`` record
        spans.  ``methods``: method name -> (span name, wrap options)."""
        cls = type(obj)
        namespace = {"__slots__": ()}
        for method, (span, options) in methods.items():
            namespace[method] = self.wrap(span, getattr(cls, method),
                                          **options)
        obj.__class__ = type(f"Traced{cls.__name__}", (cls,), namespace)

    # -------------------------------------------------------------- analysis
    def arrays(self) -> Tuple[np.ndarray, ...]:
        """(name ids, start, end, parent, duration, self time)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                              minlength=len(duration))
        return name, start, end, parent, duration, duration - covered

    def layer_of_ids(self) -> np.ndarray:
        """Layer index (into :data:`LAYERS`) per name id."""
        return np.array([LAYERS.index(LAYER_OF[n]) for n in self.names],
                        dtype=np.int32)

    def table(self, wall_s: float) -> Dict[str, Dict[str, float]]:
        """Per-layer calls, self time and share of ``wall_s``."""
        out = {layer: {"calls": 0, "self_s": 0.0, "share": 0.0}
               for layer in LAYERS}
        if not len(self):
            return out
        name, _s, _e, parent, _d, self_time = self.arrays()
        layer = self.layer_of_ids()[name]
        parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], -1)
        outer = parent_layer != layer
        calls = np.bincount(layer[outer], minlength=len(LAYERS))
        self_s = np.bincount(layer, weights=self_time, minlength=len(LAYERS))
        for i, name_ in enumerate(LAYERS):
            out[name_] = {"calls": int(calls[i]),
                          "self_s": float(self_s[i]),
                          "share": float(self_s[i] / wall_s) if wall_s else 0.0}
        return out

    def write(self, path: str, header: Dict) -> None:
        """Spans as gzipped JSON lines: a header line, then one
        ``[id, name, start_us, end_us, parent, op]`` row per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            origin = self.start[0] if len(self) else 0.0
            names = self.names
            for i in range(len(self)):
                fh.write(json.dumps([
                    i, names[self.name[i]],
                    round((self.start[i] - origin) * 1e6, 3),
                    round((self.end[i] - origin) * 1e6, 3),
                    self.parent[i], self.op[i]]) + "\n")


# --------------------------------------------------------------- observers
def _count_ok(acc, result, _args) -> None:
    acc["calls"] = acc.get("calls", 0) + 1
    acc["ok"] = acc.get("ok", 0) + (result is not None)


def _guard_admits(acc, result, _args) -> None:
    acc["calls"] = acc.get("calls", 0) + 1
    acc["shed"] = acc.get("shed", 0) + (not result)


def _batch(acc, result, args) -> None:
    acc["calls"] = acc.get("calls", 0) + 1
    acc["arrivals"] = acc.get("arrivals", 0) + len(args[0])
    acc["admitted"] = acc.get("admitted", 0) + \
        sum(1 for reason in result.values() if reason is None)


def _fault(acc, result, _args) -> None:
    acc["stranded"] = acc.get("stranded", 0) + len(result.stranded)
    acc["restored"] = acc.get("restored", 0) + len(result.restored)


def instrument_service(recorder: SpanRecorder, service) -> None:
    """Wrap the layer boundaries of a built (and warmed) service.

    ``service._process`` (the consumer's per-batch decision loop) and
    ``service._guard`` are private to the service; they are the only way
    to time the service's own share and the guard from outside.
    """
    engine = service.engine
    recorder.instrument(service, {
        "_process": ("service.process", {}),
        "utilisation": ("service.utilisation", {}),
        "metrics_snapshot": ("service.metrics_snapshot", {}),
    })
    recorder.instrument(engine, {
        "admit": ("engine.admit", {"op_arg": True}),
        "depart": ("engine.depart", {"op_arg": True}),
        "admit_batch": ("engine.admit_batch",
                        {"batch_arg": True, "observe": _batch}),
    })
    recorder.instrument(engine.router, {
        "route": ("router.route", {}),
        "candidates": ("router.candidates", {}),
    })
    recorder.instrument(engine.conflict, {
        "add_dipath": ("conflict.add_dipath", {}),
        "remove_dipath": ("conflict.remove_dipath", {}),
    })
    recorder.instrument(engine.assigner, {
        "assign": ("assigner.assign", {"observe": _count_ok}),
        "release": ("assigner.release", {}),
    })
    durable = service.durable
    if durable is not None:
        recorder.instrument(durable, {
            "admit": ("durable.admit", {"op_arg": True}),
            "depart": ("durable.depart", {"op_arg": True}),
            "admit_batch": ("durable.admit_batch", {"batch_arg": True}),
            "cut": ("durable.cut", {}),
            "repair": ("durable.repair", {}),
        })
        recorder.instrument(durable.injector, {
            "cut": ("injector.cut", {"observe": _fault}),
            "repair": ("injector.repair", {"observe": _fault}),
        })
    guard = service._guard
    if guard is not None:
        recorder.instrument(guard, {
            "admits": ("guard.admits", {"observe": _guard_admits}),
        })


#: spans a service issues straight into the engine for one op
_ENGINE_CALLS = ("engine.admit", "engine.depart", "engine.admit_batch",
                 "durable.admit", "durable.depart", "durable.admit_batch")


def service_timings(recorder: SpanRecorder, handoff: Dict, wake: Dict
                    ) -> Tuple[List[float], List[float]]:
    """Per op: hand-off -> engine call start, engine call end -> wake.

    The engine call of an op is the outermost engine-level span the
    consumer opened for it (``durable.*`` wraps ``engine.*`` on a
    journalled service).
    """
    queue_wait: List[float] = []
    resolve: List[float] = []
    if not len(recorder):
        return queue_wait, resolve
    name, start, end, parent, _d, _s = recorder.arrays()
    names = recorder.names
    process_ids = {i for i, n in enumerate(names) if n == "service.process"}
    seen = set()
    for i in range(len(name)):
        span = names[name[i]]
        if span not in _ENGINE_CALLS:
            continue
        p = parent[i]
        if p < 0 or name[p] not in process_ids:
            continue
        kind = "departure" if span.endswith("depart") else "arrival"
        if i in recorder.batch_ops:
            ops = recorder.batch_ops[i]
        else:
            ops = [recorder.op[i]]
        for rid in ops:
            key = (kind, rid)
            if key in seen or key not in handoff or key not in wake:
                continue
            seen.add(key)
            queue_wait.append(start[i] - handoff[key])
            resolve.append(wake[key] - end[i])
    return queue_wait, resolve
