"""Span shims installed from the benchmark's own files.

The traced run wraps each layer's public entry point at the module where
its caller looks it up, so the program under test stays unmodified.  A
:class:`Tracer` keeps spans in memory (one stack per thread) and reduces
them to per-layer call counts and self times: a span's duration minus
the part its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Any, Callable

#: (module, attribute, layer) for every plain function the shims wrap.
#: The module is where the caller looks the name up, not where it is
#: defined, because ``from x import f`` binds a second name.
FUNCTION_SHIMS = [
    ("repro.core.fallback", "cut_profile", "tier1.enumerate"),
    ("repro.core.fallback", "layered_cut_profile", "tier2.layered_dp"),
    ("repro.core.fallback", "bb_min_bisection", "tier3.bb"),
    ("repro.core.fallback", "kernighan_lin_bisection", "tier4.heuristics"),
    ("repro.core.fallback", "fm_bisection", "tier4.heuristics"),
    ("repro.core.fallback", "spectral_bisection", "tier4.heuristics"),
    # Looked up at call time by the cascade and BoundCertificate.verify.
    ("repro.verify.checker", "check_certificate", "verify.check"),
    ("repro.verify.checker", "check_profile", "verify.check"),
    ("repro.perf.cache", "canonical_form", "canonical"),
    ("repro.serve.queue", "canonical_form", "canonical"),
    ("repro.serve.jobs", "solve_with_fallback", "cascade"),
    ("repro.serve.jobs", "certificate_to_data", "verify.serialize"),
    ("repro.serve.jobs", "network_from_spec", "topology.build"),
    ("repro.serve.queue", "solve_job", "serve.solve_job"),
]

#: SolverCache methods, grouped into the two cache layers.
CACHE_SHIMS = [
    ("get_certificate", "cache.get"),
    ("get_warm_start", "cache.get"),
    ("get_profile", "cache.get"),
    ("put_certificate", "cache.put"),
    ("put_profile", "cache.put"),
]


class Tracer:
    """In-memory span recorder; thread-safe, one span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    @contextmanager
    def span(self, name: str, **attrs: Any):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {"id": sid, "parent": parent, "name": name,
                      "start": start, "end": end, "attrs": attrs}
            with self._lock:
                self.spans.append(record)

    def wrap(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        """``fn`` recorded as a ``name`` span; ``attrs(args)`` tags it."""

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            with self.span(name, **(attrs(args) if attrs else {})):
                return fn(*args, **kwargs)

        return shim


def span(tracer: Tracer | None, name: str):
    """A ``name`` span on ``tracer``, or nothing when the run is untraced."""
    return nullcontext() if tracer is None else tracer.span(name)


def _task_digest(args: tuple) -> dict[str, Any]:
    task = args[0] if args else {}
    return {"digest": str(task.get("spec", {}).get("edge_digest", ""))}


def _net_nodes(args: tuple) -> dict[str, Any]:
    return {"nodes": int(args[0].num_nodes)}


def _enqueue(args: tuple) -> dict[str, Any]:
    return {"site": "queue", "digest": str(args[0].edge_digest)}


#: Span tags some analyses need: the request digest on the queue's
#: enqueue and on each solve (to measure queue wait), the node count on
#: enumeration (to count masks).
_ATTRS = {
    ("repro.serve.queue", "solve_job"): _task_digest,
    ("repro.serve.queue", "canonical_form"): _enqueue,
    ("repro.core.fallback", "cut_profile"): _net_nodes,
}


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every shim onto the live modules; returns the undo function."""
    saved: list[tuple[Any, str, Any]] = []
    for module_name, attr, layer in FUNCTION_SHIMS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        extra = _ATTRS.get((module_name, attr))
        saved.append((module, attr, fn))
        setattr(module, attr, tracer.wrap(layer, fn, extra))
    cache_cls = importlib.import_module("repro.perf.cache").SolverCache
    for attr, layer in CACHE_SHIMS:
        fn = cache_cls.__dict__[attr]
        saved.append((cache_cls, attr, fn))
        setattr(cache_cls, attr, tracer.wrap(layer, fn))

    def undo() -> None:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)

    return undo


def layer_table(spans: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """``{layer: {"calls", "total_s", "self_s"}}`` over a span list."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    table: dict[str, dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        dur = s["end"] - s["start"]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_time[s["id"]]
    return table


def root_time(spans: list[dict[str, Any]]) -> float:
    """Total duration of the spans that have no parent span."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
