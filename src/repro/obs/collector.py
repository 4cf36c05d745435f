"""The in-process trace collector: spans, counters, gauges, notes.

One :class:`Collector` holds everything a run records.  Instrumented code
never talks to a collector directly — it calls the module-level fast paths
(:func:`incr`, :func:`gauge`, :func:`trace`, :func:`annotate`), which read
one module global and return immediately when no collector is active.
That disabled path is the common case and is engineered to cost a single
attribute load and a comparison: no locks, no allocations, no dict
lookups — hot solver loops can carry counter calls unconditionally.

Spans nest: :func:`trace` returns a context manager; the collector keeps a
per-thread stack so a span records its parent and depth, and durations
come from a monotonic clock (injectable for deterministic tests).
Counters and gauges are plain named numbers behind one lock, safe to
increment from worker threads.

Activation is process-global and intended for one owner at a time (the
CLI, a benchmark, a test): ``with collecting() as col: ...`` installs a
collector and restores the previous one on exit.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = [
    "Collector",
    "activate",
    "collecting",
    "current",
    "enabled",
    "incr",
    "gauge",
    "annotate",
    "trace",
]

# The one global the fast paths read.  ``None`` means disabled.
_ACTIVE: "Collector | None" = None


class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class _Span:
    """A live span: created open, finalized into a record on ``__exit__``.

    On ``__enter__`` the span receives a collector-unique integer ``id``
    and the ``id`` of the enclosing span (``parent_id``), so span trees
    survive serialization — the telemetry merger re-parents shard-file
    spans across processes by id, never by name.
    """

    __slots__ = ("_collector", "name", "attrs", "_start", "id", "parent_id")

    def __init__(self, collector: "Collector", name: str, attrs: dict) -> None:
        self._collector = collector
        self.name = name
        self.attrs = attrs
        self.id: int | None = None
        self.parent_id: int | None = None

    def __enter__(self) -> "_Span":
        self._start = self._collector._enter_span(self)
        return self

    def __exit__(self, *exc: object) -> bool:
        self._collector._exit_span(self, self._start)
        return False


class Collector:
    """Thread-safe sink for one run's spans, counters, gauges and notes.

    Parameters
    ----------
    clock:
        Monotonic time source used for span durations; injectable so tests
        can drive timing deterministically.  Defaults to
        ``time.perf_counter``.
    """

    def __init__(
        self,
        # repro-lint: disable=RL007 -- this IS the obs clock; spans are built on it
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._clock = clock
        self._t0 = clock()
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._notes: dict[str, Any] = {}
        self._spans: list[dict[str, Any]] = []
        self._local = threading.local()
        self._next_span_id = 0
        #: Spans currently open, by id.  The telemetry shard writer
        #: journals these so a SIGKILL mid-span leaves a durable
        #: open-span marker the merger can finalize as *truncated*.
        self._open: dict[int, dict[str, Any]] = {}

    # -- spans ----------------------------------------------------------

    def span(self, name: str, attrs: dict | None = None) -> _Span:
        """An open span context manager nested under the current one."""
        return _Span(self, name, attrs or {})

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter_span(self, span: _Span) -> float:
        start = self._clock()
        stack = self._stack()
        parent = stack[-1] if stack else None
        span.parent_id = parent.id if parent is not None else None
        stack.append(span)
        with self._lock:
            self._next_span_id += 1
            span.id = self._next_span_id
            self._open[span.id] = {
                "id": span.id,
                "parent_id": span.parent_id,
                "name": span.name,
                "start": start - self._t0,
                "depth": len(stack) - 1,
                "attrs": span.attrs,
            }
        return start

    def _exit_span(self, span: _Span, start: float) -> None:
        end = self._clock()
        stack = self._stack()
        stack.pop()
        record = {
            "id": span.id,
            "parent_id": span.parent_id,
            "name": span.name,
            "start": start - self._t0,
            "duration": end - start,
            "parent": stack[-1].name if stack else None,
            "depth": len(stack),
            "attrs": span.attrs,
        }
        with self._lock:
            self._open.pop(span.id, None)
            self._spans.append(record)

    # -- counters / gauges / notes --------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest observed ``value``."""
        with self._lock:
            self._gauges[name] = value

    def annotate(self, key: str, value: Any) -> None:
        """Attach a free-form note (e.g. the winning solver tier)."""
        with self._lock:
            self._notes[key] = value

    # -- reading --------------------------------------------------------

    @property
    def counters(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counters)

    @property
    def gauges(self) -> dict[str, float]:
        with self._lock:
            return dict(self._gauges)

    @property
    def notes(self) -> dict[str, Any]:
        with self._lock:
            return dict(self._notes)

    @property
    def spans(self) -> list[dict[str, Any]]:
        """Finished span records, in completion order."""
        with self._lock:
            return [dict(s) for s in self._spans]

    @property
    def open_spans(self) -> list[dict[str, Any]]:
        """Records of spans currently open, ascending by id."""
        with self._lock:
            return [dict(self._open[i]) for i in sorted(self._open)]

    def snapshot(self) -> dict[str, Any]:
        """Everything recorded so far, as one JSON-ready dict."""
        with self._lock:
            return {
                "spans": [dict(s) for s in self._spans],
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "notes": dict(self._notes),
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Collector spans={len(self._spans)} "
            f"counters={len(self._counters)}>"
        )


# -- module-level fast paths -------------------------------------------


def enabled() -> bool:
    """Whether a collector is currently active."""
    return _ACTIVE is not None


def current() -> Collector | None:
    """The active collector, if any."""
    return _ACTIVE


def incr(name: str, amount: int = 1) -> None:
    """Increment a counter on the active collector; no-op when disabled.

    The disabled path performs no allocation and takes no lock, so hot
    loops may call this unconditionally (the guard test in
    ``tests/obs/test_disabled_overhead.py`` holds this to zero
    allocations).
    """
    c = _ACTIVE
    if c is not None:
        c.incr(name, amount)


def gauge(name: str, value: float) -> None:
    """Set a gauge on the active collector; no-op when disabled."""
    c = _ACTIVE
    if c is not None:
        c.gauge(name, value)


def annotate(key: str, value: Any) -> None:
    """Attach a note to the active collector; no-op when disabled."""
    c = _ACTIVE
    if c is not None:
        c.annotate(key, value)


def trace(name: str, **attrs: Any) -> Any:
    """A timing span context manager: ``with trace("enumerate", n=3): ...``.

    Returns a shared no-op context manager when disabled, so tracing a
    block costs one global read plus the keyword-dict construction.
    """
    c = _ACTIVE
    if c is None:
        return _NOOP_SPAN
    return c.span(name, attrs)


def activate(collector: Collector | None) -> Collector | None:
    """Install ``collector`` as the process-global sink; returns the old one.

    Unlike :func:`collecting` there is no scope and no restore — this is
    for *worker processes* (pool initializers) whose collector must stay
    active for the life of the process and whose teardown is the process
    exiting.  In-process code should keep using
    ``with collecting(...)``.
    """
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = collector
    return prev


@contextmanager
def collecting(collector: Collector | None = None) -> Iterator[Collector]:
    """Activate a collector for the duration of the block.

    The previously active collector (usually ``None``) is restored on
    exit, so nested or sequential instrumented runs cannot leak state
    into each other.
    """
    global _ACTIVE
    c = collector if collector is not None else Collector()
    prev = _ACTIVE
    _ACTIVE = c
    try:
        yield c
    finally:
        _ACTIVE = prev
