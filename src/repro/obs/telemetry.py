"""Cross-process telemetry: shard files, trace-context, the timeline merger.

One fleet run — a supervised pool, such as serve's solve workers — is
many processes, each with its own :class:`~repro.obs.collector.Collector`.
This module is how their observations survive the processes and fold
into **one** coherent timeline:

* a :class:`TraceContext` ``(run_id, parent_span_id)`` crosses the
  process boundary as a plain wire dict, so a worker's root spans know
  which parent-side span claims them;
* each worker journals into its own **shard file** — JSONL, rewritten
  whole via the repo's atomic temp/``os.replace`` idiom on every
  :meth:`ShardCollector.flush`, so the file on disk is always a complete
  self-consistent snapshot and a SIGKILL can never tear it.  Open spans
  are journaled too: a worker killed mid-span leaves a durable
  ``span_open`` marker the merger finalizes as *truncated*;
* :func:`merge_shards` folds any set of shard files into a
  ``repro-telemetry-timeline`` document: counters **sum**, gauges keep
  the **last write by timestamp**, spans are re-parented under the span
  named by each shard's context, and the **critical path** — the chain
  of spans reached by always descending into the child that finishes
  last — names the straggler.  The merge is deterministic in the shard
  *set*: any order of the same files produces byte-identical output.

Timestamps are absolute ``CLOCK_MONOTONIC`` readings (system-wide on
Linux), so spans from
different processes land on one comparable time base; the merger
normalizes everything to the earliest shard's epoch.

Both file formats are versioned (``repro-telemetry/1`` shard files,
``repro-telemetry-timeline/1`` merged documents) and validated by
hand-rolled zero-dependency checkers, like the run manifest.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from .collector import Collector

__all__ = [
    "TELEMETRY_KIND",
    "TELEMETRY_VERSION",
    "TIMELINE_KIND",
    "TraceContext",
    "new_run_id",
    "ShardCollector",
    "read_shard",
    "merge_shards",
    "critical_path",
    "write_timeline",
    "load_timeline",
    "validate_timeline",
]

TELEMETRY_KIND = "repro-telemetry"
TELEMETRY_VERSION = 1
TIMELINE_KIND = "repro-telemetry-timeline"


def new_run_id() -> str:
    """A fresh fleet-run identifier (pid + monotonic ns; unique per host).

    Run ids label telemetry artifacts only — they never reach
    certificates, caches, or canonical fingerprints, so wall-clock
    entropy here cannot violate the determinism contract (RL011 guards
    those sinks).
    """
    # repro-lint: disable=RL007 -- an identifier, not a measurement span
    return f"{os.getpid():x}-{time.monotonic_ns():x}"


@dataclass(frozen=True)
class TraceContext:
    """The inherited trace coordinates of one fleet run.

    ``run_id`` names the run; ``parent_span_id`` is the id of the
    parent-side span (in the ``parent`` shard file) under which this
    worker's root spans re-parent at merge time — for a served run, the
    server's ``serve.run`` span.
    """

    run_id: str
    parent_span_id: int | None = None

    def to_wire(self) -> dict[str, Any]:
        """A plain dict safe to cross a process boundary as an argument."""
        return {"run_id": self.run_id, "parent_span_id": self.parent_span_id}

    @classmethod
    def from_wire(cls, wire: dict[str, Any] | None) -> "TraceContext | None":
        """Rebuild from :meth:`to_wire` output; ``None``/malformed → ``None``."""
        if not isinstance(wire, dict) or not isinstance(wire.get("run_id"), str):
            return None
        parent = wire.get("parent_span_id")
        if parent is not None and not isinstance(parent, int):
            return None
        return cls(wire["run_id"], parent)


class ShardCollector(Collector):
    """A collector that journals to one worker's JSONL shard file.

    Everything the base collector records — plus per-gauge write
    timestamps (for the merger's last-write-wins rule) — serializes on
    :meth:`flush`: the whole
    journal is rewritten to a sibling temp file and ``os.replace``\\ d
    into place, so the on-disk file is always one complete snapshot
    (never an interleaving of two) and a crash between flushes merely
    loses the records since the last one.  Open spans are written as
    ``span_open`` records, which is what makes a SIGKILL mid-span
    *visible* in the merged timeline rather than silently absent.

    The clock defaults to ``time.monotonic`` — absolute and system-wide
    on Linux — so shard files from different processes share a time
    base the merger can align.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        context: TraceContext | None = None,
        worker: str = "worker",
        # repro-lint: disable=RL007 -- the cross-process telemetry time base; spans are built on it
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(clock=clock)
        self.path = Path(path)
        self.context = context if context is not None else TraceContext(new_run_id())
        self.worker = str(worker)
        self._gauge_t: dict[str, float] = {}

    # -- extended recording ---------------------------------------------

    def gauge(self, name: str, value: float) -> None:
        t = self._clock() - self._t0
        with self._lock:
            self._gauges[name] = value
            self._gauge_t[name] = t

    # -- the shard file -------------------------------------------------

    def _records(self) -> list[dict[str, Any]]:
        now = self._clock()
        with self._lock:
            header = {
                "kind": TELEMETRY_KIND,
                "version": TELEMETRY_VERSION,
                "run_id": self.context.run_id,
                "parent_span_id": self.context.parent_span_id,
                "worker": self.worker,
                "pid": os.getpid(),
                "t0": self._t0,
                "flushed": now - self._t0,
            }
            lines: list[dict[str, Any]] = [header]
            for i in sorted(self._open):
                lines.append({"type": "span_open", **self._open[i]})
            for s in self._spans:
                lines.append({"type": "span", **s})
            for name in sorted(self._counters):
                lines.append(
                    {"type": "counter", "name": name,
                     "value": self._counters[name]}
                )
            for name in sorted(self._gauges):
                lines.append(
                    {"type": "gauge", "name": name,
                     "value": self._gauges[name],
                     "t": self._gauge_t.get(name, 0.0)}
                )
        return lines

    def flush(self) -> Path:
        """Atomically rewrite the shard file with the full journal."""
        records = self._records()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(
            "\n".join(json.dumps(r, sort_keys=True, default=str)
                      for r in records) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, self.path)
        return self.path


def read_shard(path: str | os.PathLike) -> dict[str, Any] | None:
    """Parse one shard file; ``None`` when unusable.

    Torn trailing lines (a crash mid-write of the *temp* file never
    reaches the real one, but belt and braces) and alien lines are
    skipped and counted; a file whose first parseable line is not a
    ``repro-telemetry/1`` header reads as no shard at all.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return None
    header: dict[str, Any] | None = None
    spans: list[dict[str, Any]] = []
    open_spans: list[dict[str, Any]] = []
    counters: dict[str, int] = {}
    gauges: dict[str, dict[str, Any]] = {}
    torn = 0
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError:
            torn += 1
            continue
        if not isinstance(rec, dict):
            torn += 1
            continue
        if header is None:
            if (
                rec.get("kind") != TELEMETRY_KIND
                or rec.get("version") != TELEMETRY_VERSION
            ):
                return None
            header = rec
            continue
        kind = rec.get("type")
        if kind == "span":
            spans.append(rec)
        elif kind == "span_open":
            open_spans.append(rec)
        elif kind == "counter" and isinstance(rec.get("name"), str):
            value = rec.get("value")
            if isinstance(value, int) and not isinstance(value, bool):
                counters[rec["name"]] = value
        elif kind == "gauge" and isinstance(rec.get("name"), str):
            gauges[rec["name"]] = {
                "value": rec.get("value"), "t": rec.get("t", 0.0),
            }
        else:
            torn += 1
    if header is None:
        return None
    return {
        "header": header,
        "spans": spans,
        "open_spans": open_spans,
        "counters": counters,
        "gauges": gauges,
        "torn_lines": torn,
    }


def _span_key(worker: str, span_id: Any) -> str:
    """The merged, globally unique span id: ``worker/local-id``."""
    return f"{worker}/{span_id}"


def merge_shards(
    paths: Iterable[str | os.PathLike],
    *,
    run_id: str | None = None,
) -> dict[str, Any]:
    """Fold shard files into one ``repro-telemetry-timeline/1`` document.

    Merge semantics (the contract ``docs/observability.md`` documents):

    * **counters sum** across shards (each shard's journal already holds
      its cumulative totals);
    * **gauges** keep the last write by absolute timestamp, worker name
      breaking exact ties;
    * **spans** are re-parented: a shard's parentless spans attach to
      the span its header's ``parent_span_id`` names in the ``parent``
      shard, so the whole fleet renders as one tree.  Open spans become
      records with ``truncated: true`` whose duration runs to the
      shard's last flush — the SIGKILL-mid-span evidence;
    * the result is **deterministic in the shard set**: inputs are
      sorted internally, so any ordering of the same files produces the
      same document byte for byte.

    ``run_id`` restricts the merge to shards of one run (others are
    skipped and listed); unreadable files are skipped and listed, never
    fatal — dropping a shard loses its observations, nothing else.
    """
    shards: list[tuple[str, str, dict[str, Any]]] = []
    skipped: list[str] = []
    for p in sorted(Path(x) for x in paths):
        s = read_shard(p)
        if s is None:
            skipped.append(p.name)
            continue
        if run_id is not None and s["header"].get("run_id") != run_id:
            skipped.append(p.name)
            continue
        shards.append((str(s["header"].get("worker", p.stem)), p.name, s))
    shards.sort(key=lambda t: (t[0], t[1]))

    t_base = min(
        (float(s["header"].get("t0", 0.0)) for _, _, s in shards),
        default=0.0,
    )
    run_ids = sorted({str(s["header"].get("run_id")) for _, _, s in shards})

    spans: list[dict[str, Any]] = []
    counters: dict[str, int] = {}
    gauge_picks: dict[str, tuple[float, str, Any]] = {}
    torn = 0
    for worker, _fname, s in shards:
        t0 = float(s["header"].get("t0", 0.0))
        shift = t0 - t_base
        flushed = float(s["header"].get("flushed", 0.0))
        parent_anchor = s["header"].get("parent_span_id")
        anchor = (
            _span_key("parent", parent_anchor)
            if isinstance(parent_anchor, int) and worker != "parent"
            else None
        )

        def _merged_span(rec: dict[str, Any], truncated: bool) -> dict[str, Any]:
            local_parent = rec.get("parent_id")
            if isinstance(local_parent, int):
                parent = _span_key(worker, local_parent)
            else:
                parent = anchor
            start = float(rec.get("start", 0.0))
            duration = (
                max(0.0, flushed - start) if truncated
                else float(rec.get("duration", 0.0))
            )
            return {
                "id": _span_key(worker, rec.get("id")),
                "parent_id": parent,
                "name": str(rec.get("name", "?")),
                "worker": worker,
                "start": start + shift,
                "duration": duration,
                "truncated": truncated,
                "attrs": rec.get("attrs") or {},
            }

        spans.extend(_merged_span(r, False) for r in s["spans"])
        spans.extend(_merged_span(r, True) for r in s["open_spans"])
        for name, value in s["counters"].items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, g in s["gauges"].items():
            pick = (float(g.get("t", 0.0)) + shift, worker, g.get("value"))
            if name not in gauge_picks or pick[:2] > gauge_picks[name][:2]:
                gauge_picks[name] = pick
        torn += int(s.get("torn_lines", 0))

    spans.sort(key=lambda r: (r["start"], r["worker"], r["id"]))
    return {
        "kind": TIMELINE_KIND,
        "version": TELEMETRY_VERSION,
        "run_id": run_ids[0] if len(run_ids) == 1 else run_ids,
        "workers": [w for w, _, _ in shards],
        "shard_files": [f for _, f, _ in shards],
        "skipped_shards": skipped,
        "torn_lines": torn,
        "spans": spans,
        "counters": counters,
        "gauges": {k: v[2] for k, v in sorted(gauge_picks.items())},
        "critical_path": critical_path(spans),
    }


def critical_path(spans: list[dict[str, Any]]) -> dict[str, Any]:
    """The straggler chain: always descend into the child finishing last.

    From the root span with the greatest end time (``start + duration``),
    repeatedly step to the child with the greatest end time, to a leaf.
    On a pooled run that walk passes through the last-finishing task
    span — the straggler — which is exactly the "where did the
    wall-clock go" answer.  Ties break on span id, so the
    path is deterministic.  Returns an empty path for no spans.
    """
    if not spans:
        return {"span_ids": [], "names": [], "workers": [],
                "duration": 0.0, "truncated": False}
    by_id = {s["id"]: s for s in spans}
    children: dict[Any, list[dict[str, Any]]] = {}
    roots: list[dict[str, Any]] = []
    for s in spans:
        parent = s.get("parent_id")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(s)
        else:
            roots.append(s)

    def _end(s: dict[str, Any]) -> float:
        return float(s.get("start", 0.0)) + float(s.get("duration", 0.0))

    def _pick(candidates: list[dict[str, Any]]) -> dict[str, Any]:
        return max(candidates, key=lambda s: (_end(s), str(s["id"])))

    path = [_pick(roots)]
    while children.get(path[-1]["id"]):
        path.append(_pick(children[path[-1]["id"]]))
    return {
        "span_ids": [s["id"] for s in path],
        "names": [s["name"] for s in path],
        "workers": [s.get("worker", "?") for s in path],
        "duration": _end(path[0]) - float(path[0].get("start", 0.0)),
        "truncated": any(s.get("truncated") for s in path),
    }


def write_timeline(path: str | os.PathLike, timeline: dict[str, Any]) -> Path:
    """Atomically write a merged timeline as JSON; returns the path."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    tmp.write_text(
        json.dumps(timeline, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )
    os.replace(tmp, path)
    return path


def load_timeline(path: str | os.PathLike) -> dict[str, Any]:
    """Read a timeline file; raises ``ValueError`` on torn/alien JSON."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read timeline {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"timeline {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"timeline {path} is not a JSON object")
    return data


def _expect(problems: list[str], cond: bool, message: str) -> bool:
    if not cond:
        problems.append(message)
    return cond


def validate_timeline(data: Any) -> list[str]:
    """Structural validation of a merged timeline; [] means valid.

    Beyond field shapes this checks the tree invariants the merger
    guarantees: every non-null ``parent_id`` resolves to a present span,
    span ids are unique, durations are non-negative, and the recorded
    critical path names existing spans.
    """
    problems: list[str] = []
    if not _expect(problems, isinstance(data, dict), "timeline is not an object"):
        return problems
    _expect(problems, data.get("kind") == TIMELINE_KIND,
            f"kind is {data.get('kind')!r}, expected {TIMELINE_KIND!r}")
    _expect(problems, data.get("version") == TELEMETRY_VERSION,
            f"version is {data.get('version')!r}, expected {TELEMETRY_VERSION}")

    spans = data.get("spans")
    ids: set[str] = set()
    if _expect(problems, isinstance(spans, list), "spans missing or not an array"):
        for i, span in enumerate(spans):
            if not _expect(problems, isinstance(span, dict),
                           f"spans[{i}] not an object"):
                continue
            _expect(problems, isinstance(span.get("name"), str),
                    f"spans[{i}].name missing or not a string")
            _expect(problems, isinstance(span.get("worker"), str),
                    f"spans[{i}].worker missing or not a string")
            sid = span.get("id")
            if _expect(problems, isinstance(sid, str),
                       f"spans[{i}].id missing or not a string"):
                _expect(problems, sid not in ids, f"spans[{i}].id {sid!r} duplicated")
                ids.add(sid)
            for field in ("start", "duration"):
                _expect(problems,
                        isinstance(span.get(field), (int, float))
                        and not isinstance(span.get(field), bool),
                        f"spans[{i}].{field} missing or not a number")
            dur = span.get("duration")
            if isinstance(dur, (int, float)) and not isinstance(dur, bool):
                _expect(problems, dur >= 0, f"spans[{i}].duration is negative")
            _expect(problems, isinstance(span.get("truncated"), bool),
                    f"spans[{i}].truncated missing or not a bool")
        for i, span in enumerate(spans):
            parent = span.get("parent_id") if isinstance(span, dict) else None
            _expect(problems, parent is None or parent in ids,
                    f"spans[{i}].parent_id {parent!r} does not resolve")

    counters = data.get("counters")
    if _expect(problems, isinstance(counters, dict),
               "counters missing or not an object"):
        for name, value in counters.items():
            _expect(problems, isinstance(value, int) and not isinstance(value, bool),
                    f"counters[{name!r}] is not an integer")
    gauges = data.get("gauges", {})
    if _expect(problems, isinstance(gauges, dict), "gauges is not an object"):
        for name, value in gauges.items():
            _expect(problems,
                    isinstance(value, (int, float)) and not isinstance(value, bool),
                    f"gauges[{name!r}] is not a number")

    cp = data.get("critical_path")
    if _expect(problems, isinstance(cp, dict),
               "critical_path missing or not an object"):
        cp_ids = cp.get("span_ids")
        if _expect(problems, isinstance(cp_ids, list),
                   "critical_path.span_ids missing or not an array"):
            for sid in cp_ids:
                _expect(problems, sid in ids,
                        f"critical_path names unknown span {sid!r}")
    return problems
