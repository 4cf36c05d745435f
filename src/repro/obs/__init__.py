"""Observability: tracing spans, solver counters, run manifests.

The cut/expansion pipeline is a cascade of budgeted exponential solvers
(:mod:`repro.core.fallback`); this package is how a run explains itself.
Three primitives, all zero-dependency:

* **spans** — ``with trace("enumerate", n=3): ...`` records a nestable
  monotonic-clock timing with its parent and attributes;
* **counters/gauges** — ``incr("cuts.bb.nodes_pruned", k)`` named solver
  statistics (cuts enumerated, DP states, B&B prunes, worker retries,
  dropped packets), incremented through a no-op-when-disabled fast path
  so hot loops pay ~nothing by default;
* **manifests** — :func:`build_manifest`/:func:`write_manifest` persist
  one atomically-written JSON artifact per run: seed, git revision,
  toolchain versions, budget state, the degradation tier that won, every
  span and every counter.

Nothing records unless a :class:`Collector` is active
(``with collecting() as col: ...``); the CLI's ``solve --trace PATH``
does exactly that and ``repro-butterfly stats PATH`` reads it back.  See
``docs/observability.md`` for naming conventions and format guarantees.
"""

from .collector import (
    Collector,
    activate,
    annotate,
    collecting,
    current,
    enabled,
    gauge,
    incr,
    trace,
)
from .export import (
    folded_stacks,
    openmetrics_lines,
    write_folded,
    write_openmetrics,
)
from .manifest import (
    MANIFEST_KIND,
    MANIFEST_SCHEMA,
    MANIFEST_VERSION,
    build_manifest,
    capture_environment,
    load_manifest,
    validate_manifest,
    write_manifest,
)
from .telemetry import (
    TELEMETRY_KIND,
    TELEMETRY_VERSION,
    TIMELINE_KIND,
    ShardCollector,
    TraceContext,
    critical_path,
    load_timeline,
    merge_shards,
    new_run_id,
    read_shard,
    validate_timeline,
    write_timeline,
)

__all__ = [
    "Collector",
    "activate",
    "annotate",
    "collecting",
    "current",
    "enabled",
    "gauge",
    "incr",
    "trace",
    "MANIFEST_KIND",
    "MANIFEST_SCHEMA",
    "MANIFEST_VERSION",
    "build_manifest",
    "capture_environment",
    "load_manifest",
    "validate_manifest",
    "write_manifest",
    "TELEMETRY_KIND",
    "TELEMETRY_VERSION",
    "TIMELINE_KIND",
    "ShardCollector",
    "TraceContext",
    "critical_path",
    "load_timeline",
    "merge_shards",
    "new_run_id",
    "read_shard",
    "validate_timeline",
    "write_timeline",
    "folded_stacks",
    "openmetrics_lines",
    "write_folded",
    "write_openmetrics",
]
