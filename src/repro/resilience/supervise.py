"""A supervised process pool: crash/hang detection, retries, serial fallback.

``multiprocessing.Pool`` alone is brittle for long sweeps: a worker killed
by the OOM killer silently loses its task (the pool respawns the process
but the task never returns), and a hung worker stalls ``pool.map``
forever.  :func:`supervised_map` wraps the pool with the production
behaviors the solvers need:

* every task is submitted with ``apply_async`` and watched against a
  per-task deadline, so crashed *and* hung workers are both detected as
  timeouts;
* failed or timed-out tasks are retried with exponential backoff up to a
  retry cap;
* once a task exhausts its retries — or the pool cannot be created at
  all — it degrades gracefully to in-process serial execution in the
  parent, so the answer is still computed (exactness is preserved; only
  the speedup is lost);
* the pool is terminated and joined on **every** exit path (success,
  worker exception, ``KeyboardInterrupt``), so interrupted runs never
  leak child processes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from multiprocessing import Pool
from pathlib import Path
from typing import Any, Callable, Sequence

from ..obs import (
    ShardCollector,
    TraceContext,
    activate,
    current,
    incr,
    new_run_id,
)

__all__ = ["RetryPolicy", "SupervisionReport", "supervised_map"]

_POLL_SECONDS = 0.02


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor treats failing or unresponsive tasks.

    Attributes
    ----------
    task_timeout:
        Seconds a single task may run before it is presumed lost (crashed
        or hung worker); ``None`` disables hang detection.
    max_retries:
        Resubmissions per task before degrading to serial execution.
    backoff, backoff_factor, max_backoff:
        Exponential backoff between resubmissions of the same task:
        ``backoff * backoff_factor**(attempt-1)``, capped at
        ``max_backoff`` seconds.
    """

    task_timeout: float | None = 600.0
    max_retries: int = 2
    backoff: float = 0.25
    backoff_factor: float = 2.0
    max_backoff: float = 30.0

    def delay(self, attempt: int) -> float:
        """Backoff before resubmission number ``attempt`` (1-based)."""
        return min(self.backoff * self.backoff_factor ** (attempt - 1),
                   self.max_backoff)


@dataclass
class SupervisionReport:
    """What the supervisor observed during one :func:`supervised_map` run.

    Beyond the aggregate tallies, two per-task records keep the retry and
    degradation history from being swallowed: ``task_attempts`` maps a
    task index to how many of its pool attempts *failed* (crashed, raised
    or timed out; absent = first submission succeeded), and
    ``degraded_tasks`` lists the tasks that fell back to in-process
    serial execution — either after exhausting their retries or because
    the pool never came up.  The same events are published as ``pool.*``
    obs counters (:mod:`repro.obs`) when a collector is active.
    """

    total: int = 0
    completed: int = 0
    retries: int = 0
    timeouts: int = 0
    failures: int = 0
    serial_tasks: int = 0
    pool_broken: bool = False
    errors: list[str] = field(default_factory=list)
    task_attempts: dict[int, int] = field(default_factory=dict)
    degraded_tasks: list[int] = field(default_factory=list)
    #: Fleet-telemetry pointer block (run_id, dir, shard_files) when the
    #: run was traced; feed the shard files to
    #: :func:`repro.obs.telemetry.merge_shards` for one timeline.
    telemetry: dict[str, Any] | None = None

    @property
    def complete(self) -> bool:
        """Whether every task produced a result."""
        return self.completed == self.total


class _TeleInitializer:
    """Picklable pool initializer chaining telemetry onto the caller's.

    In a pool worker it installs a fresh process-global
    :class:`~repro.obs.telemetry.ShardCollector` journaling to
    ``dir/pool-<pid>.jsonl`` under the inherited trace context, so every
    span/counter the task code records lands in that worker's shard
    file — even when a ``fork`` copied the parent's active collector
    into the worker.  In the *parent* that built it (serial fallback
    runs the initializer there too) an already-active collector — e.g. a
    traced CLI run's manifest collector — is left in place: the parent's
    observations belong to the parent's trace.
    """

    def __init__(
        self,
        wire: dict[str, Any],
        inner: Callable[..., None] | None,
        innerargs: tuple,
    ) -> None:
        self.wire = wire
        self.inner = inner
        self.innerargs = innerargs
        self.parent_pid = os.getpid()

    def __call__(self) -> None:
        if os.getpid() != self.parent_pid or current() is None:
            tele = ShardCollector(
                Path(self.wire["dir"]) / f"pool-{os.getpid()}.jsonl",
                context=TraceContext.from_wire(self.wire.get("context")),
                worker=f"pool-{os.getpid()}",
            )
            activate(tele)
            tele.flush()
        if self.inner is not None:
            self.inner(*self.innerargs)


class _TeleTask:
    """Picklable task wrapper: one flushed ``pool.task`` span per call."""

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, task: Any) -> Any:
        col = current()
        if not isinstance(col, ShardCollector):
            return self.fn(task)
        with col.span("pool.task"):
            out = self.fn(task)
        # Journal after every task: the shard file always reflects the
        # last completed task, whatever kills this worker next.
        col.flush()
        return out


def supervised_map(
    task_fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    workers: int,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
    policy: RetryPolicy | None = None,
    report: SupervisionReport | None = None,
    telemetry: str | dict | None = None,
) -> list[Any]:
    """Map ``task_fn`` over ``tasks`` under supervision.

    Returns one result per task, in task order.  ``task_fn`` must be
    picklable (module-level) and is also called directly in the parent for
    serial fallback, after running ``initializer`` there once.

    ``telemetry`` opts the pool into fleet tracing: a directory path (a
    fresh run id is minted) or a full ``{"dir", "context"}`` wire dict
    (to nest under an enclosing trace).  Each pool worker journals
    spans/counters to ``dir/pool-<pid>.jsonl``; the pointer block lands
    in ``report.telemetry`` and the shard files merge with
    :func:`repro.obs.telemetry.merge_shards`.
    """
    policy = policy or RetryPolicy()
    report = report if report is not None else SupervisionReport()
    report.total = len(tasks)

    if telemetry is not None:
        wire = (
            {"dir": str(telemetry),
             "context": TraceContext(new_run_id()).to_wire()}
            if not isinstance(telemetry, dict) else dict(telemetry)
        )
        initializer = _TeleInitializer(wire, initializer, initargs)
        initargs = ()
        task_fn = _TeleTask(task_fn)
        tele_dir = Path(wire["dir"])
        ctx = TraceContext.from_wire(wire.get("context"))
        report.telemetry = {
            "run_id": ctx.run_id if ctx is not None else None,
            "dir": str(tele_dir),
            "shard_files": [],
        }
    results: list[Any] = [None] * len(tasks)

    parent_ready = False

    def _run_serial(i: int, degraded: bool = False) -> None:
        nonlocal parent_ready
        if initializer is not None and not parent_ready:
            initializer(*initargs)
            parent_ready = True
        if degraded:
            # A pool task landed in the parent: record the transition
            # rather than swallowing it into the aggregate serial count.
            report.degraded_tasks.append(i)
            incr("pool.serial_degrades")
        results[i] = task_fn(tasks[i])
        report.serial_tasks += 1
        report.completed += 1

    def _serial_sweep(degraded: bool = False) -> list[Any]:
        for i in range(len(tasks)):
            _run_serial(i, degraded=degraded)
        return results

    def _finalize(res: list[Any]) -> list[Any]:
        if report.telemetry is not None:
            report.telemetry["shard_files"] = sorted(
                str(p)
                for p in Path(report.telemetry["dir"]).glob("pool-*.jsonl")
            )
        return res

    if not tasks:
        return _finalize(results)
    if workers <= 1:
        return _finalize(_serial_sweep())

    pool = None
    try:
        try:
            pool = Pool(workers, initializer=initializer, initargs=initargs)
        except (OSError, ValueError) as exc:
            report.pool_broken = True
            report.errors.append(f"pool unavailable: {exc}")
            incr("pool.broken")
            return _finalize(_serial_sweep(degraded=True))

        now = time.monotonic  # repro-lint: disable=RL007 -- task deadlines, not a measurement span
        attempts = [0] * len(tasks)

        def _submit(i: int) -> tuple[Any, float | None]:
            deadline = (
                None if policy.task_timeout is None
                else now() + policy.task_timeout
            )
            return pool.apply_async(task_fn, (tasks[i],)), deadline

        pending: dict[int, tuple[Any, float | None]] = {
            i: _submit(i) for i in range(len(tasks))
        }

        def _failed(i: int, why: str) -> None:
            """Retry a lost/failed task, or degrade it to serial."""
            del pending[i]
            attempts[i] += 1
            report.errors.append(f"task {i}: {why}")
            if attempts[i] > policy.max_retries:
                report.task_attempts[i] = attempts[i]
                _run_serial(i, degraded=True)
                return
            report.retries += 1
            report.task_attempts[i] = attempts[i]
            incr("pool.retries")
            time.sleep(policy.delay(attempts[i]))
            pending[i] = _submit(i)

        while pending:
            progressed = False
            for i in sorted(pending):
                async_result, deadline = pending[i]
                if async_result.ready():
                    progressed = True
                    try:
                        value = async_result.get()
                    except Exception as exc:  # worker raised
                        report.failures += 1
                        incr("pool.worker_failures")
                        _failed(i, f"worker exception: {exc!r}")
                        continue
                    del pending[i]
                    results[i] = value
                    report.completed += 1
                elif deadline is not None and now() > deadline:
                    progressed = True
                    report.timeouts += 1
                    incr("pool.task_timeouts")
                    _failed(i, "task timeout (crashed or hung worker)")
            if not progressed:
                time.sleep(_POLL_SECONDS)
        return _finalize(results)
    finally:
        if pool is not None:
            # Terminate rather than close: lost tasks from killed workers
            # would make close()+join() wait forever.
            pool.terminate()
            pool.join()
