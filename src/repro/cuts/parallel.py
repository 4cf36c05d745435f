"""Process-parallel layered DP for cyclic networks, under supervision.

The Section 3 networks — wrapped butterflies and cube-connected cycles,
whose exact widths are Lemmas 3.1–3.3 — have cyclic layerings, and the
cyclic case of :mod:`repro.cuts.layered_dp` pins the first layer's
mask and sweeps once per pin — ``2^w`` completely independent sweeps, the
textbook embarrassingly parallel loop (the mpi4py guide's pattern, realized
with :mod:`multiprocessing` since this environment ships no MPI).  The
factored transfer tables are computed once in the parent and shipped to
workers through a pool initializer, so each task carries only its pin
range.

The pool is *supervised* (:mod:`repro.resilience.supervise`): a crashed or
hung worker is detected by a per-task timeout, its pin range is retried
with exponential backoff, and after the retry cap the range is computed
serially in the parent — so a killed worker costs time, never correctness.
Completed pin ranges can be checkpointed
(:mod:`repro.resilience.checkpoint`) and are skipped on resume; because
the profile is a pin-order-independent elementwise minimum, a resumed run
is bit-identical to an uninterrupted one.

Exactness is unchanged: the parallel profile is asserted equal to the
serial one in the tests.  The pin loop scales with physical cores
(~``min(workers, cores)``×); on a single-core host it degrades gracefully
to serial speed plus a small pool-startup cost.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from ..obs import incr, trace
from ..resilience.budget import Budget
from ..resilience.checkpoint import CheckpointStore, RangeLedger, as_store
from ..resilience.faults import maybe_crash
from ..resilience.supervise import RetryPolicy, SupervisionReport, supervised_map
from ..topology.base import Network
from .autotune import BATCH_CONTRACT_VERSION, pin_chunk_count, sweep_ranges
from .layered_dp import _INF, _fold, _forward, _tables

__all__ = ["parallel_cyclic_profile"]

_WORKER_STATE: dict = {}


def _init_worker(tabs, fault_token=None):
    _WORKER_STATE["tabs"] = tabs
    _WORKER_STATE["fault_token"] = fault_token


def _run_pins(pin_range: tuple[int, int]) -> np.ndarray:
    maybe_crash(_WORKER_STATE.get("fault_token"))
    tabs = _WORKER_STATE["tabs"]
    best = np.full(tabs.C + 1, _INF, dtype=np.int64)
    for pin in range(*pin_range):
        _fold(tabs, _forward(tabs, pin), pin, best)
    return best


def parallel_cyclic_profile(
    net: Network,
    layers: list[np.ndarray] | None = None,
    counted: np.ndarray | None = None,
    workers: int | None = None,
    max_width: int = 12,
    *,
    budget: Budget | None = None,
    checkpoint: str | CheckpointStore | None = None,
    policy: RetryPolicy | None = None,
    status: dict | None = None,
    fault_token: str | None = None,
) -> np.ndarray:
    """Exact cut profile of a *cyclic* layered network, pin loop in parallel.

    Returns the same ``values`` array as
    :func:`repro.cuts.layered_dp.layered_cut_profile` (witnesses are not
    reconstructed; rerun the serial solver pinned to the winning count if
    one is needed).

    Parameters
    ----------
    budget:
        Optional budget; polled between pin ranges (and inside the
        supervisor's wait loop).  On expiry the minimum over the ranges
        completed so far is returned — a valid upper-bound profile —
        and ``status["complete"]`` is ``False``.
    checkpoint:
        Optional checkpoint file; completed pin ranges plus the running
        profile are persisted atomically as each range finishes, and a
        rerun with the same parameters skips them.
    policy:
        :class:`~repro.resilience.supervise.RetryPolicy` for crashed/hung
        worker handling (per-task timeout, retry cap, backoff).
    status:
        Optional dict, filled with ``complete``, ``pins_done``,
        ``total_pins`` and the supervisor's
        :class:`~repro.resilience.supervise.SupervisionReport`.
    fault_token:
        Path to a one-shot crash token
        (:func:`repro.resilience.faults.arm_crash_token`) — the fault
        harness used by the interruption tests; ``None`` in production.
    """
    if layers is None:
        layers = net.layers()  # type: ignore[attr-defined]
    if not bool(net.cyclic):  # type: ignore[attr-defined]
        raise ValueError("parallel pin sweep applies to cyclic layerings; "
                         "use layered_cut_profile for acyclic ones")
    widths = [len(l) for l in layers]
    if max(widths) > max_width:
        raise ValueError(f"layer width {max(widths)} exceeds max_width={max_width}")
    if counted is None:
        counted = np.arange(net.num_nodes, dtype=np.int64)
    counted = np.asarray(counted, dtype=np.int64)
    C = len(counted)
    tabs = _tables(net, layers, True, counted)

    num_pins = 1 << widths[0]
    if workers is None:
        workers = min(os.cpu_count() or 1, 8)
    workers = max(1, min(workers, num_pins))
    # Chunk grid sized by the DP cost model: enough chunks for retry and
    # checkpoint granularity (also on the serial path, where the budget
    # is polled between chunks), more on heavy instances so each chunk
    # stays within the per-chunk vector-ops budget.
    states_per_pin = sum((1 << w) * (C + 1) for w in widths)
    chunks = pin_chunk_count(num_pins, workers, states_per_pin)
    ranges = sweep_ranges(num_pins, chunks)

    best = np.full(C + 1, _INF, dtype=np.int64)
    ledger = RangeLedger()
    store = as_store(checkpoint)
    # Structural digest + counted digest + contract version; the chunk
    # grid is deliberately absent from the key (the fold is an idempotent
    # elementwise minimum and the ledger requires full containment, so a
    # resume under a different grid recomputes uncovered pin ranges and
    # stays bit-identical).
    ind = np.zeros(net.num_nodes, dtype=np.uint8)
    ind[counted] = 1
    cdigest = hashlib.sha256(np.packbits(ind).tobytes()).hexdigest()[:16]
    key = (
        f"pin-sweep:v{BATCH_CONTRACT_VERSION}:{net.name}:{net.num_nodes}n:"
        f"e{net.edge_digest[:16]}:p{num_pins}:c{cdigest}"
    )
    if store is not None:
        saved = store.load(key)
        if saved is not None:
            prev_best = np.asarray(saved.get("best", ()), dtype=np.int64)
            if prev_best.shape == (C + 1,):
                ledger = RangeLedger.from_list(saved.get("completed"))
                best = prev_best

    todo = [r for r in ranges if not ledger.covers(*r)]

    def _merge(_i: int, pin_range: tuple[int, int], part: np.ndarray) -> None:
        np.minimum(best, np.asarray(part, dtype=np.int64), out=best)
        ledger.add(*pin_range)
        incr("cuts.parallel.pins_done", pin_range[1] - pin_range[0])
        if store is not None:
            store.save(key, {
                "completed": ledger.to_list(),
                "best": best.tolist(),
            })

    report = SupervisionReport()
    if todo:
        with trace("cuts.parallel_pin_sweep", network=net.name,
                   pins=num_pins, workers=workers, chunks=len(todo)):
            supervised_map(
                _run_pins,
                todo,
                workers=workers,
                initializer=_init_worker,
                initargs=(tabs, fault_token),
                policy=policy,
                budget=budget,
                on_result=_merge,
                report=report,
            )

    if status is not None:
        status["complete"] = ledger.total == num_pins
        status["pins_done"] = ledger.total
        status["total_pins"] = num_pins
        status["report"] = report
    return best
