"""The batch contract shared by the exhaustive sweeps (the complexity budget).

The exhaustive kernels behind Theorem 2.20's finite-size checks do their
work in vectorized blocks: the enumeration sweep of
:mod:`repro.cuts.enumerate_exact` evaluates a block of ``2^16`` side
masks with one matrix product (its block size is a constant of that
module), and the cyclic pin sweep of :mod:`repro.cuts.parallel` runs one
vectorized min-plus sweep per pin.  Grid boundaries never affect
results: the profile fold is an elementwise minimum (associative,
commutative) and the witness rule "first strictly better wins" selects
the globally lowest achieving mask under any ascending grid, so a resume
under a different grid — or a chunk table from :func:`sweep_ranges` — is
bit-identical to an uninterrupted sweep.  The batch contract itself is
versioned (:data:`BATCH_CONTRACT_VERSION`) and folded into checkpoint
and cache fingerprints; lint rule RL008 (see ``docs/lint.md``)
statically rejects kernels that break the one-Python-loop-level budget.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BATCH_CONTRACT_VERSION",
    "pin_chunk_count",
    "sweep_ranges",
]

#: Version of the batched-kernel contract (accumulation order, pre-fold
#: checkpoint state, vectorized work per batch).  Bump when a semantic
#: change would make persisted ranges or cached profiles unsafe to reuse.
BATCH_CONTRACT_VERSION = 2


def pin_chunk_count(
    num_pins: int,
    workers: int,
    states_per_pin: int,
    ops_budget: int = 1 << 24,
) -> int:
    """Chunk count for the cyclic pin sweep, sized by the DP state model.

    Each pin costs one min-plus sweep over ``states_per_pin`` (mask, count)
    states, so a chunk of ``p`` pins performs ``p * states_per_pin``
    vector-lane operations.  The chunk grid targets ``ops_budget``
    operations per chunk — small enough that budget polls, retries and
    checkpoint writes stay responsive on heavy instances — while keeping
    at least the classic ``max(8, workers * 4)`` chunks for retry and
    steal granularity.  Chunk boundaries never affect the profile (the
    fold is an elementwise minimum), so the grid is free to vary between
    machines and runs.
    """
    if num_pins <= 0:
        return 0
    pins_per_chunk = max(1, ops_budget // max(int(states_per_pin), 1))
    by_cost = -(-num_pins // pins_per_chunk)  # ceil division
    return min(num_pins, max(8, workers * 4, by_cost))


def sweep_ranges(total: int, chunks: int) -> list[tuple[int, int]]:
    """Split ``[0, total)`` into at most ``chunks`` contiguous ranges.

    The chunk grid of the parallel pin sweep's task list
    (:mod:`repro.cuts.parallel`).  The grid is an integer ``linspace`` —
    near-equal ranges, empty ones dropped — and, like every grid in the
    batch contract, never affects results: folds are elementwise minima
    and the witness rule is grid-independent.
    """
    if total <= 0 or chunks <= 0:
        return []
    bounds = np.linspace(0, int(total), min(int(chunks), int(total)) + 1,
                         dtype=np.int64)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(len(bounds) - 1)
        if bounds[i + 1] > bounds[i]
    ]
