"""Robustness layer: budgets, checkpoints, supervision, fault injection.

The paper's quantities are NP-hard in general, so production runs of the
exact solvers must be interruptible without losing work.  This package
holds the machinery the solver and routing stacks thread through:

* :mod:`~repro.resilience.budget` — wall-clock deadlines and cooperative
  cancellation, accepted by every solver; on expiry a solver returns its
  best-so-far as a *partial* result instead of raising;
* :mod:`~repro.resilience.checkpoint` — atomic write-rename persistence of
  completed work ranges, so interrupted sweeps resume bit-identically;
* :mod:`~repro.resilience.supervise` — a supervised process pool that
  detects crashed or hung workers, retries with exponential backoff, and
  degrades to in-process serial execution;
* :mod:`~repro.resilience.faults` — seeded node/edge deletion and a
  one-shot worker-crash harness for fault tests and benchmarks.

The degradation cascade that ties the tiers together into a certified
answer lives in :mod:`repro.core.fallback`.
"""

from .budget import Budget, CancellationToken
from .checkpoint import CheckpointStore, RangeLedger
from .supervise import RetryPolicy, SupervisionReport, supervised_map
from .faults import FaultInjector, arm_crash_token, maybe_crash

__all__ = [
    "Budget",
    "CancellationToken",
    "CheckpointStore",
    "RangeLedger",
    "RetryPolicy",
    "SupervisionReport",
    "supervised_map",
    "FaultInjector",
    "arm_crash_token",
    "maybe_crash",
]
