"""Solver budgets: wall-clock deadlines and cooperative cancellation.

A :class:`Budget` is handed to the exact solvers (exhaustive enumeration,
the layered DP, branch and bound); they poll
:meth:`Budget.expired` at natural work boundaries (batch, pin, search
node) and, once the budget is gone, stop and return their best-so-far as a
partial result instead of raising.  Cancellation is *cooperative*: nothing
is interrupted mid-batch, so partial results are always well-defined
prefixes of the uninterrupted computation.

The clock is injectable (defaults to :func:`time.monotonic`) so tests can
drive expiry deterministically, one tick per poll.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["Budget", "CancellationToken"]


class CancellationToken:
    """A latch the owner flips to request cooperative cancellation.

    Solvers never flip the token themselves; the caller (a signal handler,
    a supervising thread, a test) calls :meth:`cancel` and the solver
    observes it at its next budget poll.
    """

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        """Request cancellation (idempotent)."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CancellationToken cancelled={self._cancelled}>"


class Budget:
    """A wall-clock deadline plus optional cancellation token and size caps.

    Parameters
    ----------
    seconds:
        Wall-clock allowance from construction time; ``None`` means no
        deadline (cancellation and ceilings may still apply).
    token:
        Optional :class:`CancellationToken`; when cancelled the budget
        counts as expired regardless of the clock.
    max_batch_bits:
        Optional ceiling on the log2 batch size of vectorized enumeration
        sweeps — the memory knob: a batch allocates ``O(2^bits)`` words.
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    def __init__(
        self,
        seconds: float | None = None,
        *,
        token: CancellationToken | None = None,
        max_batch_bits: int | None = None,
        # repro-lint: disable=RL007 -- the budget deadline clock predates obs spans
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if seconds is not None and seconds < 0:
            raise ValueError(f"budget seconds must be >= 0, got {seconds}")
        if max_batch_bits is not None and max_batch_bits < 1:
            raise ValueError(f"max_batch_bits must be >= 1, got {max_batch_bits}")
        self._clock = clock
        self._deadline = None if seconds is None else clock() + seconds
        self.token = token
        self.max_batch_bits = max_batch_bits

    @classmethod
    def unlimited(cls) -> "Budget":
        """A budget that never expires (useful as an explicit default)."""
        return cls(None)

    def expired(self) -> bool:
        """Whether the deadline has passed or cancellation was requested."""
        if self.token is not None and self.token.cancelled:
            return True
        return self._deadline is not None and self._clock() >= self._deadline

    def remaining(self) -> float | None:
        """Seconds left before the deadline; ``None`` when unbounded."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - self._clock())

    def batch_bits(self, default: int) -> int:
        """The batch size (log2) a sweep should use under this budget."""
        if self.max_batch_bits is None:
            return default
        return min(default, self.max_batch_bits)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rem = self.remaining()
        return (
            f"<Budget remaining={'inf' if rem is None else f'{rem:.3f}s'}"
            f" cancelled={self.token.cancelled if self.token else False}>"
        )
