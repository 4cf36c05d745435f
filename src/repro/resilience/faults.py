"""Seeded fault injection for networks, workers, and simulations.

Two fault models:

* **Topology faults** — :class:`FaultInjector` deletes a reproducible
  (seeded) random subset of nodes or edges from a network, modelling
  failed routers and links.  The degraded graph is an ordinary
  :class:`~repro.topology.base.Network`, so every solver, heuristic and
  the packet simulator run on it unchanged; the
  ``bench_fault_degradation`` benchmark measures how the certified ``BW``
  interval and routing throughput decay with fault rate.

* **Worker crashes** — a one-shot crash token on the filesystem.  A test
  arms the token (:func:`arm_crash_token`); the first pool worker that
  reaches :func:`maybe_crash` consumes it atomically and SIGKILLs itself,
  simulating an OOM-killed process *once*.  The retried task finds the
  token gone and completes, which is exactly the recover-on-retry
  behavior the supervised pool must exhibit.  The token records the PID
  of the process that armed it, and :func:`maybe_crash` never kills that
  process: under the ``fork`` start method the parent shares the solver
  code paths with its workers (serial degradation runs the same task
  function in-process), so without the guard a pool failure could make
  the *test harness* consume its own token and die — the "fires twice
  across fork" failure mode the guard closes.
"""

from __future__ import annotations

import os
import signal
from pathlib import Path

import numpy as np

from ..topology.base import Network

__all__ = [
    "FaultInjector",
    "arm_crash_token",
    "maybe_crash",
]


class FaultInjector:
    """Delete seeded random nodes/edges from a network, reproducibly.

    Every call derives its random stream from the injector's seed plus a
    per-call counter, so a sequence of injections replays identically for
    the same seed — the property the degradation benchmark and the fault
    tests rely on.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._calls = 0

    def _rng(self) -> np.random.Generator:
        rng = np.random.default_rng((self.seed, self._calls))
        self._calls += 1
        return rng

    @staticmethod
    def _count(total: int, rate: float | None, count: int | None) -> int:
        if (rate is None) == (count is None):
            raise ValueError("give exactly one of rate= or count=")
        if count is not None:
            k = int(count)
        else:
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"fault rate must be in [0, 1], got {rate}")
            k = int(round(rate * total))
        if k > total:
            raise ValueError(f"cannot delete {k} of {total}")
        return k

    def drop_edges(
        self, net: Network, rate: float | None = None, count: int | None = None
    ) -> Network:
        """A copy of ``net`` with ``count`` (or ``round(rate*E)``) edges gone."""
        k = self._count(net.num_edges, rate, count)
        if k == 0:
            return Network(net.labels, net.edges, name=net.name)
        doomed = self._rng().choice(net.num_edges, size=k, replace=False)
        keep = np.ones(net.num_edges, dtype=bool)
        keep[doomed] = False
        return Network(
            net.labels, net.edges[keep], name=f"{net.name}-{k}e"
        )

    def drop_nodes(
        self, net: Network, rate: float | None = None, count: int | None = None
    ) -> Network:
        """The induced subgraph after deleting random nodes (labels kept)."""
        k = self._count(net.num_nodes, rate, count)
        if k == 0:
            return Network(net.labels, net.edges, name=net.name)
        doomed = self._rng().choice(net.num_nodes, size=k, replace=False)
        keep = np.setdiff1d(np.arange(net.num_nodes), doomed)
        return net.subgraph(keep, name=f"{net.name}-{k}v")


def arm_crash_token(path: str | Path) -> Path:
    """Create the one-shot crash token at ``path`` and return it.

    The token body records the arming PID; :func:`maybe_crash` refuses to
    kill that process, so the harness that armed the token survives even
    when serial degradation routes the instrumented task function back
    into it.
    """
    token = Path(path)
    token.parent.mkdir(parents=True, exist_ok=True)
    token.write_text(f"crash once armed-by={os.getpid()}\n", encoding="utf-8")
    return token


def _armer_pid(text: str) -> int | None:
    """The PID recorded by :func:`arm_crash_token`, or ``None``."""
    for word in text.split():
        if word.startswith("armed-by="):
            try:
                return int(word.partition("=")[2])
            except ValueError:
                return None
    return None


def maybe_crash(path: str | Path | None) -> None:
    """SIGKILL the current process iff it wins the race for the token.

    ``os.unlink`` is the atomic claim: exactly one process across the pool
    consumes the token and dies; everyone else (including the retry of the
    killed task) proceeds normally.  The process that *armed* the token is
    exempt — it reads the recorded PID and returns without claiming — so a
    forked child can die exactly once while the arming parent can never be
    killed by its own token, whichever of them reaches the call first.  A
    ``None`` path is a no-op so production call sites can thread the hook
    unconditionally.
    """
    if path is None:
        return
    token = Path(path)
    try:
        text = token.read_text(encoding="utf-8")
    except OSError:
        return
    if _armer_pid(text) == os.getpid():
        return
    try:
        os.unlink(token)
    except FileNotFoundError:
        return
    os.kill(os.getpid(), signal.SIGKILL)
