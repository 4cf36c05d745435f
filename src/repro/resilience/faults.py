"""Seeded topology fault injection.

:class:`FaultInjector` deletes a reproducible (seeded) random subset of
nodes or edges from a network, modelling failed routers and links.  The
degraded graph is an ordinary :class:`~repro.topology.base.Network`, so
every solver, heuristic and the packet simulator run on it unchanged; the
``bench_fault_degradation`` benchmark measures how the certified ``BW``
interval and routing throughput decay with fault rate.
"""

from __future__ import annotations

import numpy as np

from ..topology.base import Network

__all__ = ["FaultInjector"]


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
