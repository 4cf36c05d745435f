"""Exhaustive exact minimum cuts for small networks.

Enumerates all ``2^{N-1}`` side assignments (the last node is pinned to
``S̄``, halving the space by complement symmetry) in ascending blocks.
Each block's cut capacities come from one float matrix product over a
split of the side mask into low and high bits (:class:`_SplitKernel`),
so the inner work is a BLAS call plus one ``argmin`` per counted-low
group and never a Python loop over masks.

Feasible up to ``_MAX_NODES = 28`` nodes: the sweep evaluates about
1.3·10^8 masks per second on a 2-core x86-64 machine (RR(28,3), 2^27
masks, in about 1 s).  Beyond that use the layered dynamic program
(:mod:`repro.cuts.layered_dp`) when the network is layered, or the
heuristics for upper bounds.  This is the ground truth that anchors the
Section 2.1 quantities — ``BW(G)``, ``BW(G, U)`` and the full cut profile —
at the sizes where Theorem 2.20's ratio can be checked directly.

The central artifact is the *cut profile*: ``profile[c]`` is the minimum
capacity over all cuts with exactly ``c`` counted nodes in ``S``.  The
profile answers every question in the paper at once:

* bisection width = ``profile[N // 2]`` (counted = all nodes);
* ``BW(G, U)`` = ``min(profile[|U| // 2], profile[(|U| + 1) // 2])``
  (counted = ``U``);
* edge expansion ``EE(G, k)`` = ``profile[k]`` (counted = all nodes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import incr, trace
from ..resilience.budget import Budget
from ..topology.base import Network
from .cut import Cut

__all__ = [
    "BATCH_CONTRACT_VERSION",
    "CutProfile",
    "cut_profile",
    "min_bisection",
    "min_u_bisection",
]

_MAX_NODES = 28

#: Version of the sweep's result contract (accumulation order, witness
#: rule), folded into the solver cache's profile keys.  Bump when a
#: semantic change would make cached profiles unsafe to reuse.
BATCH_CONTRACT_VERSION = 2

#: Free nodes ``0.._LOW_BITS-1`` index a block's rows (its low masks).
_LOW_BITS = 10

#: log2 masks per block: 2^16 float32 capacities (256 KiB) stay in L2.
_BLOCK_BITS = 16


def _block_bits(batch_bits: int | None) -> int:
    """log2 masks per block: the constant, capped by an explicit ceiling."""
    return _BLOCK_BITS if batch_bits is None else min(int(batch_bits), _BLOCK_BITS)


@dataclass(frozen=True)
class CutProfile:
    """Exact minimum-capacity profile by counted-side size.

    Attributes
    ----------
    network:
        The analyzed network.
    counted:
        Indices of the counted node set ``U``.
    values:
        ``values[c]`` = minimum capacity over cuts with ``|S ∩ U| = c``
        (``c = 0 .. |U|``).
    witnesses:
        ``witnesses[c]`` = a side bitmask (as Python int over node indices)
        achieving ``values[c]``.
    complete:
        ``True`` when the sweep reached every side assignment.  A budget
        expiry yields a *partial* profile: every finite entry of
        ``values`` is still a valid **upper bound** on the true minimum
        (it is the minimum over the examined assignments), and counts
        never observed stay at the ``int64`` sentinel maximum.
    """

    network: Network
    counted: np.ndarray
    values: np.ndarray
    witnesses: np.ndarray
    complete: bool = True

    def witness_cut(self, c: int) -> Cut:
        """Reconstruct an optimal cut with ``|S ∩ U| = c``."""
        mask = int(self.witnesses[c])
        side = np.array(
            [(mask >> v) & 1 for v in range(self.network.num_nodes)], dtype=bool
        )
        return Cut(self.network, side)

    def bisection_width(self) -> int:
        """Minimum capacity over cuts bisecting the counted set."""
        m = len(self.counted)
        return int(min(self.values[m // 2], self.values[(m + 1) // 2]))


class _SplitKernel:
    """The split-mask block kernel: one matmul per block of side masks.

    A side mask ``z`` over the ``free`` nodes ``0..free-1`` (every other
    node, the pinned ``n-1`` among them, on S̄) cuts ``z^T L z`` edges,
    ``L`` being the Laplacian restricted to the free nodes.  Split ``z``
    into ``k`` low bits ``x`` (nodes ``0..k-1``) and ``h = free-k`` high
    bits ``y``: ``cap = capLow[x] + capHigh[y] + 2·x^T L_lh y``.  A
    *block* is every low mask for a contiguous run of high masks, i.e.
    the mask range ``[h0 << k, h1 << k)``, and its ``2^k × H``
    capacities are one product
    ``[X | capLow | 1] @ [2·L_lh·Y^T ; 1 ; capHigh]``.  Every term and
    partial sum is an integer of magnitude at most ``8|E|``, so a
    float32 product is exact below ``|E| = 2^21`` (float64 beyond).

    Rows are ordered by their counted-low size (stably, so each group is
    ascending in the low mask), which makes a counted-size reduction one
    ``argmin`` per group: the lowest low mask within a column wins ties.
    """

    def __init__(
        self, edges: np.ndarray, counted: np.ndarray, free: int, bits: int
    ) -> None:
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        k = min(_LOW_BITS, free, bits)
        self.k, self.h = k, free - k
        self.dtype = np.float32 if len(e) < 1 << 21 else np.float64
        # Nodes >= free sit on S̄ in every mask, so they enter only
        # through the degrees of their free neighbours.
        inner = e[(e < free).all(axis=1)]
        lap = np.zeros((free, free))
        np.add.at(lap, (inner[:, 0], inner[:, 1]), -1.0)
        np.add.at(lap, (inner[:, 1], inner[:, 0]), -1.0)
        lap[np.diag_indices(free)] += np.bincount(
            e.ravel(), minlength=free
        )[:free]
        weight = np.bincount(
            np.asarray(counted, dtype=np.int64), minlength=free
        )[:free]
        low = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
        cap_low = ((low @ lap[:k, :k]) * low).sum(axis=1)
        cnt_low = low @ weight[:k]
        order = np.argsort(cnt_low, kind="stable")
        self.rows = order
        self.lhs = np.column_stack(
            [low[order], cap_low[order], np.ones(1 << k)]
        ).astype(self.dtype)
        sizes = cnt_low[order]
        breaks = np.flatnonzero(np.diff(sizes)) + 1
        self.groups = [
            (int(sizes[r0]), int(r0), int(r1))
            for r0, r1 in zip(np.r_[0, breaks], np.r_[breaks, len(sizes)])
        ]
        self.high = np.hstack(
            [lap[k:free, k:free], 2.0 * lap[k:free, :k]]
        ).astype(self.dtype)
        self.weight_high = weight[k:]

    def fold(
        self, start: int, stop: int, best: np.ndarray, best_mask: np.ndarray
    ) -> int:
        """Fold the mask range ``[start, stop)`` into ``best``/``best_mask``.

        ``start`` and ``stop`` must be multiples of ``2^k``, so the range
        is whole columns of low masks: :func:`cut_profile` passes blocks
        aligned to ``2^bits >= 2^k`` of a ``2^(n-1)`` mask space, which
        ``2^bits`` divides.  Within a block the lowest achieving mask
        wins each counted size; across blocks the update is strict
        ``<``, so under any ascending grid the surviving witness is the
        lowest achieving mask.  Returns the number of masks evaluated.
        """
        k, h = self.k, self.h
        his = np.arange(start >> k, stop >> k, dtype=np.int64)
        ybits = (his[:, None] >> np.arange(h)) & 1
        y = ybits.astype(self.dtype)
        yl = y @ self.high
        rhs = np.empty((k + 2, len(his)), dtype=self.dtype)
        rhs[:k] = yl[:, h:].T
        rhs[k] = 1.0
        rhs[k + 1] = (yl[:, :h] * y).sum(axis=1)
        cap = self.lhs @ rhs
        cnt_high = ybits @ self.weight_high
        cols = np.arange(len(his))
        sizes, values, masks = [], [], []
        for a, r0, r1 in self.groups:
            idx = cap[r0:r1].argmin(axis=0)
            values.append(cap[r0 + idx, cols])
            masks.append((his << k) | self.rows[r0 + idx])
            sizes.append(cnt_high + a)
        value = np.concatenate(values).astype(np.int64)
        mask = np.concatenate(masks)
        size = np.concatenate(sizes)
        order = np.lexsort((mask, value, size))
        size, value, mask = size[order], value[order], mask[order]
        lead = np.r_[True, size[1:] != size[:-1]]
        size, value, mask = size[lead], value[lead], mask[lead]
        better = value < best[size]
        best[size[better]] = value[better]
        best_mask[size[better]] = mask[better].astype(np.uint64)
        return stop - start


def _complement_fold(best: np.ndarray, best_mask: np.ndarray, n: int) -> None:
    """Close the swept minima under complement symmetry, in place.

    Pinning node ``n-1`` to S̄ visits each unordered partition once, but
    labels sides; a cut with ``c`` counted in ``S`` is also a cut with
    ``m - c`` counted in ``S``.  Each entry takes its mirror (with the
    complemented witness) when that is strictly smaller, ascending in
    ``c``, so the result is independent of the block grid.
    """
    m = len(best) - 1
    one = np.uint64(1)
    full = (np.uint64(1) << np.uint64(n)) - one
    for c in range(m + 1):
        cc = m - c
        if best[cc] < best[c]:
            best[c] = best[cc]
            best_mask[c] = best_mask[cc] ^ full


def cut_profile(
    net: Network,
    counted: np.ndarray | None = None,
    *,
    budget: Budget | None = None,
    batch_bits: int | None = None,
) -> CutProfile:
    """Compute the exact cut profile of ``net`` by exhaustive enumeration.

    Parameters
    ----------
    net:
        Network with at most ``28`` nodes.
    counted:
        Node indices of the counted set ``U``; defaults to all nodes.
    budget:
        Optional :class:`~repro.resilience.budget.Budget`, polled once per
        batch; on expiry the best-so-far profile is returned with
        ``complete=False`` instead of raising.
    batch_bits:
        Optional log2 ceiling on the masks per block; the default block
        is :data:`_BLOCK_BITS`.  A budget's ``max_batch_bits`` memory
        ceiling caps it too, and the result is bit-identical under any
        grid (the fold is an elementwise minimum and witness selection
        is batch-partition-independent).
    """
    n = net.num_nodes
    if n > _MAX_NODES:
        raise ValueError(
            f"exhaustive enumeration is limited to _MAX_NODES = {_MAX_NODES} "
            f"nodes (the sweep visits 2^(N-1) side assignments) but "
            f"{net.name} has {n}; for layered networks use "
            f"repro.cuts.layered_dp.layered_cut_profile, for general graphs "
            f"up to ~48 nodes use repro.cuts.branch_and_bound, and beyond "
            f"that the KL/FM/spectral heuristics give upper bounds"
        )
    if counted is None:
        counted = np.arange(n, dtype=np.int64)
    counted = np.asarray(counted, dtype=np.int64)
    m = len(counted)

    inf = np.iinfo(np.int64).max
    best = np.full(m + 1, inf, dtype=np.int64)
    best_mask = np.zeros(m + 1, dtype=np.uint64)

    free = max(n - 1, 0)  # pin node n-1 to the S̄ side
    total = 1 << free
    bits = _block_bits(batch_bits)
    if budget is not None:
        bits = budget.batch_bits(bits)
    bits = min(bits, free)
    kernel = _SplitKernel(net.edges, counted, free, bits)

    with trace("cuts.enumerate", network=net.name, nodes=n, counted=m,
               assignments=total, block_bits=bits, low_bits=kernel.k):
        start = 0
        while start < total:
            if budget is not None and budget.expired():
                incr("cuts.enumerate.budget_expiries")
                break
            stop = min(start + (1 << bits), total)
            evaluated = kernel.fold(start, stop, best, best_mask)
            incr("cuts.enumerate.batches")
            incr("cuts.enumerate.cuts_evaluated", evaluated)
            start = stop

    _complement_fold(best, best_mask, n)
    return CutProfile(net, counted, best, best_mask, start == total)


def min_bisection(net: Network) -> Cut:
    """Exact minimum bisection by enumeration (small networks only)."""
    prof = cut_profile(net)
    n = net.num_nodes
    c = n // 2 if prof.values[n // 2] <= prof.values[(n + 1) // 2] else (n + 1) // 2
    return prof.witness_cut(c)


def min_u_bisection(net: Network, u_set: np.ndarray) -> Cut:
    """Exact minimum cut bisecting the node set ``U`` (Section 2.1)."""
    prof = cut_profile(net, counted=np.asarray(u_set, dtype=np.int64))
    m = len(prof.counted)
    c = m // 2 if prof.values[m // 2] <= prof.values[(m + 1) // 2] else (m + 1) // 2
    return prof.witness_cut(c)
