"""Kernighan–Lin bisection refinement.

A from-scratch implementation of the classical KL pass: starting from a
balanced partition, repeatedly pick the unlocked pair ``(a, b)`` across the
cut with the largest swap gain ``D[a] + D[b] - 2 w(a, b)``, lock it, and
after exhausting all pairs commit the prefix of swaps with the best
cumulative gain.  Passes repeat until no positive-gain prefix exists.

This provides upper bounds on the Section 1.2 bisection widths for networks
beyond the exact solvers' reach (``B16``, ``B32``, ``W16``...), and serves as the refinement
stage after spectral initialization.  The per-pass bottleneck (the gain
matrix between boundary candidates) is evaluated with dense NumPy blocks.
"""

from __future__ import annotations

import numpy as np

from ..resilience.budget import Budget
from ..topology.base import Network
from .cut import Cut

__all__ = ["kernighan_lin_bisection", "kl_refine"]


def _adjacency(net: Network):
    from scipy.sparse import coo_matrix

    n = net.num_nodes
    e = net.edges
    data = np.ones(len(e), dtype=np.int64)
    mat = coo_matrix((data, (e[:, 0], e[:, 1])), shape=(n, n))
    mat = (mat + mat.T).tocsr()
    return mat


def _initial_side(net: Network, rng: np.random.Generator) -> np.ndarray:
    n = net.num_nodes
    side = np.zeros(n, dtype=bool)
    side[rng.permutation(n)[: n // 2]] = True
    return side


def kl_refine(
    cut: Cut, max_passes: int = 20, budget: Budget | None = None
) -> Cut:
    """Refine a balanced cut with Kernighan–Lin passes.

    The input sizes are preserved exactly (KL only swaps), so a bisection
    stays a bisection.  Returns a cut with capacity <= the input's.
    An expired ``budget`` stops between passes; each pass commits a whole
    swap prefix, so the cut returned is always balanced.
    """
    net = cut.network
    adj = _adjacency(net)
    side = cut.side.copy()

    for _ in range(max_passes):
        if budget is not None and budget.expired():
            break
        a_nodes = np.flatnonzero(side)
        b_nodes = np.flatnonzero(~side)
        if len(a_nodes) == 0 or len(b_nodes) == 0:
            break
        # D[v] = external - internal degree under the current partition.
        ext_a = np.asarray(adj[a_nodes][:, b_nodes].sum(axis=1)).ravel()
        int_a = np.asarray(adj[a_nodes][:, a_nodes].sum(axis=1)).ravel()
        ext_b = np.asarray(adj[b_nodes][:, a_nodes].sum(axis=1)).ravel()
        int_b = np.asarray(adj[b_nodes][:, b_nodes].sum(axis=1)).ravel()
        Da = ext_a - int_a
        Db = ext_b - int_b
        W = np.asarray(adj[a_nodes][:, b_nodes].todense())

        locked_a = np.zeros(len(a_nodes), dtype=bool)
        locked_b = np.zeros(len(b_nodes), dtype=bool)
        gains: list[int] = []
        swaps: list[tuple[int, int]] = []
        steps = min(len(a_nodes), len(b_nodes))
        for _step in range(steps):
            G = Da[:, None] + Db[None, :] - 2 * W
            G[locked_a, :] = np.iinfo(np.int64).min
            G[:, locked_b] = np.iinfo(np.int64).min
            flat = int(np.argmax(G))
            ia, ib = divmod(flat, len(b_nodes))
            g = int(G[ia, ib])
            gains.append(g)
            swaps.append((ia, ib))
            locked_a[ia] = True
            locked_b[ib] = True
            # Update D values as if the pair were swapped.
            wa = np.asarray(adj[a_nodes[ia]].todense()).ravel()
            wb = np.asarray(adj[b_nodes[ib]].todense()).ravel()
            Da = Da + 2 * wa[a_nodes] - 2 * wb[a_nodes]
            Db = Db + 2 * wb[b_nodes] - 2 * wa[b_nodes]
        cum = np.cumsum(gains)
        best = int(np.argmax(cum))
        if cum[best] <= 0:
            break
        for ia, ib in swaps[: best + 1]:
            side[a_nodes[ia]] = False
            side[b_nodes[ib]] = True
    refined = Cut(net, side)
    assert refined.s_size == cut.s_size, "KL must preserve side sizes"
    return refined if refined.capacity <= cut.capacity else cut


def kernighan_lin_bisection(
    net: Network, restarts: int = 4, seed: int = 0, max_passes: int = 20,
    budget: Budget | None = None,
) -> Cut:
    """Heuristic minimum bisection: random balanced starts + KL refinement.

    Returns the best bisection found across ``restarts`` independent starts.
    The result is an upper-bound witness; optimality is not guaranteed.
    An expired ``budget`` stops after the current restart: at least one
    start always completes, so the answer stays a valid (if weaker) bound.
    """
    rng = np.random.default_rng(seed)
    best: Cut | None = None
    for _ in range(max(1, restarts)):
        if best is not None and budget is not None and budget.expired():
            break
        cut = Cut(net, _initial_side(net, rng))
        cut = kl_refine(cut, max_passes=max_passes, budget=budget)
        if best is None or cut.capacity < best.capacity:
            best = cut
    assert best is not None
    return best
