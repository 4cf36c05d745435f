"""Structural properties of the networks (Section 1.1 claims).

The paper records several structural facts we verify computationally:

* the diameter of ``Bn`` is ``2 log n`` and of ``Wn`` is ``floor(3 log n / 2)``;
* ``Bn`` has ``n (log n + 1)`` nodes, ``Wn`` has ``n log n``;
* in ``Bn`` the level-0 and level-``log n`` nodes have degree 2 and all
  interior nodes degree 4, while ``Wn`` is 4-regular (the asymmetry that
  makes ``BW(Bn)`` harder to analyze than ``BW(Wn)``);
* the edges between consecutive levels partition into node- and
  edge-disjoint 4-cycles ("which resemble butterflies when drawn, hence the
  name"), the structural fact behind Lemma 2.12.
"""

from __future__ import annotations

import numpy as np

from .base import Network
from .butterfly import Butterfly

__all__ = [
    "diameter",
    "eccentricity",
    "degree_census",
    "butterfly_degree_census",
    "level_four_cycles",
    "expected_diameter",
]


def _distance_matrix(net: Network) -> np.ndarray:
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import shortest_path

    n = net.num_nodes
    e = net.edges
    data = np.ones(len(e), dtype=np.int8)
    mat = coo_matrix((data, (e[:, 0], e[:, 1])), shape=(n, n))
    dist = shortest_path(mat, method="D", directed=False, unweighted=True)
    return dist


def diameter(net: Network) -> int:
    """Exact diameter (maximum over node pairs of shortest-path length)."""
    dist = _distance_matrix(net)
    if np.isinf(dist).any():
        raise ValueError(f"{net.name} is disconnected; diameter undefined")
    return int(dist.max())


def eccentricity(net: Network, index: int) -> int:
    """Eccentricity of one node (max distance to any other node)."""
    dist = _distance_matrix(net)[index]
    if np.isinf(dist).any():
        raise ValueError(f"{net.name} is disconnected")
    return int(dist.max())


def degree_census(net: Network) -> dict[int, int]:
    """Map from degree value to the number of nodes with that degree."""
    vals, counts = np.unique(net.degrees, return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}


def butterfly_degree_census(bf: Butterfly) -> dict[int, int]:
    """The degree census the paper predicts for ``Bn`` / ``Wn``.

    ``Bn``: ``2n`` nodes of degree 2 (levels 0 and ``log n``) and
    ``n (log n - 1)`` of degree 4.  ``Wn``: all ``n log n`` nodes degree 4.
    """
    n, lg = bf.n, bf.lg
    if bf.wraparound:
        return {4: n * lg}
    if lg == 1:
        return {2: 2 * n}
    return {2: 2 * n, 4: n * (lg - 1)}


def level_four_cycles(bf: Butterfly, i: int) -> np.ndarray:
    """The disjoint 4-cycles formed by the edges between levels ``i, i+1``.

    Returns an ``(n/2, 4)`` array of node indices; each row
    ``(v, u, v', u')`` is a cycle ``v - u - v' - u' - v`` with
    ``v, v'`` on level ``i`` and ``u, u'`` on level ``i+1``
    (used in the proof of Lemma 2.12).
    """
    lg, n = bf.lg, bf.n
    if bf.wraparound:
        i %= lg
        bitpos = (i % lg) + 1
        nxt = (i + 1) % lg
    else:
        if not 0 <= i < lg:
            raise ValueError(f"no level pair ({i}, {i+1}) in {bf.name}")
        bitpos = i + 1
        nxt = i + 1
    mask = 1 << (lg - bitpos)
    cols = np.arange(n, dtype=np.int64)
    low = cols[(cols & mask) == 0]
    v = i * n + low
    u = nxt * n + low
    v2 = i * n + (low ^ mask)
    u2 = nxt * n + (low ^ mask)
    return np.column_stack([v, u, v2, u2])


def expected_diameter(bf: Butterfly) -> int:
    """The paper's diameter claim: ``2 log n`` for ``Bn``,
    ``floor(3 log n / 2)`` for ``Wn``."""
    return (3 * bf.lg) // 2 if bf.wraparound else 2 * bf.lg
