"""Spectral bisection via the Fiedler vector.

Computes the eigenvector of the graph Laplacian for the second-smallest
eigenvalue and splits the nodes at its median value.  Spectral splits are
the standard strong initializer for local refinement (Kernighan–Lin /
Fiduccia–Mattheyses) and give surprisingly good bisections of butterflies —
upper bounds on the Section 1.2 widths whose quality the solver-ablation
benchmark (DESIGN.md, ABL) quantifies against the exact DP values.
"""

from __future__ import annotations

import numpy as np

from ..resilience.budget import Budget
from ..topology.base import Network
from .cut import Cut
from .kernighan_lin import kl_refine

__all__ = ["fiedler_vector", "spectral_bisection"]


def _laplacian(net: Network):
    from scipy.sparse import coo_matrix

    n = net.num_nodes
    e = net.edges
    data = np.ones(len(e), dtype=np.float64)
    adj = coo_matrix((data, (e[:, 0], e[:, 1])), shape=(n, n))
    adj = adj + adj.T
    deg = np.asarray(adj.sum(axis=1)).ravel()
    lap = coo_matrix(
        (np.concatenate([deg, -adj.tocoo().data]),
         (np.concatenate([np.arange(n), adj.tocoo().row]),
          np.concatenate([np.arange(n), adj.tocoo().col]))),
        shape=(n, n),
    ).tocsr()
    return lap


def fiedler_vector(net: Network, seed: int = 0) -> np.ndarray:
    """The eigenvector of the Laplacian's second-smallest eigenvalue."""
    from scipy.sparse.linalg import eigsh

    n = net.num_nodes
    if n < 3:
        return np.arange(n, dtype=np.float64)
    lap = _laplacian(net)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    # Shift-invert around sigma=0 converges fast on small spectra; the
    # all-ones vector is the 0-eigenvector, the next one is Fiedler's.
    vals, vecs = eigsh(lap.asfptype(), k=2, sigma=-1e-6, which="LM", v0=v0)
    order = np.argsort(vals)
    return vecs[:, order[1]]


def spectral_bisection(
    net: Network, refine: bool = True, seed: int = 0,
    budget: Budget | None = None,
) -> Cut:
    """Bisection from the median split of the Fiedler vector.

    With ``refine=True`` (default) the split is post-processed by
    Kernighan–Lin, which preserves balance and never increases capacity;
    an expired ``budget`` cuts the refinement short (the median split
    itself is a single eigensolve and always completes).
    """
    n = net.num_nodes
    fv = fiedler_vector(net, seed=seed)
    order = np.argsort(fv, kind="stable")
    side = np.zeros(n, dtype=bool)
    side[order[: n // 2]] = True
    cut = Cut(net, side)
    if refine:
        cut = kl_refine(cut, budget=budget)
    return cut
