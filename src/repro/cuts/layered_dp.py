"""Exact minimum cuts on layered networks via min-plus dynamic programming.

Butterflies, wrapped butterflies, cube-connected cycles, meshes of stars and
Beneš networks are *layered*: every edge joins two consecutive layers
(cyclically for ``Wn`` and ``CCCn``) or lives inside one layer (the cube
edges of ``CCCn``).  Fixing each layer's side assignment (a bitmask), a
cut's capacity is a sum of per-layer and per-consecutive-pair terms, so a
min-plus sweep over (running count, mask) states yields the exact *cut
profile*: the exact bisection width, ``U``-bisection widths and ``EE(G, k)``
for every ``k``.  With ``2^w`` masks per layer it reaches width ``w = 12``:
``B8`` (the Figure 1 network), ``W8`` and ``CCC8``.

**Factored transfer.**  The edges between consecutive layers fall into
connected components; component ``k`` joins old-layer bits ``A_k`` to
new-layer bits ``B_k`` with a table ``t_k[a, b]`` of its edges cut
(multi-edges included), and nodes without such edges form one-sided
components.  As ``T[m1, m2] = Σ_k t_k[m1|A_k, m2|B_k]``, the step
``g[c, m2] = min_{m1} f[c, m1] + T[m1, m2]`` eliminates one component at a
time, for all live counts at once, at ``2^(|A_k| + |B_k|)`` adds per
assignment of the other bits.  A width-8 butterfly transition (four
2 + 2-bit components) takes 16× fewer adds than the dense ``2^w × 2^w``
product, which is the one-component case of the same code.

**Lowest-parent witnesses.**  A sweep keeps only its value tables
``f_l[c, m]``.  An improved count's witness is rebuilt backwards from the
lowest optimal last-layer mask: the parent of ``(l, c, m)`` is the lowest
``m1`` minimizing ``f_{l-1}[c - cnt_l(m), m1] + T[m1, m]``.  Integer minima
are exact, so values and witnesses do not depend on the factorization.  A
cyclic layering pins layer 0's mask, closes the cycle through
``T_last[:, pin]`` and takes the minimum over all pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from ..obs import incr, trace
from ..resilience.budget import Budget
from ..topology.base import Network
from .cut import Cut

__all__ = ["LayeredProfile", "layered_cut_profile", "layered_bisection_width",
           "layered_min_bisection", "layered_u_bisection_width"]

_INF = np.int64(1) << 40

#: Elements of one min-plus temporary (a wide component is eliminated in slices).
_TEMP_ELEMS = 1 << 22


def _classify_edges(
    net: Network, layers: list[np.ndarray], cyclic: bool,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Bit positions ``(p, q)`` of the edges inside each layer ``l`` and
    between layers ``l`` (``p``) and ``l + 1`` (``q``, mod ``L`` if cyclic)."""
    L = len(layers)
    layer_id, position = np.full((2, net.num_nodes), -1)
    for l, nodes in enumerate(layers):
        layer_id[nodes] = l
        position[nodes] = np.arange(len(nodes))
    if (layer_id < 0).any():
        raise ValueError("layers do not cover every node")
    u, v = np.asarray(net.edges, dtype=np.int64).reshape(-1, 2).T
    lu, lv = layer_id[u], layer_id[v]
    same = lu == lv
    if cyclic:
        # In a 2-layer cycle both directions satisfy the mod test; the
        # forward orientation wins, matching the wrap edge bookkeeping.
        fwd = ~same & ((lu + 1) % L == lv)
        bwd = ~same & ~fwd & ((lv + 1) % L == lu)
    else:
        fwd, bwd = lu + 1 == lv, lv + 1 == lu
    bad = np.flatnonzero(~(same | fwd | bwd))
    if bad.size:
        i = bad[0]
        raise ValueError(f"edge ({u[i]}, {v[i]}) spans non-consecutive layers {lu[i]}, "
                         f"{lv[i]}; network is not layered under the given layering")
    old, new = np.where(bwd, v, u), np.where(bwd, u, v)  # old layer first
    pairs = np.column_stack([position[old], position[new]])
    intra = [pairs[same & (lu == l)] for l in range(L)]
    inter = [pairs[~same & (layer_id[old] == l)] for l in range(L if cyclic else L - 1)]
    return intra, inter


@lru_cache(maxsize=16)
def _bits(w: int) -> np.ndarray:
    """``(2^w, w)`` 0/1 matrix: column ``j`` holds bit ``j`` of every mask."""
    bits = (np.arange(1 << w)[:, None] >> np.arange(w)) & 1
    bits.flags.writeable = False
    return bits


def _multiplicity(pairs: np.ndarray, w1: int, w2: int) -> np.ndarray:
    """``M[p, q]`` = number of ``(p, q)`` pairs (multi-edges counted)."""
    return np.bincount(pairs[:, 0] * w2 + pairs[:, 1], minlength=w1 * w2).reshape(w1, w2)


def _intra_cost(pairs: np.ndarray, width: int) -> np.ndarray:
    """``cost[m]`` = intra-layer edges cut by mask ``m`` (``b_p + b_q - 2 b_p b_q``)."""
    M, bits = _multiplicity(pairs, width, width), _bits(width)
    return bits @ (M.sum(0) + M.sum(1)) - 2 * ((bits @ M) * bits).sum(1)


def _cut_table(M: np.ndarray) -> np.ndarray:
    """``t[a, b]`` = edges of ``M`` cut by row bits ``a`` and column bits ``b``,
    each listed most significant first."""
    abits, bbits = _bits(M.shape[0])[:, ::-1], _bits(M.shape[1])[:, ::-1]
    return (abits @ M.sum(1))[:, None] + bbits @ M.sum(0) - 2 * abits @ M @ bbits.T


@dataclass(frozen=True)
class _Transfer:
    """``T[m1, m2] = Σ_k tables[k][a_idx[k][m1], b_idx[k][m2]]``; a table
    index lists its bits most significant first, in the axis order that
    ``perm_in`` gives ``m1`` and ``perm_out`` takes back to ``m2``."""

    perm_in: tuple[int, ...]
    perm_out: tuple[int, ...]
    tables: tuple[np.ndarray, ...]
    a_idx: np.ndarray  # (components, 2^w1)
    b_idx: np.ndarray  # (components, 2^w2)

    def apply(self, f: np.ndarray) -> np.ndarray:
        """``g[c, m2] = min_{m1} f[c, m1] + T[m1, m2]`` for every row ``c``.

        The component being eliminated is always the front axis, so adds
        and minima run over long contiguous rows; its new bits go last.
        """
        K, w1, w2 = len(f), len(self.perm_in) - 1, len(self.perm_out) - 1
        x = f.reshape((K,) + (2,) * w1).transpose(self.perm_in)
        for t in self.tables:
            na, nb = t.shape
            x = x.reshape(na, -1)
            step = max(1, _TEMP_ELEMS // (x.shape[1] * nb))
            x = reduce(np.minimum, (
                (x[a:a + step, None] + t[a:a + step, :, None]).min(axis=0)
                for a in range(0, na, step))).T
        x = x.reshape((K,) + (2,) * w2).transpose(self.perm_out)
        return x.reshape(K, 1 << w2)

    def column(self, m2: np.ndarray) -> np.ndarray:
        """``T[:, m2]`` as a ``(2^w1, len(m2))`` array."""
        return sum(t[:, b[m2]][a] for t, a, b in zip(self.tables, self.a_idx, self.b_idx))


def _transfer(pairs: np.ndarray, w1: int, w2: int) -> _Transfer:
    """Factor the transfer of the ``(p, q)`` pairs between two layers."""
    M = _multiplicity(pairs, w1, w2)
    n = w1 + w2  # old bit p is node p, new bit q is node w1 + q
    reach = np.eye(n, dtype=np.int64)
    reach[:w1, w1:], reach[w1:, :w1] = M > 0, (M > 0).T
    for _ in range(n.bit_length()):
        reach = np.minimum(reach @ reach, 1)
    # Key nodes by the lowest node of their component; one-sided nodes form two
    # components: all old-only bits first (their minimum shrinks the array), new-only last.
    comps: dict[int, list[int]] = {}
    for x, (lab, size) in enumerate(zip(reach.argmax(1).tolist(), reach.sum(1).tolist())):
        comps.setdefault(lab if size > 1 else n if x < w1 else -1, []).append(x)
    Wa = np.zeros((w1, len(comps)), dtype=np.int64)  # bit weights in each index
    Wb = np.zeros((w2, len(comps)), dtype=np.int64)
    a_cat, b_cat, blocks = [], [], []
    for k, lab in enumerate(sorted(comps, reverse=True)):
        a = [x for x in reversed(comps[lab]) if x < w1]
        b = [x - w1 for x in reversed(comps[lab]) if x >= w1]
        Wa[a, k] = 1 << np.arange(len(a))[::-1]
        Wb[b, k] = 1 << np.arange(len(b))[::-1]
        a_cat, b_cat, blocks = a_cat + a, b_cat + b, blocks + [M[a][:, b]]
    # Axis 1 + i of a reshaped (count, mask) table holds bit w - 1 - i;
    # ``apply`` starts from the A_1 | A_2 | ... | count axis order.
    perm_in = tuple(w1 - p for p in a_cat) + (0,)
    perm_out = (0,) + tuple(1 + b_cat.index(w2 - 1 - i) for i in range(w2))
    tables = tuple(_cut_table(Mk) for Mk in blocks)
    return _Transfer(perm_in, perm_out, tables, (_bits(w1) @ Wa).T, (_bits(w2) @ Wb).T)


@dataclass(frozen=True)
class _Tables:
    """What a sweep reads: shared by every pin, and shipped to workers."""

    C: int
    intras: list[np.ndarray]  # per layer: intra-layer edges cut by each mask
    cnts: list[np.ndarray]  # per layer: counted nodes on the S side of each mask
    transfers: list[_Transfer]  # layer l -> l + 1 (mod L when cyclic)


def _tables(net: Network, layers: list[np.ndarray], cyclic: bool, counted: np.ndarray) -> _Tables:
    intra_pairs, inter_pairs = _classify_edges(net, layers, cyclic)
    widths = [len(nodes) for nodes in layers]
    is_counted = np.zeros(net.num_nodes, dtype=np.int64)
    is_counted[counted] = 1
    return _Tables(
        len(counted),
        [_intra_cost(p, w) for p, w in zip(intra_pairs, widths)],
        [_bits(len(nodes)) @ is_counted[nodes] for nodes in layers],
        [_transfer(p, widths[l], widths[(l + 1) % len(widths)]) for l, p in enumerate(inter_pairs)],
    )


def _forward(tabs: _Tables, pin: int | None) -> list[np.ndarray]:
    """Value tables ``f_l[c, m]`` of one sweep (``pin`` fixes layer 0's mask): the
    minimum cost of layers ``0..l`` with layer ``l`` on mask ``m`` and ``c``
    counted nodes in ``S``.  Only the live counts ``lo..hi`` are finite."""
    C, cnt, intra = tabs.C, tabs.cnts[0], tabs.intras[0]
    masks = np.arange(len(cnt)) if pin is None else np.array([pin])
    f = np.full((C + 1, len(cnt)), _INF, dtype=np.int64)
    f[cnt[masks], masks] = intra[masks]
    lo, hi = int(cnt[masks].min()), int(cnt[masks].max())
    fs = [f]
    for tr, cnt, intra in zip(tabs.transfers, tabs.cnts[1:], tabs.intras[1:]):
        k = int(cnt.max())
        pad = np.full((k, len(cnt)), _INF, dtype=np.int64)
        # Row r of g holds count lo + r - k; count lo + i of mask m is row i + k - cnt[m].
        g = np.concatenate([pad, tr.apply(f[lo:hi + 1]), pad])
        n = hi - lo + 1 + k
        f = np.full((C + 1, len(cnt)), _INF, dtype=np.int64)
        f[lo:lo + n] = g[np.arange(k, n + k)[:, None] - cnt, np.arange(len(cnt))] + intra
        hi += k
        fs.append(f)
    return fs


def _fold(tabs: _Tables, fs: list[np.ndarray], pin: int | None, best: np.ndarray,
          witness_masks: list[np.ndarray] | None = None) -> None:
    """Fold a finished sweep into ``best``; backtrack witnesses of improved counts."""
    total = fs[-1]
    if pin is not None:
        total = total + tabs.transfers[-1].column(np.array([pin]))[:, 0]
    arg = total.argmin(axis=1)
    vals = total[np.arange(len(total)), arg]
    improved = np.flatnonzero(vals < best)
    best[improved] = vals[improved]
    if witness_masks is None or improved.size == 0:
        return
    cs, ms = improved, arg[improved]
    path = [ms]
    for l in range(len(fs) - 1, 0, -1):
        cs = cs - tabs.cnts[l][ms]
        ms = (fs[l - 1][cs] + tabs.transfers[l - 1].column(ms).T).argmin(axis=1)
        path.append(ms)
    for c, masks in zip(improved.tolist(), np.stack(path[::-1], axis=1)):
        witness_masks[c] = masks


@dataclass(frozen=True)
class LayeredProfile:
    """Exact minimum-capacity profile computed by the layered DP.

    ``values[c]`` is the minimum cut capacity over side assignments with
    exactly ``c`` counted nodes in ``S``; :meth:`witness` reconstructs an
    optimal cut for any ``c``.

    ``complete`` is ``False`` when a budget expired before every pin of a
    cyclic sweep was examined; finite ``values`` entries are then valid
    upper bounds (minima over the pins actually swept), not certified
    minima.
    """

    network: Network
    layers: list[np.ndarray]
    cyclic: bool
    counted: np.ndarray
    values: np.ndarray
    _witness_masks: list[np.ndarray]  # per count: optimal mask per layer, or empty
    complete: bool = True

    def bisection_width(self) -> int:
        """Minimum capacity over cuts bisecting the counted set."""
        m = len(self.counted)
        return int(min(self.values[m // 2], self.values[(m + 1) // 2]))

    def witness(self, c: int) -> Cut:
        """An optimal cut with exactly ``c`` counted nodes in ``S``."""
        masks = self._witness_masks[c]
        if masks.size == 0:
            raise ValueError(f"no cut realizes count {c}")
        side = np.zeros(self.network.num_nodes, dtype=bool)
        for nodes, m in zip(self.layers, masks.tolist()):
            side[nodes] = (m >> np.arange(len(nodes))) & 1
        cut = Cut(self.network, side)
        if cut.capacity != self.values[c]:  # survives ``python -O``, unlike assert
            raise RuntimeError(f"witness cuts {cut.capacity} edges, profile says {self.values[c]}")
        return cut

    def min_bisection(self) -> Cut:
        """An optimal bisection of the counted set."""
        m = len(self.counted)
        lo, hi = m // 2, (m + 1) // 2
        c = lo if self.values[lo] <= self.values[hi] else hi
        return self.witness(c)


def layered_cut_profile(
    net: Network,
    layers: list[np.ndarray] | None = None,
    cyclic: bool | None = None,
    counted: np.ndarray | None = None,
    max_width: int = 12,
    with_witnesses: bool = True,
    budget: Budget | None = None,
) -> LayeredProfile:
    """Exact cut profile of a layered network.

    Parameters
    ----------
    net:
        The network.  When ``layers``/``cyclic`` are omitted the network must
        provide ``layers()`` and ``cyclic`` itself (butterflies, CCC, MOS and
        Beneš networks all do).
    counted:
        Node indices of the counted set; defaults to all nodes.
    max_width:
        Safety bound on the layer width ``w`` (state space is ``2^w``).
    with_witnesses:
        Also reconstruct one optimal cut per achievable count.
    budget:
        Optional budget, polled before the sweep and (for cyclic
        layerings) before each of the ``2^{w_0}`` pins; on expiry the
        best-so-far profile is returned with ``complete=False``.
    """
    if layers is None:
        layers = net.layers()  # type: ignore[attr-defined]
    if cyclic is None:
        cyclic = bool(net.cyclic)  # type: ignore[attr-defined]
    widths = [len(l) for l in layers]
    if max(widths) > max_width:
        raise ValueError(f"layer width {max(widths)} exceeds max_width={max_width}; "
                         f"the DP state space 2^{max(widths)} is too large")
    if counted is None:
        counted = np.arange(net.num_nodes, dtype=np.int64)
    counted = np.asarray(counted, dtype=np.int64)
    C = len(counted)

    best = np.full(C + 1, _INF, dtype=np.int64)
    witness_masks: list[np.ndarray] = [np.empty(0, dtype=np.int64) for _ in range(C + 1)]
    # One sweep touches every (mask, count) state of every layer.
    states_per_sweep = sum((1 << w) * (C + 1) for w in widths)
    complete = True
    with trace("cuts.layered_dp", network=net.name, layers=len(layers),
               width=max(widths), cyclic=cyclic):
        tabs = _tables(net, layers, cyclic, counted)
        # repro-lint: disable=RL008 -- each pin iteration is one vectorized min-plus sweep over all layer states (the contract's unit of work); the exponential pin count is inherent to the cyclic closure, and the parallel sweep chunks this same loop across workers
        for pin in range(1 << widths[0]) if cyclic else [None]:
            if budget is not None and budget.expired():
                incr("cuts.layered_dp.budget_expiries")
                complete = False
                break
            _fold(tabs, _forward(tabs, pin), pin, best,
                  witness_masks if with_witnesses else None)
            incr("cuts.layered_dp.sweeps")
            if cyclic:
                incr("cuts.layered_dp.pins")
            incr("cuts.layered_dp.states_expanded", states_per_sweep)

    return LayeredProfile(net, layers, cyclic, counted, best, witness_masks, complete)


def layered_bisection_width(net: Network, **kwargs) -> int:
    """Exact ``BW(G)`` of a layered network."""
    return layered_cut_profile(net, with_witnesses=False, **kwargs).bisection_width()


def layered_min_bisection(net: Network, **kwargs) -> Cut:
    """An exact minimum bisection of a layered network."""
    return layered_cut_profile(net, **kwargs).min_bisection()


def layered_u_bisection_width(net: Network, u_set: np.ndarray, **kwargs) -> int:
    """Exact ``BW(G, U)``: minimum capacity over cuts bisecting ``U``."""
    u_set = np.asarray(u_set, dtype=np.int64)
    return layered_cut_profile(net, counted=u_set, with_witnesses=False, **kwargs).bisection_width()
