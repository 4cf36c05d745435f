"""The layered min-plus DP versus ground truth."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cuts import cut_profile, layered_cut_profile, layered_u_bisection_width
from repro.cuts import layered_dp
from repro.obs import collecting, trace
from repro.topology import (
    Network,
    benes,
    butterfly,
    cube_connected_cycles,
    mesh_of_stars,
    wrapped_butterfly,
)


def random_layered_network(rng, cyclic):
    """A random layered (multi)graph with optional intra-layer edges."""
    L = int(rng.integers(2, 5))
    widths = rng.integers(1, 5, size=L)
    layers = []
    start = 0
    for w in widths:
        layers.append(np.arange(start, start + w))
        start += w
    edges = []
    bound = L if cyclic else L - 1
    for l in range(bound):
        a, b = layers[l], layers[(l + 1) % L]
        for u in a:
            for v in b:
                if rng.random() < 0.5:
                    edges.append((int(u), int(v)))
    for l in range(L):
        a = layers[l]
        for i in range(len(a)):
            for j in range(i + 1, len(a)):
                if rng.random() < 0.3:
                    edges.append((int(a[i]), int(a[j])))
    if not edges:
        edges = [(int(layers[0][0]), int(layers[1][0]))]
    net = Network(range(start), edges, name="randlay")
    return net, layers


class TestAgainstEnumeration:
    @given(st.integers(0, 500), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_enumeration_on_random_layered(self, seed, cyclic):
        rng = np.random.default_rng(seed)
        net, layers = random_layered_network(rng, cyclic)
        dp = layered_cut_profile(net, layers=layers, cyclic=cyclic)
        enum = cut_profile(net)
        assert np.array_equal(dp.values, enum.values)

    def test_b4(self, b4):
        assert np.array_equal(
            layered_cut_profile(b4).values, cut_profile(b4).values
        )

    def test_w4_multigraph(self, w4):
        assert np.array_equal(
            layered_cut_profile(w4).values, cut_profile(w4).values
        )

    def test_ccc4_intra_layer_edges(self):
        ccc = cube_connected_cycles(4)
        assert np.array_equal(
            layered_cut_profile(ccc).values, cut_profile(ccc).values
        )

    def test_mos(self):
        mos = mesh_of_stars(2, 3)
        assert np.array_equal(
            layered_cut_profile(mos).values, cut_profile(mos).values
        )


class TestPaperValues:
    def test_bw_b8_exact(self, b8):
        assert layered_cut_profile(b8, with_witnesses=False).bisection_width() == 8

    def test_bw_w8_exact(self, w8):
        assert layered_cut_profile(w8, with_witnesses=False).bisection_width() == 8

    def test_bw_ccc8_exact(self, ccc8):
        assert layered_cut_profile(ccc8, with_witnesses=False).bisection_width() == 4

    def test_lemma31_io_bisections(self, b8):
        assert layered_u_bisection_width(b8, b8.inputs()) == 8
        assert layered_u_bisection_width(b8, b8.outputs()) == 8
        io = np.concatenate([b8.inputs(), b8.outputs()])
        assert layered_u_bisection_width(b8, io) == 8


class TestWitnesses:
    def test_witnesses_valid(self, b8):
        prof = layered_cut_profile(b8)
        for c in (0, 5, 16, 20, 32):
            cut = prof.witness(c)
            assert cut.s_size == c
            assert cut.capacity == prof.values[c]

    def test_min_bisection_witness(self, b4):
        cut = layered_cut_profile(b4).min_bisection()
        assert cut.is_bisection()
        assert cut.capacity == 4

    def test_cyclic_witnesses(self, w4):
        prof = layered_cut_profile(w4)
        for c in (1, 4, 6):
            cut = prof.witness(c)
            assert cut.s_size == c
            assert cut.capacity == prof.values[c]


class TestGuards:
    def test_width_limit(self, b16):
        with pytest.raises(ValueError, match="max_width"):
            layered_cut_profile(b16, max_width=12)

    def test_non_layered_edges_detected(self):
        net = Network(range(4), [(0, 3)])
        layers = [np.array([0]), np.array([1]), np.array([2]), np.array([3])]
        with pytest.raises(ValueError, match="not layered"):
            layered_cut_profile(net, layers=layers, cyclic=False)

    def test_incomplete_layers_detected(self, b4):
        with pytest.raises(ValueError, match="cover"):
            layered_cut_profile(b4, layers=[b4.level(0)], cyclic=False)


class TestCountedProfiles:
    """Counted (U-restricted) profiles against enumeration."""

    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_counted_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        net, layers = random_layered_network(rng, cyclic=bool(seed % 2))
        k = int(rng.integers(1, net.num_nodes + 1))
        counted = rng.choice(net.num_nodes, size=k, replace=False)
        dp = layered_cut_profile(
            net, layers=layers, cyclic=bool(seed % 2), counted=counted,
            with_witnesses=False,
        )
        enum = cut_profile(net, counted=counted)
        assert np.array_equal(dp.values, enum.values)

    def test_counted_witnesses(self, b4):
        counted = b4.inputs()
        prof = layered_cut_profile(b4, counted=counted)
        for c in range(len(counted) + 1):
            cut = prof.witness(c)
            assert cut.count_in(counted) == c
            assert cut.capacity == prof.values[c]

    def test_level_bisection_values(self, b8):
        """BW(B8, L_i) per level — the quantities of Lemma 2.12(1)."""
        vals = [
            layered_u_bisection_width(b8, b8.level(i)) for i in range(b8.lg + 1)
        ]
        bw = layered_cut_profile(b8, with_witnesses=False).bisection_width()
        assert min(vals) <= bw


def dense_reference(net, layers, cyclic, counted):
    """The unfactored DP: one dense ``2^w x 2^w`` min-plus product per
    (layer, count), with ``np.argmin`` parent tables.

    Returns ``(values, witness_masks)``; the factored DP must reproduce
    both bit for bit.
    """
    INF = 1 << 40
    L, C = len(layers), len(counted)
    widths = [len(nodes) for nodes in layers]
    masks = [np.arange(1 << w) for w in widths]
    where = {int(v): (l, p) for l, nodes in enumerate(layers) for p, v in enumerate(nodes)}
    intra = [np.zeros(1 << w, dtype=np.int64) for w in widths]
    T = [
        np.zeros((1 << widths[l], 1 << widths[(l + 1) % L]), dtype=np.int64)
        for l in range(L if cyclic else L - 1)
    ]
    for u, v in np.asarray(net.edges).tolist():
        (lu, pu), (lv, pv) = where[u], where[v]
        if lu == lv:
            intra[lu] += ((masks[lu] >> pu) ^ (masks[lu] >> pv)) & 1
            continue
        forward = (lu + 1) % L == lv if cyclic else lu + 1 == lv  # wins in a 2-cycle
        if not forward:
            (lu, pu), (lv, pv) = (lv, pv), (lu, pu)
        T[lu] += ((masks[lu] >> pu) & 1)[:, None] ^ ((masks[lv] >> pv) & 1)[None, :]
    is_counted = np.zeros(net.num_nodes, dtype=np.int64)
    is_counted[counted] = 1
    cnt = [
        sum(((m >> p) & 1) * is_counted[v] for p, v in enumerate(nodes))
        for m, nodes in zip(masks, layers)
    ]
    best = np.full(C + 1, INF, dtype=np.int64)
    witness = [np.empty(0, dtype=np.int64) for _ in range(C + 1)]
    for pin in range(1 << widths[0]) if cyclic else [None]:
        f = np.full((1 << widths[0], C + 1), INF, dtype=np.int64)
        rows = masks[0] if pin is None else np.array([pin])
        f[rows, cnt[0][rows]] = intra[0][rows]
        parents = [None]
        for l in range(1, L):
            g = np.full((1 << widths[l], C + 1), INF, dtype=np.int64)
            par = np.full(g.shape, -1, dtype=np.int64)
            for c in range(C + 1):
                if not (f[:, c] < INF).any():
                    continue
                stacked = f[:, c][:, None] + T[l - 1]
                arg = np.argmin(stacked, axis=0)
                base = stacked[arg, masks[l]]
                tgt = c + cnt[l]
                ok = (tgt <= C) & (base < INF)
                g[masks[l][ok], tgt[ok]] = base[ok] + intra[l][ok]
                par[masks[l][ok], tgt[ok]] = arg[ok]
            f = g
            parents.append(par)
        total = f + T[-1][:, pin][:, None] if cyclic and L > 1 else f
        for c in range(C + 1):
            m = int(np.argmin(total[:, c]))
            if total[m, c] >= best[c]:
                continue
            best[c] = total[m, c]
            path, cc = [m], c
            for l in range(L - 1, 0, -1):
                prev = int(parents[l][m, cc])
                cc -= int(cnt[l][m])
                m = prev
                path.append(m)
            witness[c] = np.array(path[::-1], dtype=np.int64)
    return best, witness


def assert_bit_identical(net, layers=None, cyclic=None, counted=None):
    if layers is None:
        layers = net.layers() if hasattr(net, "layers") else [net.level(l) for l in range(net.num_levels)]
    if cyclic is None:
        cyclic = bool(getattr(net, "cyclic", False))
    if counted is None:
        counted = np.arange(net.num_nodes)
    prof = layered_cut_profile(net, layers=layers, cyclic=cyclic, counted=counted)
    values, witness = dense_reference(net, layers, cyclic, counted)
    assert np.array_equal(prof.values, values)
    for c, (got, want) in enumerate(zip(prof._witness_masks, witness)):
        assert np.array_equal(got, want), f"witness masks differ at count {c}"
        if want.size:
            assert prof.witness(c).capacity == values[c]


@st.composite
def layered_multigraphs(draw):
    """Layered multigraphs: widths 1-4, intra-layer edges, repeated edges,
    nodes left without inter-layer edges, and a random counted subset."""
    cyclic = draw(st.booleans())
    widths = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    starts = np.cumsum([0] + widths)
    layers = [np.arange(starts[l], starts[l + 1]) for l in range(len(widths))]
    L = len(layers)
    pairs = []
    for l in range(L if cyclic else L - 1):
        pairs += [(int(u), int(v)) for u in layers[l] for v in layers[(l + 1) % L]]
    for nodes in layers:
        pairs += [(int(u), int(v)) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
    multiplicity = draw(st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, multiplicity) for _ in range(k)]
    if not edges:
        edges = [pairs[0]]
    n = int(starts[-1])
    counted = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return Network(range(n), edges, name="multilay"), layers, cyclic, np.array(counted)


class TestBitIdenticalToDenseSweep:
    """The factored transfer and backtracked witnesses against the dense
    per-count sweep with argmin parents."""

    @given(layered_multigraphs())
    @settings(max_examples=80, deadline=None)
    def test_random_layered_multigraphs(self, case):
        net, layers, cyclic, counted = case
        assert_bit_identical(net, layers, cyclic, counted)

    @pytest.mark.parametrize("make", [
        lambda: butterfly(2), lambda: butterfly(4), lambda: butterfly(8),
        lambda: wrapped_butterfly(4), lambda: cube_connected_cycles(4),
        lambda: mesh_of_stars(2, 3), lambda: mesh_of_stars(3, 3), lambda: benes(2),
    ], ids=["B2", "B4", "B8", "W4", "CCC4", "MOS2x3", "MOS3x3", "Benes2"])
    def test_families(self, make):
        assert_bit_identical(make())

    def test_counted_inputs_of_b8(self, b8):
        assert_bit_identical(b8, counted=b8.inputs())

    @pytest.mark.parametrize("cyclic", [False, True])
    def test_width_one_layers(self, cyclic):
        # A path (or cycle) of five single-node layers plus a doubled edge.
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 2)] + [(4, 0)] * cyclic
        net = Network(range(5), edges, name="chain")
        assert_bit_identical(net, [np.array([v]) for v in range(5)], cyclic)

    @pytest.mark.parametrize("cyclic", [False, True])
    def test_nodes_without_inter_layer_edges(self, cyclic):
        # Nodes 2 and 5 touch only intra-layer edges; node 8 is isolated.
        edges = [(0, 3), (1, 3), (1, 4), (2, 1), (5, 4), (3, 6), (4, 7), (6, 7)]
        edges += [(7, 0)] * cyclic
        net = Network(range(9), edges, name="sparse")
        layers = [np.arange(0, 3), np.arange(3, 6), np.arange(6, 9)]
        assert_bit_identical(net, layers, cyclic)

    def test_two_layer_cycle(self):
        # Both orientations of the two layers are consecutive mod 2.
        edges = [(0, 2), (1, 3), (2, 1), (3, 0), (0, 3), (0, 1)]
        net = Network(range(4), edges, name="two-cycle")
        assert_bit_identical(net, [np.arange(0, 2), np.arange(2, 4)], True)

    @pytest.mark.parametrize("cap", [layered_dp._TEMP_ELEMS, 4], ids=["whole", "sliced"])
    def test_dense_transition_is_one_component(self, cap, monkeypatch):
        # Complete bipartite transitions: the single-component case.  A tiny
        # temporary cap forces the component to be reduced in slices.
        monkeypatch.setattr(layered_dp, "_TEMP_ELEMS", cap)
        layers = [np.arange(0, 3), np.arange(3, 6), np.arange(6, 8)]
        edges = [(int(u), int(v)) for a, b in zip(layers, layers[1:]) for u in a for v in b]
        net = Network(range(8), edges, name="dense")
        assert_bit_identical(net, layers, False)


class TestWitnessGuard:
    def test_mismatch_raises_under_python_O(self, tmp_path):
        """The capacity check is not an ``assert``: ``python -O`` keeps it."""
        script = tmp_path / "mismatch.py"
        script.write_text(textwrap.dedent("""
            import numpy as np
            from repro.cuts.layered_dp import LayeredProfile
            from repro.topology import Network

            net = Network(range(2), [(0, 1)], name="edge")
            layers = [np.array([0]), np.array([1])]
            # Count 1 is realized by a cut of capacity 1, not 0.
            prof = LayeredProfile(
                net, layers, False, np.arange(2), np.array([0, 0, 0]),
                [np.array([0, 0]), np.array([1, 0]), np.array([1, 1])],
            )
            try:
                prof.witness(1)
            except RuntimeError as exc:
                print("raised:", exc)
        """))
        src = Path(layered_dp.__file__).resolve().parents[2]
        out = subprocess.run(
            [sys.executable, "-O", str(script)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, check=True,
        )
        assert out.stdout.startswith("raised:"), out.stdout + out.stderr


class TestTraceAttribution:
    def test_tables_are_built_inside_the_dp_span(self, b4, monkeypatch):
        """Building the transfer tables is the DP tier's own work."""
        seen = []
        build = layered_dp._tables

        def recording(*args, **kwargs):
            seen.append(col.open_spans[-1]["name"])
            return build(*args, **kwargs)

        monkeypatch.setattr(layered_dp, "_tables", recording)
        with collecting() as col, trace("solve.tier2.layered_dp"):
            layered_cut_profile(b4)
        assert seen == ["cuts.layered_dp"]
