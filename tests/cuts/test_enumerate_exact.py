"""Exhaustive exact cuts."""

import numpy as np
import pytest

from repro.cuts import Cut, cut_profile, min_bisection, min_u_bisection
from repro.obs import collecting
from repro.resilience import Budget
from repro.topology import Network, butterfly, complete_graph
from repro.topology.fabric import fat_tree


def path_graph(n):
    return Network(range(n), [(i, i + 1) for i in range(n - 1)], name=f"P{n}")


def cycle_graph(n):
    return Network(range(n), [(i, (i + 1) % n) for i in range(n)], name=f"C{n}")


class TestKnownValues:
    def test_path_profile(self):
        """A path of n nodes: any proper prefix cut costs 1."""
        prof = cut_profile(path_graph(6))
        assert prof.values.tolist() == [0, 1, 1, 1, 1, 1, 0]

    def test_cycle_bisection(self):
        assert cut_profile(cycle_graph(8)).bisection_width() == 2

    def test_complete_graph(self):
        prof = cut_profile(complete_graph(6))
        for k in range(7):
            assert prof.values[k] == k * (6 - k)

    def test_b4_bisection(self, b4):
        assert cut_profile(b4).bisection_width() == 4

    def test_multigraph(self):
        net = Network(range(4), [(0, 1), (0, 1), (1, 2), (2, 3)])
        prof = cut_profile(net)
        assert prof.values[1] == 1  # isolate node 3


class TestProfileInvariants:
    def test_symmetry(self, b4):
        prof = cut_profile(b4)
        assert np.array_equal(prof.values, prof.values[::-1])

    def test_endpoints_zero(self, b4):
        prof = cut_profile(b4)
        assert prof.values[0] == 0 and prof.values[-1] == 0

    def test_witnesses_realize_values(self, b4):
        prof = cut_profile(b4)
        for c in range(13):
            cut = prof.witness_cut(c)
            assert cut.capacity == prof.values[c]
            assert cut.s_size == c

    def test_size_limit(self):
        with pytest.raises(ValueError, match="limited"):
            cut_profile(complete_graph(29))


class TestUBisection:
    def test_counted_subset(self, b4):
        """Bisecting only the inputs of B4 costs n = 4 (Lemma 3.1)."""
        prof = cut_profile(b4, counted=b4.inputs())
        assert prof.bisection_width() == 4

    def test_min_u_bisection_witness(self, b4):
        cut = min_u_bisection(b4, b4.inputs())
        assert cut.bisects(b4.inputs())
        assert cut.capacity == 4

    def test_min_bisection_witness(self, b4):
        cut = min_bisection(b4)
        assert cut.is_bisection()
        assert cut.capacity == 4

    def test_counted_singleton(self):
        net = path_graph(5)
        prof = cut_profile(net, counted=np.array([2]))
        # Bisecting a single node means either side may hold it; the empty
        # cut qualifies.
        assert prof.bisection_width() == 0


class _PollClock:
    """Each read advances one second; budgets expire deterministically."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


class TestActionableSizeError:
    def test_message_names_the_limit_and_the_alternatives(self):
        with pytest.raises(ValueError) as exc:
            cut_profile(complete_graph(29))
        msg = str(exc.value)
        assert "28" in msg
        assert "layered_dp" in msg
        assert "branch_and_bound" in msg
        assert "heuristic" in msg


class TestBudgetedSweep:
    def test_expired_budget_yields_partial_not_raise(self):
        from repro.resilience import Budget

        prof = cut_profile(path_graph(10), budget=Budget(0))
        assert not prof.complete
        assert np.all(prof.values == np.iinfo(np.int64).max)

    def test_partial_entries_are_valid_upper_bounds(self):
        from repro.resilience import Budget

        net = path_graph(14)
        budget = Budget(3.5, clock=_PollClock())
        prof = cut_profile(net, budget=budget, batch_bits=8)
        full = cut_profile(net)
        assert not prof.complete
        sentinel = np.iinfo(np.int64).max
        examined = prof.values < sentinel
        assert examined.any()
        assert np.all(prof.values[examined] >= full.values[examined])
        for c in np.flatnonzero(examined):
            assert prof.witness_cut(int(c)).capacity == prof.values[c]

    def test_max_batch_bits_caps_the_batch(self):
        from repro.resilience import Budget

        # With 2-bit batches a 3-poll budget covers at most 8 assignments.
        budget = Budget(3.5, clock=_PollClock(), max_batch_bits=2)
        prof = cut_profile(path_graph(12), budget=budget)
        assert not prof.complete


class TestCheckpointResume:
    def test_interrupted_then_resumed_is_bit_identical(self, tmp_path):
        """Acceptance: kill mid-sweep via budget, resume, compare exactly."""
        from repro.resilience import Budget

        net = butterfly(4)  # 12 nodes, 2^11 assignments
        ck = tmp_path / "profile.json"
        budget = Budget(4.5, clock=_PollClock())
        partial = cut_profile(net, budget=budget, checkpoint=ck, batch_bits=6)
        assert not partial.complete
        assert ck.exists()

        resumed = cut_profile(net, checkpoint=ck, batch_bits=6)
        fresh = cut_profile(net, batch_bits=6)
        assert resumed.complete
        assert np.array_equal(resumed.values, fresh.values)
        assert np.array_equal(resumed.witnesses, fresh.witnesses)

    def test_resume_ignores_a_foreign_checkpoint(self, tmp_path):
        ck = tmp_path / "profile.json"
        cut_profile(path_graph(10), checkpoint=ck, batch_bits=4)
        # Different network, same file: fingerprint mismatch, fresh sweep.
        prof = cut_profile(cycle_graph(10), checkpoint=ck, batch_bits=4)
        assert prof.complete
        assert prof.bisection_width() == 2

    def test_completed_checkpoint_short_circuits(self, tmp_path):
        ck = tmp_path / "profile.json"
        net = path_graph(10)
        first = cut_profile(net, checkpoint=ck, batch_bits=4)
        again = cut_profile(net, checkpoint=ck, batch_bits=4)
        assert np.array_equal(first.values, again.values)
        assert np.array_equal(first.witnesses, again.witnesses)


class TestFingerprint:
    """The checkpoint/cache key must track wiring and the batch contract.

    Regression: the fingerprint once keyed only on name and node count, so
    two same-shaped networks with different wiring (or different counted
    masks) could resume each other's checkpoints.
    """

    def test_same_shape_different_wiring_differs(self):
        from repro.cuts.enumerate_exact import _fingerprint

        a = Network(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], name="G")
        b = Network(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], name="G")
        counted = np.arange(6)
        assert a.num_nodes == b.num_nodes and a.num_edges == b.num_edges
        assert _fingerprint(a, counted) != _fingerprint(b, counted)

    def test_counted_mask_is_keyed(self):
        from repro.cuts.enumerate_exact import _fingerprint

        net = path_graph(6)
        assert _fingerprint(net, np.arange(6)) != _fingerprint(
            net, np.arange(4)
        )

    def test_contract_version_is_keyed(self):
        from repro.cuts.autotune import BATCH_CONTRACT_VERSION
        from repro.cuts.enumerate_exact import _fingerprint

        fp = _fingerprint(path_graph(6), np.arange(6))
        assert f":v{BATCH_CONTRACT_VERSION}:" in fp

    def test_batch_size_is_not_keyed(self, tmp_path):
        """Differing batch grids share checkpoints (the fold is batch-free)."""
        ck = tmp_path / "profile.json"
        net = path_graph(12)
        cut_profile(net, checkpoint=ck, batch_bits=4)
        prof = cut_profile(net, checkpoint=ck, batch_bits=7)
        fresh = cut_profile(net)
        assert prof.complete
        assert np.array_equal(prof.values, fresh.values)
        assert np.array_equal(prof.witnesses, fresh.witnesses)


def reference_minima(net, counted, lo, hi):
    """Per-mask scan of ``[lo, hi)`` in pure Python: the kernel's oracle.

    Node ``n-1`` is pinned to S̄; per counted size the lowest achieving
    mask wins.  Returns the pre-fold ``(values, masks)`` lists.
    """
    edges = [(int(u), int(v)) for u, v in net.edges]
    counted = [int(v) for v in counted]
    values = [np.iinfo(np.int64).max] * (len(counted) + 1)
    masks = [0] * (len(counted) + 1)
    for mask in range(lo, hi):
        cap = sum(((mask >> u) ^ (mask >> v)) & 1 for u, v in edges)
        c = sum((mask >> v) & 1 for v in counted)
        if cap < values[c]:
            values[c], masks[c] = cap, mask
    return values, masks


def reference_profile(net, counted):
    """The whole sweep, then each entry takes its mirrored entry
    (complemented witness) when that is strictly smaller."""
    n = net.num_nodes
    values, masks = reference_minima(net, counted, 0, 1 << (n - 1))
    m = len(values) - 1
    full = (1 << n) - 1
    folded = [
        (values[m - c], masks[m - c] ^ full)
        if values[m - c] < values[c] else (values[c], masks[c])
        for c in range(m + 1)
    ]
    return [v for v, _ in folded], [w for _, w in folded]


def random_multigraph(n, edges, seed):
    """Seeded self-loop-free multigraph (parallel edges allowed)."""
    rng = np.random.default_rng(seed)
    pairs = []
    while n > 1 and len(pairs) < edges:
        u, v = (int(x) for x in rng.integers(n, size=2))
        if u != v:
            pairs.append((u, v))
    return Network(range(n), pairs, name=f"M{n}.{seed}")


def assert_matches_reference(prof, net, counted):
    values, witnesses = reference_profile(net, counted)
    assert prof.complete
    assert prof.values.tolist() == values
    assert [int(w) for w in prof.witnesses] == witnesses


class TestReferenceOracle:
    """The block kernel equals per-mask enumeration, witnesses included."""

    @pytest.mark.parametrize("batch_bits", [None, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 13, 17])
    def test_node_counts_around_the_split(self, n, batch_bits):
        # n = 1 and 2 leave k or h empty; 13 and 17 have both halves
        # under the default split and under a 3-bit cap.
        net = random_multigraph(n, 2 * n, seed=n)
        prof = cut_profile(net, batch_bits=batch_bits)
        assert_matches_reference(prof, net, np.arange(n))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_counted_subsets(self, seed):
        rng = np.random.default_rng(seed)
        net = random_multigraph(13, 30, seed=100 + seed)
        counted = np.sort(rng.choice(13, size=int(rng.integers(1, 13)),
                                     replace=False))
        prof = cut_profile(net, counted=counted)
        assert_matches_reference(prof, net, counted)

    def test_fat_tree_multi_edges(self):
        net = fat_tree(3)  # 15 nodes, doubling parallel-edge bundles
        assert len({tuple(e) for e in net.edges.tolist()}) < net.num_edges
        assert_matches_reference(cut_profile(net), net, np.arange(15))
        leaves = net.leaves()
        assert_matches_reference(
            cut_profile(net, counted=leaves), net, leaves
        )

    def test_heavy_multigraph(self):
        net = random_multigraph(11, 200, seed=7)
        assert_matches_reference(cut_profile(net), net, np.arange(11))


class TestShardsResumeBudget:
    """Cross-grid resumes and budget caps stay bit-identical."""

    def test_small_grid_checkpoint_resumes_under_default_blocks(self, tmp_path):
        net = random_multigraph(14, 28, seed=5)
        ck = tmp_path / "profile.json"
        partial = cut_profile(net, budget=Budget(6.5, clock=_PollClock()),
                              checkpoint=ck, batch_bits=6)
        assert not partial.complete
        resumed = cut_profile(net, checkpoint=ck)
        serial = cut_profile(net)
        assert resumed.complete
        np.testing.assert_array_equal(resumed.values, serial.values)
        np.testing.assert_array_equal(resumed.witnesses, serial.witnesses)

    def test_budget_cap_below_the_low_split(self):
        net = random_multigraph(13, 26, seed=9)
        bits = 3
        with collecting() as col:
            capped = cut_profile(net, budget=Budget(None, max_batch_bits=bits))
        span = next(s for s in col.spans if s["name"] == "cuts.enumerate")
        assert span["attrs"]["block_bits"] == bits
        assert span["attrs"]["low_bits"] <= bits
        batches = col.counters["cuts.enumerate.batches"]
        assert batches == (1 << 12) >> bits  # every block holds 2^bits masks
        assert col.counters["cuts.enumerate.cuts_evaluated"] == 1 << 12
        serial = cut_profile(net)
        np.testing.assert_array_equal(capped.values, serial.values)
        np.testing.assert_array_equal(capped.witnesses, serial.witnesses)
