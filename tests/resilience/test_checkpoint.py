"""Checkpoint store atomicity/fingerprinting and range-ledger bookkeeping."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.resilience import CheckpointStore, RangeLedger


class TestStore:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json")
        store.save("run-1", {"completed": [[0, 4]], "best": [1, 2]})
        assert store.load("run-1") == {"completed": [[0, 4]], "best": [1, 2]}

    def test_key_mismatch_reads_as_no_checkpoint(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json")
        store.save("run-1", {"x": 1})
        assert store.load("run-2") is None

    def test_missing_file_reads_as_no_checkpoint(self, tmp_path):
        assert CheckpointStore(tmp_path / "absent.json").load("k") is None

    def test_corrupt_file_reads_as_no_checkpoint(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{ torn mid-wri")
        assert CheckpointStore(path).load("k") is None

    def test_wrong_version_reads_as_no_checkpoint(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"version": 99, "key": "k", "payload": {}}))
        assert CheckpointStore(path).load("k") is None

    def test_save_leaves_no_temp_file(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json")
        store.save("k", {"a": 1})
        store.save("k", {"a": 2})
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]
        assert store.load("k") == {"a": 2}

    def test_delete_is_idempotent(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json")
        store.save("k", {})
        store.delete()
        store.delete()
        assert store.load("k") is None


class TestRangeLedger:
    def test_adjacent_ranges_coalesce(self):
        ledger = RangeLedger()
        ledger.add(0, 4)
        ledger.add(4, 8)
        assert ledger.to_list() == [[0, 8]]
        assert ledger.total == 8

    def test_overlap_and_out_of_order_merge(self):
        ledger = RangeLedger()
        ledger.add(8, 12)
        ledger.add(0, 5)
        ledger.add(3, 9)
        assert ledger.to_list() == [[0, 12]]

    def test_disjoint_ranges_stay_separate(self):
        ledger = RangeLedger()
        ledger.add(0, 2)
        ledger.add(6, 8)
        assert ledger.to_list() == [[0, 2], [6, 8]]
        assert ledger.total == 4

    def test_covers_requires_a_single_containing_range(self):
        ledger = RangeLedger([(0, 4), (6, 10)])
        assert ledger.covers(0, 4)
        assert ledger.covers(7, 9)
        assert not ledger.covers(3, 7)  # spans the gap
        assert not ledger.covers(4, 6)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty or inverted"):
            RangeLedger().add(5, 5)

    def test_from_list_tolerates_garbage(self):
        assert RangeLedger.from_list(None).total == 0
        assert RangeLedger.from_list("nope").total == 0
        assert RangeLedger.from_list([[0, 3]]).total == 3

    def test_json_roundtrip(self):
        ledger = RangeLedger([(0, 2), (4, 8)])
        again = RangeLedger.from_list(json.loads(json.dumps(ledger.to_list())))
        assert again.to_list() == ledger.to_list()

    def test_numpy_ints_stay_json_serializable(self):
        # Shard bounds arrive as np.int64 from the sweep grids; the
        # ledger must coerce them or json.dumps chokes on the state file.
        ledger = RangeLedger()
        ledger.add(np.int64(0), np.int64(4))
        assert json.dumps(ledger.to_list()) == "[[0, 4]]"
        assert all(
            type(x) is int for pair in ledger.to_list() for x in pair
        )


# Adversarial interleavings of the ranges a resume replays: ranges added
# in any order, with arbitrary overlap and touching boundaries, must
# always coalesce to the same canonical form.
_ranges = st.lists(
    st.tuples(st.integers(0, 60), st.integers(1, 20)).map(
        lambda t: (t[0], t[0] + t[1])
    ),
    min_size=0, max_size=12,
)


class TestRangeLedgerProperties:
    @settings(max_examples=200, deadline=None)
    @given(_ranges, st.randoms(use_true_random=False))
    def test_insertion_order_never_matters(self, ranges, rnd):
        shuffled = list(ranges)
        rnd.shuffle(shuffled)
        a, b = RangeLedger(), RangeLedger()
        for r in ranges:
            a.add(*r)
        for r in shuffled:
            b.add(*r)
        assert a.to_list() == b.to_list()
        assert a.total == b.total

    @settings(max_examples=200, deadline=None)
    @given(_ranges)
    def test_canonical_form_is_sorted_disjoint_nonadjacent(self, ranges):
        ledger = RangeLedger()
        for r in ranges:
            ledger.add(*r)
        out = ledger.to_list()
        for lo, hi in out:
            assert lo < hi
        for (_, h1), (l2, _) in zip(out, out[1:]):
            assert h1 < l2  # touching ranges must have coalesced

    @settings(max_examples=200, deadline=None)
    @given(_ranges)
    def test_membership_matches_reference_set(self, ranges):
        ledger = RangeLedger()
        covered = set()
        for lo, hi in ranges:
            ledger.add(lo, hi)
            covered.update(range(lo, hi))
        assert ledger.total == len(covered)

    @settings(max_examples=100, deadline=None)
    @given(_ranges, st.integers(0, 80), st.integers(1, 20))
    def test_covers_iff_no_gaps(self, ranges, lo, width):
        hi = lo + width
        ledger = RangeLedger()
        covered = set()
        for r in ranges:
            ledger.add(*r)
            covered.update(range(*r))
        assert ledger.covers(lo, hi) == (set(range(lo, hi)) <= covered)
