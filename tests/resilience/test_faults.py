"""Fault injection: seeded topology faults and crash tokens."""

import multiprocessing
import signal

import numpy as np
import pytest

from repro.resilience import FaultInjector, arm_crash_token, maybe_crash


class TestDropEdges:
    def test_seeded_sequences_replay_identically(self, w4):
        a = FaultInjector(seed=3)
        b = FaultInjector(seed=3)
        for _ in range(3):
            na, nb = a.drop_edges(w4, rate=0.2), b.drop_edges(w4, rate=0.2)
            assert np.array_equal(na.edges, nb.edges)

    def test_different_seeds_differ(self, w4):
        na = FaultInjector(seed=0).drop_edges(w4, count=5)
        nb = FaultInjector(seed=1).drop_edges(w4, count=5)
        assert not np.array_equal(na.edges, nb.edges)

    def test_count_semantics(self, w4):
        net = FaultInjector().drop_edges(w4, count=3)
        assert net.num_edges == w4.num_edges - 3
        assert net.num_nodes == w4.num_nodes

    def test_rate_zero_is_a_copy_with_the_same_name(self, w4):
        net = FaultInjector().drop_edges(w4, rate=0.0)
        assert net.name == w4.name
        assert np.array_equal(net.edges, w4.edges)

    def test_surviving_edges_are_a_subset(self, w4):
        net = FaultInjector(seed=2).drop_edges(w4, rate=0.25)
        original = {tuple(e) for e in w4.edges.tolist()}
        assert all(tuple(e) in original for e in net.edges.tolist())

    def test_exactly_one_of_rate_or_count(self, w4):
        inj = FaultInjector()
        with pytest.raises(ValueError, match="exactly one"):
            inj.drop_edges(w4)
        with pytest.raises(ValueError, match="exactly one"):
            inj.drop_edges(w4, rate=0.1, count=2)

    def test_rate_out_of_range(self, w4):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultInjector().drop_edges(w4, rate=1.5)


class TestDropNodes:
    def test_node_count_shrinks(self, w4):
        net = FaultInjector(seed=5).drop_nodes(w4, count=2)
        assert net.num_nodes == w4.num_nodes - 2

    def test_surviving_labels_come_from_the_original(self, w4):
        net = FaultInjector(seed=5).drop_nodes(w4, count=2)
        assert set(net.labels) <= set(w4.labels)

    def test_rate_zero_keeps_everything(self, w4):
        net = FaultInjector().drop_nodes(w4, rate=0.0)
        assert net.num_nodes == w4.num_nodes
        assert net.name == w4.name


class TestCrashToken:
    def test_none_is_a_no_op(self):
        maybe_crash(None)  # must not kill the test process

    def test_missing_token_is_a_no_op(self, tmp_path):
        maybe_crash(tmp_path / "never-armed")

    def test_token_kills_exactly_once(self, tmp_path):
        token = arm_crash_token(tmp_path / "crash")
        p = multiprocessing.Process(target=maybe_crash, args=(str(token),))
        p.start()
        p.join(10)
        assert p.exitcode == -signal.SIGKILL
        assert not token.exists()
        # Second consumer finds the token gone and survives.
        q = multiprocessing.Process(target=maybe_crash, args=(str(token),))
        q.start()
        q.join(10)
        assert q.exitcode == 0

    def test_armer_is_immune_to_its_own_token(self, tmp_path):
        # Under fork, serial degradation can route the instrumented task
        # back into the arming process; the PID guard must keep it alive.
        token = arm_crash_token(tmp_path / "crash")
        maybe_crash(token)  # we armed it: must NOT kill this process
        assert token.exists()  # and must not consume it either
        # A forked child is not the armer and dies normally.
        p = multiprocessing.Process(target=maybe_crash, args=(str(token),))
        p.start()
        p.join(10)
        assert p.exitcode == -signal.SIGKILL
        assert not token.exists()
