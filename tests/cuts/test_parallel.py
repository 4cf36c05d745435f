"""Process-parallel cyclic DP."""

import numpy as np
import pytest

from repro.cuts import layered_cut_profile
from repro.cuts.parallel import parallel_cyclic_profile
from repro.topology import cube_connected_cycles, wrapped_butterfly


class TestCorrectness:
    def test_w4_matches_serial(self, w4):
        serial = layered_cut_profile(w4, with_witnesses=False).values
        par = parallel_cyclic_profile(w4, workers=2)
        assert np.array_equal(serial, par)

    def test_ccc4_matches_serial(self):
        ccc = cube_connected_cycles(4)
        serial = layered_cut_profile(ccc, with_witnesses=False).values
        par = parallel_cyclic_profile(ccc, workers=3)
        assert np.array_equal(serial, par)

    def test_single_worker_path(self, w4):
        serial = layered_cut_profile(w4, with_witnesses=False).values
        par = parallel_cyclic_profile(w4, workers=1)
        assert np.array_equal(serial, par)

    def test_counted_sets(self, w4):
        counted = w4.level(0)
        serial = layered_cut_profile(
            w4, counted=counted, with_witnesses=False
        ).values
        par = parallel_cyclic_profile(w4, counted=counted, workers=2)
        assert np.array_equal(serial, par)

    def test_w8_matches_serial(self, w8):
        serial = layered_cut_profile(w8, with_witnesses=False).values
        par = parallel_cyclic_profile(w8, workers=4)
        assert np.array_equal(serial, par)
        assert int(min(par[12], par[12])) == 8  # BW(W8) = n


class TestGuards:
    def test_rejects_acyclic(self, b4):
        with pytest.raises(ValueError, match="cyclic"):
            parallel_cyclic_profile(b4)

    def test_width_limit(self):
        w16 = wrapped_butterfly(16)
        with pytest.raises(ValueError, match="max_width"):
            parallel_cyclic_profile(w16)


class _PollClock:
    """Each read advances one second; budgets expire deterministically."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def _no_leaked_children(timeout=5.0):
    import multiprocessing
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return False


class TestFaultTolerance:
    def test_sigkilled_worker_recovers_by_retry(self, w4, tmp_path):
        """Acceptance: a worker SIGKILLs itself mid-sweep; the supervised
        pool detects the lost pin range by timeout, retries it, and the
        profile still equals the serial one exactly."""
        from repro.resilience import RetryPolicy
        from repro.resilience.faults import arm_crash_token

        token = arm_crash_token(tmp_path / "crash")
        serial = layered_cut_profile(w4, with_witnesses=False).values
        status = {}
        par = parallel_cyclic_profile(
            w4, workers=2,
            fault_token=str(token),
            policy=RetryPolicy(task_timeout=1.0, max_retries=2, backoff=0.05),
            status=status,
        )
        assert np.array_equal(serial, par)
        assert status["complete"]
        assert not token.exists()  # exactly one worker consumed it and died
        report = status["report"]
        assert report.timeouts >= 1 or report.serial_tasks >= 1
        assert _no_leaked_children()

    def test_budget_expiry_returns_partial_with_status(self, w4):
        from repro.resilience import Budget

        status = {}
        par = parallel_cyclic_profile(
            w4, workers=1, budget=Budget(3.5, clock=_PollClock()),
            status=status,
        )
        assert not status["complete"]
        assert 0 < status["pins_done"] < status["total_pins"]
        # Whatever was swept is a valid upper bound on the serial profile.
        serial = layered_cut_profile(w4, with_witnesses=False).values
        assert np.all(par >= serial)


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_bit_identical(self, w4, tmp_path):
        """Acceptance: checkpointed sweep killed by budget, then resumed
        without one, is bit-identical to the uninterrupted run."""
        from repro.resilience import Budget

        ck = tmp_path / "pins.json"
        status = {}
        parallel_cyclic_profile(
            w4, workers=1, budget=Budget(3.5, clock=_PollClock()),
            checkpoint=ck, status=status,
        )
        assert not status["complete"]
        assert ck.exists()

        resumed_status = {}
        resumed = parallel_cyclic_profile(
            w4, workers=1, checkpoint=ck, status=resumed_status,
        )
        assert resumed_status["complete"]
        serial = layered_cut_profile(w4, with_witnesses=False).values
        assert np.array_equal(resumed, serial)
        # The resumed run only swept the ranges the first run left undone.
        assert resumed_status["report"].total < status["total_pins"]
