"""A one-shot worker-crash token for the supervised-pool tests.

A test arms the token (:func:`arm_crash_token`); the first pool worker
that reaches :func:`maybe_crash` consumes it atomically and SIGKILLs
itself, simulating an OOM-killed process *once*.  The retried task finds
the token gone and completes, which is exactly the recover-on-retry
behavior the supervised pool must exhibit.  The token records the PID of
the process that armed it, and :func:`maybe_crash` never kills that
process: under the ``fork`` start method serial degradation runs the same
task function in the parent, so without the guard a pool failure could
make the test harness consume its own token and die.
"""

import multiprocessing
import os
import signal
from pathlib import Path


def arm_crash_token(path: str | Path) -> Path:
    """Create the one-shot crash token at ``path`` and return it.

    The token body records the arming PID; :func:`maybe_crash` refuses to
    kill that process.
    """
    token = Path(path)
    token.parent.mkdir(parents=True, exist_ok=True)
    token.write_text(f"crash once armed-by={os.getpid()}\n", encoding="utf-8")
    return token


def _armer_pid(text: str) -> int | None:
    """The PID recorded by :func:`arm_crash_token`, or ``None``."""
    for word in text.split():
        if word.startswith("armed-by="):
            try:
                return int(word.partition("=")[2])
            except ValueError:
                return None
    return None


def maybe_crash(path: str | Path | None) -> None:
    """SIGKILL the current process iff it wins the race for the token.

    ``os.unlink`` is the atomic claim: exactly one process consumes the
    token and dies; everyone else (including the retry of the killed
    task) proceeds normally.  The arming process returns without
    claiming.  A ``None`` path is a no-op.
    """
    if path is None:
        return
    token = Path(path)
    try:
        text = token.read_text(encoding="utf-8")
    except OSError:
        return
    if _armer_pid(text) == os.getpid():
        return
    try:
        os.unlink(token)
    except FileNotFoundError:
        return
    os.kill(os.getpid(), signal.SIGKILL)


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
