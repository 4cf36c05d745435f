"""The exact frontier: cold library solves and the CLI, cache bypassed.

Each instance is solved by ``solve_with_fallback`` with no cache, as a
user of the library would on a first call.  The shared machine the
benchmark was tuned on changes speed in bursts of about a second, so the
repeats of an instance are spread over :data:`ROUNDS` rounds instead of
running back to back.  An instance's first solve sets how many repeats
it gets: enough for about :data:`TIMED_S` of solving (less for the
solves reported only per layer), at least :data:`MIN_REPS` and at most
:data:`MAX_REPS`; the median is reported.  After an instance's solves in
a round that took at least :data:`SAMPLE_AFTER_S`, the machine-speed
reference is sampled, so that its samples follow where the time went.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import fallback
from repro.cuts.branch_and_bound import bb_min_bisection
from repro.topology.base import Network
from repro.verify.checker import check_certificate
from repro.verify.serialize import load_certificate

import tracing
from speed import SpeedReference
from tracing import Tracer
from workloads import PINNED_WIDTHS

ROUNDS = 4
TIMED_S = 3.0
MAX_REPS = 24
#: The long tier-1 solves run more than their time budget allows: a
#: single CCC8 solve per run spread 0.27 over ten runs.
MIN_REPS = {"w8": 2, "ccc8": 2}
#: Solves too noisy on the tuning machine to carry a bound (spread up to
#: 0.33 over ten runs): branch and bound and the heuristics run many small
#: NumPy calls, which its speed bursts hit hardest.  They are reported
#: per layer only, from a smaller time budget.
PER_LAYER_SOLVES = ("rr32", "b64")
PER_LAYER_TIMED_S = 1.0
SAMPLE_AFTER_S = 1.0
_CLI_TIMEOUT_S = 120.0


@dataclass
class Solve:
    label: str
    net: Network
    reps: int = 1
    seconds: list[float] = field(default_factory=list)
    intervals: list[tuple[int, int]] = field(default_factory=list)
    tiers: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def median_s(self) -> float:
        return statistics.median(self.seconds)

    def solve(self, tracer: Tracer | None) -> None:
        t0 = time.perf_counter()
        with tracing.span(tracer, "cascade"):
            cert = fallback.solve_with_fallback(self.net)
        self.seconds.append(time.perf_counter() - t0)
        report = check_certificate(self.net, cert)
        if not report.ok:
            self.problems += list(report.problems)
        self.intervals.append((int(cert.lower), int(cert.upper)))
        self.tiers.append(cert.upper_evidence.split()[0])


def solve_round(solves: list[Solve], rnd: int, tracer: Tracer | None,
                speed: SpeedReference) -> None:
    """Round ``rnd`` of :data:`ROUNDS`: repeat ``i`` of a solve runs in round
    ``i % ROUNDS``; the first solve of each instance sets its repeat count."""
    for rec in solves:
        done = len(rec.seconds)
        if rnd == 0:
            rec.solve(tracer)
            budget = PER_LAYER_TIMED_S if rec.label in PER_LAYER_SOLVES else TIMED_S
            rec.reps = min(MAX_REPS, max(MIN_REPS.get(rec.label, 1),
                                         math.ceil(budget / rec.seconds[0])))
        for _ in range(rnd or ROUNDS, rec.reps, ROUNDS):
            rec.solve(tracer)
        if sum(rec.seconds[done:]) >= SAMPLE_AFTER_S:
            speed.sample()


def check_answers(solves: list[Solve]) -> list[str]:
    """Wrong answers among the frontier solves (run outside the timed part)."""
    wrong = []
    for rec in solves:
        wrong += [f"{rec.label}: {p}" for p in rec.problems]
        if len(set(rec.intervals)) != 1:
            wrong.append(f"{rec.label}: repeated solves disagree {sorted(set(rec.intervals))}")
        lo, hi = rec.intervals[0]
        if rec.label in PINNED_WIDTHS and (lo, hi) != (PINNED_WIDTHS[rec.label],) * 2:
            wrong.append(f"{rec.label}: [{lo}, {hi}] but the paper proves "
                         f"{PINNED_WIDTHS[rec.label]}")
        if rec.label.startswith("rr") and lo != hi:
            wrong.append(f"{rec.label}: not solved exactly: [{lo}, {hi}]")
        if rec.label == "rr22":
            bb = bb_min_bisection(rec.net).capacity
            if bb != lo:
                wrong.append(f"rr22: cascade says {lo}, branch and bound says {bb}")
    return wrong


@dataclass
class CliSolve:
    """``repro-butterfly solve bn 8 --no-cache`` as a user runs it."""

    seconds: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def median_s(self) -> float:
        return statistics.median(self.seconds)

    def run(self, env: dict[str, str], workdir: Path) -> None:
        cert_path = workdir / "cli-b8.json"
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "repro", "solve", "bn", "8", "--no-cache",
             "--certificate", str(cert_path)],
            env=env, capture_output=True, text=True, timeout=_CLI_TIMEOUT_S,
        )
        self.seconds.append(time.perf_counter() - t0)
        if done.returncode != 0 or not done.stdout.startswith("BW(B8) = 8 "):
            self.problems.append(f"cli: exit {done.returncode}: {done.stdout[:120]!r}")
            return
        net, fields = load_certificate(cert_path)
        report = check_certificate(net, fields)
        if not report.ok or (fields["lower"], fields["upper"]) != (8, 8):
            self.problems.append(f"cli: certificate rejected: {report.problems}")


def cli_import_s(env: dict[str, str]) -> float:
    """Median seconds of ``import repro.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    times = [
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True,
                             timeout=_CLI_TIMEOUT_S).stdout)
        for _ in range(ROUNDS)
    ]
    return statistics.median(times)
