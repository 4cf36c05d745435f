"""The repository benchmark: exact-frontier solves plus open-loop serving.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 6 --trace 0

A run of either workload, all measured from outside the program:

1. set-up, three times (median reported): build every input from the
   seed, make a fresh cache directory and start ``repro-butterfly serve``
   until it answers; the last server stays up;
2. four rounds, each of: cold library solves of the exact frontier (B8,
   W8, CCC8, RR(22,3), RR(32,3), B64) with the cache off, one
   ``repro-butterfly solve bn 8 --no-cache`` subprocess, a quarter of the
   open loop at the workload's rate (``--seconds`` in all), and a quarter
   of the closed-loop capacity probe;
3. SIGTERM to the server, then every answer is checked.

With ``--trace 0`` the last line is the JSON result with the end-to-end
metrics; with ``--trace 1`` the run is made twice, untraced and then
with span shims in this process and in the server, and the last line
carries the per-layer metrics.  See ``perfbench/README.md`` for the
metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 3
TIERS = ("tier-0", "tier-1", "tier-2", "tier-3", "tier-4")
#: Layers whose self time the traced run reports, per process.
FRONTIER_LAYERS = ("tier1.enumerate", "tier2.layered_dp", "tier3.bb",
                   "tier4.heuristics", "topology.build")
SERVER_LAYERS = ("tier1.enumerate", "verify.serialize", "topology.build")
COUNTED_LAYERS = ("verify.check", "canonical", "cache.get", "cache.put")


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """The order statistic with a ``1 - q`` share of the samples above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples beyond)``: the highest percentile with
    at least ten samples above it (the maximum below eleven samples)."""
    ordered = sorted(values)
    idx = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - 1 - idx


@dataclass
class Pass:
    """Everything one pass over a workload measured."""

    workload: Any
    setup_s: list[float] = field(default_factory=list)
    solves: list = field(default_factory=list)
    frontier_wall_s: float = 0.0
    cli: Any = None
    warmup: list = field(default_factory=list)
    window_parts: list = field(default_factory=list)  # one list per round
    window_cpu_s: list = field(default_factory=list)  # server CPU per round
    probe_parts: list = field(default_factory=list)  # (requests, seconds) per round
    phase_s: dict = field(default_factory=dict)
    rss_warm_kb: int = 0
    proc_kb: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    cache_bytes: int = 0
    server_exit: int = 0
    wrong: list = field(default_factory=list)
    client_spans: list = field(default_factory=list)
    server_spans: list = field(default_factory=list)
    scale: float = 1.0  # raw time -> time at the reference speed (speed.py)

    @property
    def window(self) -> list:
        return [r for part in self.window_parts for r in part]

    @property
    def probe(self) -> list:
        return [r for part, _ in self.probe_parts for r in part]

    @property
    def requests(self) -> list:
        return self.warmup + self.window + self.probe

    @property
    def attempted(self) -> int:
        return (sum(len(s.seconds) for s in self.solves) + len(self.cli.seconds)
                + len(self.requests) + 1)  # + 1: the server's clean exit

    @property
    def failed(self) -> int:
        return (sum(1 for r in self.requests if r.error) + (self.server_exit != 0)
                + len(self.wrong))

    def slo_misses(self) -> int:
        limit = self.workload.limit_ms / 1e3
        return sum(1 for r in self.window if r.error or r.latency_s > limit)

    def work_s(self) -> float:
        """Frontier wall time plus the summed latency of the timed window."""
        return self.frontier_wall_s + sum(r.latency_s for r in self.window)


# ---------------------------------------------------------------------- #
# One pass
# ---------------------------------------------------------------------- #
def _split(items: list, parts: int) -> list[list]:
    """``items`` cut into ``parts`` contiguous, nearly equal chunks."""
    bounds = [round(i * len(items) / parts) for i in range(parts + 1)]
    return [items[bounds[i]:bounds[i + 1]] for i in range(parts)]


def run_pass(workload, seed: int, seconds: float, work: Path, traced: bool) -> Pass:
    # Imported here, not at the top: they import repro, which main() first
    # checks for and puts on sys.path.
    import frontier
    import serving
    import tracing
    import verify_served
    import workloads
    from repro.verify.serialize import network_from_spec
    from speed import SpeedReference

    speed = SpeedReference()
    speed.sample()
    env = serving.child_env(SRC, work)
    tracer = tracing.Tracer() if traced else None
    undo = tracing.install(tracer) if traced else None
    spans_path = work / "server-spans.json" if traced else None
    res = Pass(workload)
    server = None
    started = time.perf_counter()
    try:
        for k in range(SETUP_REPS):
            t0 = time.perf_counter()
            with tracing.span(tracer, "topology.build"):
                nets = [(lbl, network_from_spec(s)) for lbl, s in
                        workloads.frontier_specs(seed)]
            plan = workloads.schedule(workload, seed, seconds)
            cache_dir = work / f"cache-{k}"
            cache_dir.mkdir()
            server = serving.ServerProcess(serving.server_argv(spans_path), work,
                                           cache_dir, env).start()
            res.setup_s.append(time.perf_counter() - t0)
            if k < SETUP_REPS - 1:
                server.stop()

        res.phase_s["set-up"] = time.perf_counter() - started
        client = server.client
        res.warmup = [serving.send(client, serving.Request(s)) for s in plan.warmup]
        res.rss_warm_kb = server.proc_status_kb()["VmRSS"]
        res.solves = [frontier.Solve(label, net) for label, net in nets]
        res.cli = frontier.CliSolve()
        windows = _split(plan.window, frontier.ROUNDS)
        probes = _split(plan.probe, frontier.ROUNDS)
        for rnd in range(frontier.ROUNDS):
            t0 = time.perf_counter()
            frontier.solve_round(res.solves, rnd, tracer, speed)
            res.cli.run(env, work)
            res.frontier_wall_s += time.perf_counter() - t0
            speed.sample()
            cpu = server.cpu_s()
            res.window_parts.append(serving.open_loop(client, windows[rnd]))
            res.window_cpu_s.append(server.cpu_s() - cpu)
            res.probe_parts.append(serving.closed_loop(client, probes[rnd]))
            speed.sample()
        res.phase_s["rounds"] = time.perf_counter() - started - res.phase_s["set-up"]
        res.proc_kb = server.proc_status_kb()
        res.counters = server.counters()
        res.server_exit = server.stop()
        res.cache_bytes = sum(p.stat().st_size for p in server.cache_dir.rglob("*")
                              if p.is_file())
    finally:
        if undo is not None:
            undo()
        if server is not None:
            server.stop()
    res.scale = speed.scale
    if tracer is not None:
        res.client_spans = tracer.spans
        res.server_spans = json.loads(spans_path.read_text(encoding="utf-8"))
    checked = time.perf_counter()
    res.wrong = (frontier.check_answers(res.solves) + res.cli.problems
                 + verify_served.wrong_answers(res.requests))
    res.phase_s["checks"] = time.perf_counter() - checked
    return res


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
def end_to_end(p: Pass) -> dict[str, tuple[float, str]]:
    """Times at the reference speed (see speed.py); memory as measured."""
    from frontier import PER_LAYER_SOLVES

    k = p.scale
    out = {"setup_s": (statistics.median(p.setup_s) * k, "s")}
    for s in p.solves:
        if s.label not in PER_LAYER_SOLVES:
            out[f"solve_s.{s.label}"] = (s.median_s * k, "s")
    out["cli_solve_s"] = (p.cli.median_s * k, "s")
    out["peak_rss_mb"] = (p.proc_kb["VmHWM"] / 1024.0, "MB")
    return out


def _queue_waits(p: Pass) -> list[float]:
    """Per window request: solve_job start minus the end of its enqueue.

    The enqueue is the ``canonical`` span ``JobQueue.submit`` opens for the
    request's digest inside its POST; deduplicated requests, which attach to
    a job already running, have no solve of their own and are skipped.
    """
    submits, solves = defaultdict(list), defaultdict(list)
    for s in p.server_spans:
        prefix = s["attrs"].get("digest", "")[:10]
        if s["name"] == "canonical" and s["attrs"].get("site") == "queue":
            submits[prefix].append(s)
        elif s["name"] == "serve.solve_job":
            solves[prefix].append(s["start"])
    waits = []
    for r in p.window:
        enq = [s["end"] for s in submits[r.digest_prefix]
               if r.post_start <= s["start"] <= r.post_end]
        starts = [t for t in solves[r.digest_prefix] if enq and t >= enq[0]]
        if starts:
            waits.append((min(starts) - enq[0]) * 1e3)
    return waits


def per_layer(p: Pass, base: Pass, cli_import: float) -> dict[str, tuple[float, str]]:
    from frontier import PER_LAYER_SOLVES
    from tracing import layer_table

    out: dict[str, tuple[float, str]] = {}
    for side, spans, layers in (("frontier", p.client_spans, FRONTIER_LAYERS),
                                ("serve", p.server_spans, SERVER_LAYERS)):
        table = layer_table(spans)

        def row(name: str, key: str) -> float:
            return table.get(name, {}).get(key, 0.0)

        for layer in layers:
            out[f"{side}.{layer}.self_s"] = (row(layer, "self_s"), "s")
        counted = COUNTED_LAYERS if side == "serve" else ("verify.check",)
        for layer in counted:
            out[f"{side}.{layer}.calls"] = (row(layer, "calls"), "count")
            out[f"{side}.{layer}.self_s"] = (row(layer, "self_s"), "s")
        out[f"{side}.cascade.unattributed_s"] = (row("cascade", "self_s"), "s")
    table = layer_table(p.client_spans)
    masks = sum(2 ** (s["attrs"]["nodes"] - 1) for s in p.client_spans
                if s["name"] == "tier1.enumerate")
    for s in p.solves:
        if s.label in PER_LAYER_SOLVES:
            out[f"frontier.solve_s.{s.label}"] = (s.median_s, "s")
    out["frontier.tier1.masks_per_s"] = (
        masks / table["tier1.enumerate"]["self_s"], "1/s")
    out["serve.solve_job.unattributed_s"] = (
        layer_table(p.server_spans).get("serve.solve_job", {}).get("self_s", 0.0), "s")
    won = {t: 0 for t in TIERS}
    for s in p.solves:
        for t in s.tiers:
            won[t] = won.get(t, 0) + 1
    for t in TIERS:
        out[f"frontier.cascade.tier_won.{t}"] = (won[t], "count")
    served = [r for r in p.window if not r.error]
    won = {t: sum(1 for r in served if r.tier == t) for t in TIERS}
    for t in TIERS:
        out[f"serve.cascade.tier_won.{t}"] = (won[t], "count")
    out["serve.cache.hit_ratio"] = (won["tier-0"] / max(1, len(served)), "ratio")
    out["serve.cache.dir_bytes"] = (p.cache_bytes, "bytes")
    for name in ("solves", "dedup_hits", "orbit_deferrals"):
        out[f"serve.{name}"] = (p.counters.get(f"repro_serve_{name}_total", 0.0), "count")
    out["serve.rss_growth_kb_per_req"] = (
        (p.proc_kb["VmRSS"] - p.rss_warm_kb) / (len(p.window) + len(p.probe)), "kB")
    out["http.post.p50_ms"] = (_p50([(r.post_end - r.post_start) * 1e3 for r in served]), "ms")
    out["http.wait.p50_ms"] = (_p50([(r.wait_end - r.post_end) * 1e3 for r in served]), "ms")
    out["http.result.p50_ms"] = (_p50([(r.end - r.wait_end) * 1e3 for r in served]), "ms")
    waits = _queue_waits(p)
    out["queue.wait.p50_ms"] = (_p50(waits), "ms")
    out["queue.wait.tail_ms"] = (tail(waits)[0] if waits else 0.0, "ms")
    out["loadgen.late.tail_ms"] = (
        tail([(r.post_start - r.due) * 1e3 for r in p.window])[0], "ms")
    lat = [r.latency_s * 1e3 for r in p.window]
    q = len(p.window_parts[-1])
    out["latency.p50_ms"] = (statistics.median(
        _p50([r.latency_s * 1e3 for r in part]) for part in p.window_parts), "ms")
    out["serve.cpu_ms_per_req"] = (statistics.median(
        cpu * 1e3 / len(part) for cpu, part in zip(p.window_cpu_s, p.window_parts)), "ms")
    out["serve.capacity_rps"] = (statistics.median(
        len(reqs) / seconds for reqs, seconds in p.probe_parts), "1/s")
    out["latency.p90_ms"] = (percentile(lat, 0.9), "ms")
    out["latency.tail_ms"] = (tail(lat)[0], "ms")
    out["latency.drift"] = (_p50(lat[-q:]) / _p50(lat[:len(p.window_parts[0])]), "ratio")
    out["cli.import_s"] = (cli_import, "s")
    out["trace.overhead_ratio"] = (
        p.work_s() * p.scale / (base.work_s() * base.scale), "ratio")
    out["bench.speed_scale"] = (p.scale, "ratio")
    out["error_ratio"] = (p.failed / p.attempted, "ratio")
    out["slo_miss_ratio"] = (p.slo_misses() / len(p.window), "ratio")
    return out


# ---------------------------------------------------------------------- #
# Report
# ---------------------------------------------------------------------- #
def describe(p: Pass) -> list[str]:
    import serving

    w = p.workload
    lines = [f"workload {w.name}: open loop at {w.rate_rps:g} rps from "
             f"{len(p.window)} requests, latency limit {w.limit_ms:g} ms",
             f"  raw figures below; end-to-end times are scaled to the "
             f"reference speed by {p.scale:.4f}"]
    for s in p.solves:
        lo, hi = s.intervals[0]
        lines.append(f"  {s.label:>5}: BW in [{lo}, {hi}] by {s.tiers[0]}, "
                     f"median {s.median_s:.4f} s over {len(s.seconds)} solves")
    lines.append(f"  cli solve bn 8: median {p.cli.median_s:.4f} s over "
                 f"{len(p.cli.seconds)} runs")
    lat = [r.latency_s * 1e3 for r in p.window]
    value, pct, beyond = tail(lat)
    served = [r for r in p.window if not r.error]
    hits = sum(1 for r in served if r.tier == "tier-0")
    lines += [
        f"  server CPU per window request {1e3 * sum(p.window_cpu_s) / len(lat):.3f} ms",
        f"  latency p50 {_p50(lat):.3f} ms, p90 {percentile(lat, 0.9):.3f} ms, "
        f"tail p{pct:.2f} {value:.3f} ms "
        f"({beyond} of {len(lat)} samples beyond)",
        f"  cache-hit share {hits / max(1, len(served)):.4f} ({hits} of "
        f"{len(served)} served window requests were tier-0 hits)",
        f"  capacity probe: {len(p.probe)} requests in "
        f"{sum(sec for _, sec in p.probe_parts):.3f} s from "
        f"{serving.SENDERS} closed-loop senders",
        f"  error_ratio {p.failed / p.attempted:.4f} ({p.failed} of {p.attempted}), "
        f"slo_miss_ratio {p.slo_misses() / len(p.window):.4f} "
        f"({p.slo_misses()} of {len(p.window)} over {w.limit_ms:g} ms or failed)",
    ]
    lines.append("  phases: " + ", ".join(f"{k} {v:.1f} s" for k, v in p.phase_s.items()))
    errors = sorted({r.error for r in p.requests if r.error})
    lines += [f"  request error: {e}" for e in errors[:5]]
    lines += [f"  WRONG: {x}" for x in p.wrong[:10]]
    if len(p.wrong) > 10:
        lines.append(f"  ... and {len(p.wrong) - 10} more wrong answers")
    return lines


def self_time_tables(p: Pass) -> list[str]:
    from tracing import layer_table, root_time

    lines = []
    for title, spans, covered, what in (
        ("frontier (this process)", p.client_spans,
         p.frontier_wall_s + sum(p.setup_s), "set-up + frontier"),
        ("server process", p.server_spans,
         sum(r.end - r.post_start for r in p.requests), "client request time"),
    ):
        table = layer_table(spans)
        lines.append(f"self time, {title}:")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"  {name:<22} {row['self_s']:10.4f} s  {int(row['calls']):7d} calls")
        lines.append(f"  {'unattributed':<22} {covered - root_time(spans):10.4f} s  "
                     f"(of {covered:.4f} s {what})")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import frontier
    import serving
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        (work / "untraced").mkdir(parents=True)
        base = run_pass(workload, args.seed, args.seconds, work / "untraced", False)
        lines = describe(base)
        passes = [base]
        if args.trace:
            (work / "traced").mkdir()
            traced = run_pass(workload, args.seed, args.seconds, work / "traced", True)
            passes.append(traced)
            lines += ["traced pass:"] + describe(traced)[1:] + self_time_tables(traced)
            cli_import = frontier.cli_import_s(serving.child_env(SRC, work))
            metrics = per_layer(traced, base, cli_import)
        else:
            metrics = end_to_end(base)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wrong = [w for p in passes for w in p.wrong]
    print("\n".join(lines))
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
