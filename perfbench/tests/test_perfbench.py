"""The benchmark's own tests: seeded inputs, metric names, span arithmetic.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from frontier import CliSolve, Solve
from serving import Request
from tracing import Tracer, layer_table, root_time

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    w = workloads.WORKLOADS[name]
    assert workloads.frontier_specs(7) == workloads.frontier_specs(7)
    assert workloads.schedule(w, 7, 3.0) == workloads.schedule(w, 7, 3.0)


def test_other_seed_changes_random_instances():
    a, b = dict(workloads.frontier_specs(1)), dict(workloads.frontier_specs(2))
    assert a["rr22"]["edges"] != b["rr22"]["edges"]
    # RR(32,3) is a fixed draw on purpose (see workloads.RR32_GRAPH_SEED).
    assert a["rr32"] == b["rr32"]
    cold = workloads.WORKLOADS["serve_cold"]
    win1 = [spec["edge_digest"] for _, spec in workloads.schedule(cold, 1, 2.0).window]
    win2 = [spec["edge_digest"] for _, spec in workloads.schedule(cold, 2, 2.0).window]
    assert not set(win1) & set(win2)
    hot = workloads.WORKLOADS["serve_hot"]
    assert workloads.schedule(hot, 1, 5.0).window != workloads.schedule(hot, 2, 5.0).window


def test_schedule_shape():
    cold = workloads.schedule(workloads.WORKLOADS["serve_cold"], 3, 2.0)
    dues = [due for due, _ in cold.window]
    assert dues == sorted(dues) and len(dues) == 20
    digests = [s["edge_digest"] for s in cold.warmup + [s for _, s in cold.window] + cold.probe]
    assert len(digests) == len(set(digests)), "every cold request is a distinct instance"
    hot = workloads.schedule(workloads.WORKLOADS["serve_hot"], 3, 2.0)
    assert {json.dumps(s, sort_keys=True) for _, s in hot.window} <= {
        json.dumps(s, sort_keys=True) for s in workloads.HOT_POPULATION}


def _fake_pass(workload) -> run.Pass:
    def req(i: int, tier: str) -> Request:
        t = float(i)
        return Request({}, job=f"job-{i:06d}-0123456789", due=t, post_start=t + 0.001,
                       post_end=t + 0.002, wait_end=t + 0.004, end=t + 0.005,
                       status={"tier": tier}, body="{}")

    p = run.Pass(workload)
    p.setup_s = [1.0, 1.1, 1.2]
    p.solves = [Solve(label, None, seconds=[0.5], intervals=[(1, 1)], tiers=["tier-1"])
                for label, _ in workloads.frontier_specs(0)]
    p.cli = CliSolve([0.7])
    p.frontier_wall_s = 10.0
    p.window_parts = [[req(i, "tier-0") for i in range(k, k + 10)] for k in (0, 10, 20, 30)]
    p.probe_parts = [([req(i, "tier-0") for i in range(2)], 0.5)] * 4
    p.window_cpu_s = [0.2] * 4
    p.rss_warm_kb, p.proc_kb = 900, {"VmHWM": 2048, "VmRSS": 1000}
    p.client_spans = [
        {"id": 1, "parent": None, "name": "cascade", "start": 0.0, "end": 2.0, "attrs": {}},
        {"id": 2, "parent": 1, "name": "tier1.enumerate", "start": 0.5, "end": 1.5,
         "attrs": {"nodes": 24}},
    ]
    p.server_spans = [
        {"id": 1, "parent": None, "name": "canonical", "start": 3.0011, "end": 3.0012,
         "attrs": {"site": "queue", "digest": "0123456789abcdef"}},
        {"id": 2, "parent": None, "name": "serve.solve_job", "start": 3.003, "end": 3.004,
         "attrs": {"digest": "0123456789abcdef"}},
    ]
    return p


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_metric_names_match_benchmark_json(name):
    p = _fake_pass(workloads.WORKLOADS[name])
    e2e = run.end_to_end(p)
    assert {k: u for k, (_, u) in e2e.items()} == _declared("end_to_end")
    p.scale = 0.5
    scaled = run.end_to_end(p)
    assert scaled["setup_s"][0] == pytest.approx(0.55)
    assert scaled["solve_s.b8"][0] == pytest.approx(0.25)
    assert scaled["peak_rss_mb"] == e2e["peak_rss_mb"]
    p.scale = 1.0
    layers = run.per_layer(p, p, 0.5)
    assert layers["latency.p50_ms"][0] == pytest.approx(5.0)
    assert layers["serve.capacity_rps"][0] == pytest.approx(4.0)
    assert layers["serve.cpu_ms_per_req"][0] == pytest.approx(20.0)
    assert {k: u for k, (_, u) in layers.items()} == _declared("per_layer")
    assert layers["queue.wait.p50_ms"][0] == pytest.approx(1.8)
    assert layers["trace.overhead_ratio"][0] == 1.0


def test_benchmark_json_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == 0.25 > max(b for n, b in bounds.items() if n != "setup_s")


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
    table = layer_table(tracer.spans)
    assert table["inner"]["calls"] == 2 and table["outer"]["calls"] == 1
    total = sum(row["self_s"] for row in table.values())
    assert total == pytest.approx(root_time(tracer.spans))
    assert table["outer"]["self_s"] == pytest.approx(
        table["outer"]["total_s"] - table["inner"]["total_s"])


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
