"""The command-line interface."""

import json

import pytest

from repro.cli import main
from repro.obs import validate_manifest


class TestCLI:
    def test_info(self, capsys):
        assert main(["info", "8"]) == 0
        out = capsys.readouterr().out
        assert "B8" in out and "32 nodes" in out

    def test_info_wraparound(self, capsys):
        assert main(["info", "8", "--wraparound"]) == 0
        assert "W8" in capsys.readouterr().out

    def test_bisection(self, capsys):
        assert main(["bisection", "bn", "8"]) == 0
        assert "BW(B8) = 8" in capsys.readouterr().out

    def test_bisection_ccc(self, capsys):
        assert main(["bisection", "ccc", "8"]) == 0
        assert "BW(CCC8) = 4" in capsys.readouterr().out

    def test_expansion(self, capsys):
        assert main(["expansion", "wn", "8", "4"]) == 0
        assert "EE(W8, 4)" in capsys.readouterr().out

    def test_expansion_node(self, capsys):
        assert main(["expansion", "bn", "8", "4", "--node"]) == 0
        assert "NE(B8, 4)" in capsys.readouterr().out

    def test_folklore_plan_only(self, capsys):
        assert main(["folklore", "4096", "--plan-only"]) == 0
        out = capsys.readouterr().out
        assert "0.9375" in out

    def test_folklore_built(self, capsys):
        assert main(["folklore", "1024"]) == 0
        out = capsys.readouterr().out
        assert "built and verified" in out

    def test_claims_subset(self, capsys):
        assert main(["claims", "lemma-2.18", "lemma-2.1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2

    def test_claims_unknown_id(self, capsys):
        assert main(["claims", "lemma-9.9"]) == 1

    def test_solve_without_trace(self, capsys):
        assert main(["solve", "bn", "8"]) == 0
        assert "BW(B8) = 8" in capsys.readouterr().out


class TestSolveTrace:
    def test_trace_writes_schema_valid_manifest(self, capsys, tmp_path):
        path = tmp_path / "manifest.json"
        # "bn 3" is the dimension convenience: B8, 32 nodes, so tier-1
        # enumeration is skipped and the layered DP wins exactly.
        assert main(["solve", "bn", "3", "--trace", str(path)]) == 0
        assert "BW(B8) = 8" in capsys.readouterr().out
        data = json.loads(path.read_text())
        assert validate_manifest(data) == []
        assert data["tier"] == "tier-2"
        assert data["command"] == ["solve", "bn", "3"]
        assert data["result"]["exact"] is True
        # The acceptance bar: >= 3 distinct spans, >= 5 distinct counters.
        assert len({s["name"] for s in data["spans"]}) >= 3
        assert len(data["counters"]) >= 5

    def test_trace_records_budget(self, tmp_path):
        path = tmp_path / "manifest.json"
        assert main(["solve", "bn", "3", "--timeout", "30",
                     "--trace", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["budget"] == {"seconds": 30.0, "expired": False}

    def test_no_collector_leaks_after_traced_run(self, tmp_path):
        from repro import obs

        assert main(["solve", "bn", "3",
                     "--trace", str(tmp_path / "m.json")]) == 0
        assert not obs.enabled()


class TestStats:
    @pytest.fixture()
    def manifest_path(self, tmp_path):
        path = tmp_path / "manifest.json"
        assert main(["solve", "bn", "3", "--trace", str(path)]) == 0
        return path

    def test_pretty_print(self, capsys, manifest_path):
        capsys.readouterr()
        assert main(["stats", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "winning tier: tier-2" in out
        assert "solve.fallback" in out
        assert "cuts.layered_dp.sweeps" in out

    def test_json_dump_round_trips(self, capsys, manifest_path):
        capsys.readouterr()
        assert main(["stats", str(manifest_path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert validate_manifest(data) == []
        assert data["tier"] == "tier-2"

    def test_missing_file_fails(self, capsys, tmp_path):
        assert main(["stats", str(tmp_path / "absent.json")]) == 1
        assert "stats:" in capsys.readouterr().err

    def test_invalid_manifest_fails_with_problems(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "wrong", "version": 1}))
        assert main(["stats", str(path)]) == 1
        err = capsys.readouterr().err
        assert "invalid manifest" in err and "kind" in err


def _pool_enumerate(n):
    """Pool task for the timeline tests: a traced exhaustive sweep of Bn."""
    from repro.cuts.enumerate_exact import cut_profile
    from repro.topology import butterfly

    return cut_profile(butterfly(n)).bisection_width()


class TestTelemetryCLI:
    def _traced_run(self, tmp_path):
        """A multi-process timeline, merged the way ``serve --telemetry`` does.

        The parent shard holds a ``serve.run`` anchor span; two supervised
        pool workers journal their ``pool.task`` spans (each wrapping a
        traced B4 sweep) under it, and the shards merge into one
        ``timeline.json``.
        """
        from repro.obs import (
            ShardCollector, TraceContext, merge_shards, new_run_id,
            write_timeline,
        )
        from repro.resilience import supervised_map

        tele = tmp_path / "tele"
        tele.mkdir()
        run_id = new_run_id()
        parent = ShardCollector(
            tele / "server.jsonl", context=TraceContext(run_id),
            worker="parent",
        )
        with parent.span("serve.run") as anchor:
            parent.flush()
            widths = supervised_map(
                _pool_enumerate, [4, 4], workers=2,
                telemetry={
                    "dir": str(tele),
                    "context": TraceContext(run_id, anchor.id).to_wire(),
                },
            )
        parent.flush()
        write_timeline(
            tele / "timeline.json",
            merge_shards(sorted(tele.glob("*.jsonl")), run_id=run_id),
        )
        return widths, tele

    def test_stats_renders_timeline_and_exports(self, capsys, tmp_path):
        widths, tele = self._traced_run(tmp_path)
        assert widths == [4, 4]
        capsys.readouterr()
        timeline = str(tele / "timeline.json")
        assert main(["stats", timeline]) == 0
        out = capsys.readouterr().out
        assert "serve.run" in out and "pool.task" in out
        assert "critical path" in out

        om = tmp_path / "om.txt"
        flame = tmp_path / "flame.txt"
        # Export flags switch stats into quiet export mode (stderr notes).
        assert main([
            "stats", timeline,
            "--openmetrics", str(om), "--flame", str(flame),
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "openmetrics written" in captured.err
        om_text = om.read_text()
        assert om_text.endswith("# EOF\n")
        # Two B4 sweeps of 2^11 masks each, summed across the pool shards.
        assert "repro_cuts_enumerate_cuts_evaluated_total 4096" in om_text
        flame_text = flame.read_text()
        assert any(
            ln.startswith("serve.run;pool.task;cuts.enumerate ")
            for ln in flame_text.splitlines()
        )

    def test_stats_timeline_json_round_trips(self, capsys, tmp_path):
        widths, tele = self._traced_run(tmp_path)
        assert widths == [4, 4]
        capsys.readouterr()
        assert main(["stats", str(tele / "timeline.json"), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "repro-telemetry-timeline"

    def test_stats_rejects_invalid_timeline(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"kind": "repro-telemetry-timeline", "version": 1}
        ))
        assert main(["stats", str(path)]) == 1
        assert "invalid timeline" in capsys.readouterr().err


class TestMainModule:
    def test_python_dash_m(self):
        import subprocess, sys

        out = subprocess.run(
            [sys.executable, "-m", "repro", "bisection", "ccc", "8"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert "BW(CCC8) = 4" in out.stdout
