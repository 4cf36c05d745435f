"""Run manifests: one atomically-written JSON artifact per traced run.

A manifest is the machine-readable evidence of one solver run: what was
asked (command, seed, budget), on what (git revision, Python/NumPy
versions, platform), what happened (degradation tier chosen, every span,
every counter), and what came out (the certified interval).  Benchmarks
embed a manifest *stub* — the environment block alone — in their JSON
results so a committed number always names the toolchain that produced it.

The file format is versioned and validated structurally by
:func:`validate_manifest`, a hand-rolled zero-dependency checker that
mirrors :data:`MANIFEST_SCHEMA` (a JSON-Schema document kept for CI and
external consumers).  Writes follow the repo's atomic write-rename
discipline: a sibling temp file then ``os.replace``, so a crash mid-write
never leaves a torn manifest.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

from .collector import Collector

__all__ = [
    "MANIFEST_KIND",
    "MANIFEST_VERSION",
    "MANIFEST_SCHEMA",
    "capture_environment",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "validate_manifest",
]

MANIFEST_KIND = "repro-obs-manifest"
MANIFEST_VERSION = 1

#: JSON Schema (draft-07 subset) for the manifest format; CI validates
#: against :func:`validate_manifest`, which implements exactly this.
MANIFEST_SCHEMA: dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro.obs run manifest",
    "type": "object",
    "required": ["kind", "version", "environment", "spans", "counters"],
    "properties": {
        "kind": {"const": MANIFEST_KIND},
        "version": {"const": MANIFEST_VERSION},
        "command": {"type": ["array", "null"], "items": {"type": "string"}},
        "seed": {"type": ["integer", "null"]},
        "tier": {"type": ["string", "null"]},
        "budget": {"type": ["object", "null"]},
        "result": {"type": ["object", "null"]},
        "environment": {
            "type": "object",
            "required": ["python"],
            "properties": {
                "python": {"type": "string"},
                "numpy": {"type": ["string", "null"]},
                "platform": {"type": "string"},
                "git_rev": {"type": ["string", "null"]},
            },
        },
        "spans": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "start", "duration", "depth"],
                "properties": {
                    "name": {"type": "string"},
                    "start": {"type": "number"},
                    "duration": {"type": "number", "minimum": 0},
                    "parent": {"type": ["string", "null"]},
                    "depth": {"type": "integer", "minimum": 0},
                    "attrs": {"type": "object"},
                },
            },
        },
        "counters": {"type": "object", "additionalProperties": {"type": "integer"}},
        "gauges": {"type": "object", "additionalProperties": {"type": "number"}},
        "notes": {"type": "object"},
    },
}


def _git_rev() -> str | None:
    """The repo's HEAD commit, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def capture_environment() -> dict[str, Any]:
    """The reproducibility block: interpreter, libraries, platform, rev."""
    try:
        import numpy

        numpy_version = str(numpy.__version__)
    except Exception:  # pragma: no cover - numpy is normally present
        numpy_version = None
    return {
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "argv0": os.path.basename(sys.argv[0]) if sys.argv else None,
        "git_rev": _git_rev(),
    }


def build_manifest(
    collector: Collector,
    *,
    command: list[str] | None = None,
    seed: int | None = None,
    budget: dict[str, Any] | None = None,
    tier: str | None = None,
    result: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the manifest dict for one collected run.

    ``tier`` defaults to the collector's ``winning_tier`` note, which
    :func:`repro.core.fallback.solve_with_fallback` records.
    """
    snap = collector.snapshot()
    if tier is None:
        tier = snap["notes"].get("winning_tier")
    return {
        "kind": MANIFEST_KIND,
        "version": MANIFEST_VERSION,
        "command": command,
        "seed": seed,
        "tier": tier,
        "budget": budget,
        "result": result,
        "environment": capture_environment(),
        "spans": snap["spans"],
        "counters": snap["counters"],
        "gauges": snap["gauges"],
        "notes": snap["notes"],
    }


def write_manifest(path: str | Path, manifest: dict[str, Any]) -> Path:
    """Atomically write ``manifest`` as JSON; returns the final path."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    tmp.write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )
    os.replace(tmp, path)
    return path


def load_manifest(path: str | Path) -> dict[str, Any]:
    """Read a manifest file; raises ``ValueError`` on torn/alien JSON."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"manifest {path} is not a JSON object")
    return data


def _expect(problems: list[str], cond: bool, message: str) -> bool:
    if not cond:
        problems.append(message)
    return cond


def validate_manifest(data: Any) -> list[str]:
    """Structural validation against :data:`MANIFEST_SCHEMA`.

    Returns a list of problems; an empty list means the manifest is
    schema-valid.  Implemented by hand so validation needs no third-party
    JSON-Schema engine.
    """
    problems: list[str] = []
    if not _expect(problems, isinstance(data, dict), "manifest is not an object"):
        return problems
    _expect(problems, data.get("kind") == MANIFEST_KIND,
            f"kind is {data.get('kind')!r}, expected {MANIFEST_KIND!r}")
    _expect(problems, data.get("version") == MANIFEST_VERSION,
            f"version is {data.get('version')!r}, expected {MANIFEST_VERSION}")
    env = data.get("environment")
    if _expect(problems, isinstance(env, dict), "environment missing or not an object"):
        _expect(problems, isinstance(env.get("python"), str),
                "environment.python missing or not a string")
    tier = data.get("tier")
    _expect(problems, tier is None or isinstance(tier, str),
            "tier must be a string or null")

    spans = data.get("spans")
    if _expect(problems, isinstance(spans, list), "spans missing or not an array"):
        for i, span in enumerate(spans):
            if not _expect(problems, isinstance(span, dict), f"spans[{i}] not an object"):
                continue
            _expect(problems, isinstance(span.get("name"), str),
                    f"spans[{i}].name missing or not a string")
            for field in ("start", "duration"):
                _expect(problems,
                        isinstance(span.get(field), (int, float))
                        and not isinstance(span.get(field), bool),
                        f"spans[{i}].{field} missing or not a number")
            dur = span.get("duration")
            if isinstance(dur, (int, float)) and not isinstance(dur, bool):
                _expect(problems, dur >= 0, f"spans[{i}].duration is negative")
            depth = span.get("depth")
            _expect(problems,
                    isinstance(depth, int) and not isinstance(depth, bool) and depth >= 0,
                    f"spans[{i}].depth missing or not a non-negative integer")

    counters = data.get("counters")
    if _expect(problems, isinstance(counters, dict), "counters missing or not an object"):
        for name, value in counters.items():
            _expect(problems,
                    isinstance(value, int) and not isinstance(value, bool),
                    f"counters[{name!r}] is not an integer")
    gauges = data.get("gauges", {})
    if _expect(problems, isinstance(gauges, dict), "gauges is not an object"):
        for name, value in gauges.items():
            _expect(problems,
                    isinstance(value, (int, float)) and not isinstance(value, bool),
                    f"gauges[{name!r}] is not a number")

    return problems
