"""Cold-start guard: ``solve`` and ``serve`` import only the code they run.

Every CLI process and every server start pays for its imports, and with no
bytecode cache each ``repro`` module is compiled from source each time.
These checks pin the import rules of ``docs/perf.md`` ("Cold start"):
scipy loads only inside the spectral, Kernighan–Lin, diameter and
connected-components entry points; ``repro`` and ``repro.core`` resolve
their re-exports on first use; ``repro.dist`` loads only for ``--shards``.
Each check runs in a fresh interpreter, because the test process itself
has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Modules a cache-free CLI solve and a server import must never load.
_FORBIDDEN = ("scipy", "repro.dist", "repro.core.bisection", "repro.core.theorems")

_SCRIPT = r"""
import contextlib, io, json, sys

from repro import cli

with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["solve", "bn", "4", "--no-cache"])
import repro.serve.server

report = {
    "code": code,
    "stdout": out.getvalue(),
    "loaded": [name for name in %r if name in sys.modules],
}

from repro.cuts import kernighan_lin_bisection, spectral_bisection
from repro.topology import butterfly, diameter, wrapped_butterfly

b16 = butterfly(16)
spectral = spectral_bisection(b16)
kl = kernighan_lin_bisection(b16)
report["values"] = {
    "spectral": [spectral.capacity, spectral.s_size],
    "kl": [kl.capacity, kl.s_size],
    "diameter_b16": diameter(b16),
    "diameter_w8": diameter(wrapped_butterfly(8)),
}
report["scipy_after"] = "scipy" in sys.modules
print(json.dumps(report))
""" % (_FORBIDDEN,)


def _fresh_interpreter(script: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_solve_and_serve_import_only_what_they_run():
    report = _fresh_interpreter(_SCRIPT)
    assert report["code"] == 0
    assert "BW(B4)" in report["stdout"], report["stdout"]
    assert report["loaded"] == [], (
        f"cold start imported {report['loaded']}; see docs/perf.md, Cold start"
    )
    # The scipy-backed entry points still answer as before, loading scipy
    # on demand: B16 bisects at 16 = n (Theorem 2.20's upper bound), and
    # the diameters are 2 log n for B16 and floor(3 log n / 2) for W8.
    assert report["values"] == {
        "spectral": [16, 40],
        "kl": [16, 40],
        "diameter_b16": 8,
        "diameter_w8": 4,
    }
    assert report["scipy_after"] is True
