"""Run the unmodified ``repro-butterfly`` CLI with the span shims installed.

Usage: ``python perfbench/serve_traced.py SPANS_JSON serve [options]``.
The shims are patched in before the CLI starts the server; when the
server exits (SIGTERM drains it), every recorded span is written to
``SPANS_JSON``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro.cli import main as cli_main

    code = cli_main(argv[1:])
    out.write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
