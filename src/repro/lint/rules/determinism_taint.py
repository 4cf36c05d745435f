"""RL011 determinism-sanitizer: nondeterminism must not reach certificates.

The differential fuzzer, the ``repro-certificate/1`` checker and the
solver cache all assume bit-identical replays: the same instance yields
the same certificate bytes, the same cache key, the same canonical
fingerprint.  One unseeded ``default_rng()``, one ``time.time()`` folded
into a payload, one ``list({...})`` whose order leaks into a fingerprint
— and certificates stop comparing equal across runs or across workers,
which is how a parallel merge silently corrupts results.

This is interprocedural taint tracking over the analysis substrate
(:mod:`repro.lint.analysis`).  Sources (``taint_sources`` config) are
unseeded RNG constructors, module-level RNG draws, wall-clock reads and
entropy calls — plus set-iteration order, recognized structurally
(``list(set(...))``, ``for x in {...}``; ``sorted(...)`` is the
cleanser; dict iteration is insertion-ordered and deliberately exempt).
Sinks (``taint_sinks``) are certificate serialization, the fuzz-corpus
writers, canonical fingerprints, and the cache's ``put_*`` methods.
Taint flows through assignments, containers, external calls (an
``rng.integers(...)`` is as nondeterministic as ``rng``), repro-internal
returns, constructor arguments, and parameter passthrough across any
number of call boundaries: the finding lands on the call site where the
tainted value starts its journey into the sink, with the source witness
and the sink location named in the message.

Error severity: a nondeterministic certificate is not a style problem,
it is a wrong answer waiting for a second run. Seed the RNG, pass
timestamps in from the edge, or keep the value out of the payload.
"""

from __future__ import annotations

from typing import Iterator

from ..analysis.project import ensure_analysis
from ..findings import Finding, Severity
from ..model import LintContext
from ..registry import Rule, register

__all__ = ["DeterminismTaintRule"]


@register
class DeterminismTaintRule(Rule):
    rule_id = "RL011"
    name = "determinism-sanitizer"
    description = (
        "unseeded RNGs, wall-clock reads and set-iteration order must not "
        "flow into certificate serialization, cache keys or canonical "
        "fingerprints — determinism is the replay contract"
    )

    def check_project(self, ctx: LintContext) -> Iterator[Finding]:
        analysis = ensure_analysis(ctx)
        for v in analysis.determinism_violations():
            source = v["source"]
            origin = (
                "set-iteration order"
                if source == "set-order" else f"{source}()"
            )
            yield Finding(
                v["path"], v["lineno"], v["col"], self.rule_id,
                f"nondeterministic value from {origin} ({v['source_at']}) "
                f"flows into {v['sink']}() ({v['sink_at']}) — seed it, "
                f"sort it, or keep it out of the replayable payload",
                Severity.ERROR,
            )
