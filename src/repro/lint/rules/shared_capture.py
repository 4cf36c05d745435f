"""RL012 shared-capture: pool tasks must not close over mutated state.

``supervised_map`` pickles the task callable into worker processes.  A
closure that captures a list, dict or array which the parent keeps
mutating *looks* like shared state but is not: each worker sees a copy
frozen at submission time, the parent's later mutations never arrive,
and — worse — under the pool's serial-degradation fallback the same
closure suddenly *does* share state, so results differ between the
parallel and serial paths.  That divergence breaks serve's pooled
solves and the parallel lint phase, and it reproduces only under load,
never in a unit test.

The extraction pass (:mod:`repro.lint.analysis.summaries`) performs a
closure-capture escape analysis at every call to a configured pool
function (``pool_submit_functions``): if the submitted callable is a
lambda or a locally defined function, its free variables are
intersected with the names the enclosing function mutates (subscript /
attribute stores, ``+=`` rebinding, mutating method calls like
``append``/``update``).  A non-empty intersection is a finding.
Module-level task functions are always clean — they have no closure,
which is the recommended shape (pass state through arguments, merge
the returned results in the parent).

Advisory (warning) severity: the repo is clean.
"""

from __future__ import annotations

from typing import Iterator

from ..analysis.project import ensure_analysis
from ..findings import Finding, Severity
from ..model import LintContext
from ..registry import Rule, register

__all__ = ["SharedCaptureRule"]


@register
class SharedCaptureRule(Rule):
    rule_id = "RL012"
    name = "shared-capture"
    description = (
        "callables submitted to the worker pool must not close over "
        "mutable state the parent keeps mutating — workers see a pickled "
        "copy, and parallel vs. serial runs silently diverge"
    )

    def check_project(self, ctx: LintContext) -> Iterator[Finding]:
        analysis = ensure_analysis(ctx)
        for v in analysis.capture_violations():
            captured = ", ".join(v["captured"])
            yield Finding(
                v["path"], v["lineno"], v["col"], self.rule_id,
                f"task '{v['task']}' submitted to {v['pool']} closes over "
                f"mutated state ({captured}) — workers get a pickled copy; "
                f"pass it as an argument or merge the returned results instead",
                Severity.WARNING,
            )
