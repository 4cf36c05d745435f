"""Command-line interface: ``repro-butterfly`` (or ``python -m repro``).

Subcommands
-----------
``info N [--wraparound]``
    Structure census of the butterfly: nodes, degrees, diameter.
``bisection {bn,wn,ccc,torus,mesh,fattree,fbfly} N [--dims D]``
    Certified bisection width with provenance.  For the product families
    ``N`` is the side (torus/mesh), radix (fbfly) or depth (fattree) and
    ``--dims`` the number of dimensions (default 2).
``expansion {bn,wn} N K [--node]``
    Certified edge (default) or node expansion at set size ``K``.
``folklore N``
    The Theorem 2.20 construction: plan and, when feasible, a built and
    verified balanced bisection of ``Bn`` with capacity below ``n``.
``solve {bn,wn,ccc,torus,mesh,fattree,fbfly} N [--dims D] [--timeout S]
[--checkpoint PATH] [--trace PATH] [--cache DIR | --no-cache]
[--certificate PATH]``
    Certified ``BW`` interval by the degradation cascade
    (:func:`repro.core.fallback.solve_with_fallback`): exact solvers under
    a wall-clock budget, heuristics as fallback, always a valid bound.
    ``--trace`` activates :mod:`repro.obs` and writes a run manifest
    (spans, counters, winning tier, environment) to ``PATH``.
    ``--cache DIR`` memoizes results in a
    :class:`~repro.perf.cache.SolverCache` (default from the
    ``REPRO_CACHE_DIR`` environment variable); ``--no-cache`` disables it
    even when the variable is set.  ``--certificate PATH`` writes the
    resulting certificate (with its network spec and witness) as JSON for
    later independent re-checking with ``verify``.
``verify PATH``
    Re-check a ``solve --certificate`` JSON file (or a run manifest from
    ``solve --trace``) with the independent checker of
    :mod:`repro.verify`: first-principles witness recount, interval
    sanity, paper-claim inequalities.  Exits non-zero when verification
    fails.
``fuzz [--seed S] [--runs N] [--corpus DIR] [--trace PATH]``
    Seeded differential fuzz campaign (:mod:`repro.verify.fuzz`): random
    small instances through every applicable solver, cache-warm and
    cache-cold, all answers cross-checked and every witness re-verified.
    Failures are shrunk and saved to ``--corpus``; exits non-zero on any
    disagreement.
``cache {stats,clear} [--dir DIR]``
    Inspect or empty a solver cache directory.
``serve [--host H] [--port P] [--workers W] [--timeout S]
[--max-nodes N] [--cache DIR | --no-cache] [--telemetry DIR]
[--port-file PATH]``
    Serve certified solves over HTTP (:mod:`repro.serve`): ``POST
    /v1/solve`` takes a network spec and returns a job id, ``GET
    /v1/jobs/<id>`` polls it, ``GET /v1/results/<id>`` returns the
    ``repro-certificate/1`` JSON (``verify`` accepts it unchanged), and
    ``GET /metrics`` exposes live OpenMetrics.  In-flight requests
    dedupe by canonical fingerprint; ``--cache`` shares tier-0 results
    across requests and processes; ``--telemetry DIR`` journals the
    fleet timeline, merged to ``DIR/timeline.json`` on shutdown
    (SIGTERM/Ctrl-C).  See ``docs/serving.md``.
``stats PATH [--json] [--openmetrics PATH] [--flame PATH]``
    Validate and pretty-print (or re-emit as JSON) a run manifest written
    by ``solve --trace`` *or* a merged fleet timeline written by ``serve
    --telemetry``.  ``--openmetrics`` exports counters/gauges as a
    Prometheus text exposition; ``--flame`` exports the span tree as
    folded flame-graph stacks.
``claims [IDS...]``
    Check registered paper claims (all by default).
``lint [PATHS...]``
    Static analysis for the repo's paper-contract invariants
    (:mod:`repro.lint`; also installed standalone as ``repro-lint``).
"""

from __future__ import annotations

import argparse
import math
import sys

__all__ = ["main"]


def _cmd_info(args: argparse.Namespace) -> int:
    from .topology import (
        Butterfly, degree_census, diameter, expected_diameter,
    )

    bf = Butterfly(args.n, wraparound=args.wraparound)
    print(f"{bf.name}: {bf.num_nodes} nodes, {bf.num_edges} edges, "
          f"{bf.num_levels} levels of {bf.n}")
    print(f"degrees: {degree_census(bf)}")
    d = diameter(bf) if bf.num_nodes <= 1 << 14 else None
    print(f"diameter: {d if d is not None else '(skipped, large)'} "
          f"(paper: {expected_diameter(bf)})")
    return 0


#: Families whose CLI size argument is a per-dimension parameter; they
#: additionally honor ``--dims`` (torus/mesh side, fbfly radix).
_DIMS_FAMILIES = ("torus", "mesh", "fbfly")


def _family_network(family: str, n: int, dims: int = 2):
    """Build a pristine family instance for solve/verify commands.

    The paper indexes butterflies by their input count ``n`` (a power of
    two); as a convenience a non-power-of-two ``n`` is read as the
    dimension, so ``solve bn 3`` means the 3-dimensional butterfly B8.
    """
    from .topology import (
        butterfly, cube_connected_cycles, fat_tree, flattened_butterfly,
        mesh, torus, wrapped_butterfly,
    )
    from .topology.labels import is_power_of_two

    if family in ("bn", "wn") and not is_power_of_two(n):
        n = 1 << n
    if family == "torus":
        return torus(*(n,) * dims)
    if family == "mesh":
        return mesh(*(n,) * dims)
    if family == "fattree":
        return fat_tree(n)
    if family == "fbfly":
        return flattened_butterfly(n, dims)
    return {
        "bn": butterfly,
        "wn": wrapped_butterfly,
        "ccc": cube_connected_cycles,
    }[family](n)


def _cmd_bisection(args: argparse.Namespace) -> int:
    from .core.bisection import (
        butterfly_bisection_width, wrapped_bisection_width, ccc_bisection_width,
        torus_bisection_width, mesh_bisection_width, fat_tree_bisection_width,
        flattened_butterfly_bisection_width,
    )

    dims = getattr(args, "dims", 2)
    fn = {
        "bn": butterfly_bisection_width,
        "wn": wrapped_bisection_width,
        "ccc": ccc_bisection_width,
        "torus": lambda n: torus_bisection_width(n, dims),
        "mesh": lambda n: mesh_bisection_width(n, dims),
        "fattree": fat_tree_bisection_width,
        "fbfly": lambda n: flattened_butterfly_bisection_width(n, dims),
    }[args.family]
    print(fn(args.n))
    return 0


def _cmd_expansion(args: argparse.Namespace) -> int:
    from .core.expansion_api import edge_expansion, node_expansion
    from .topology import Butterfly

    bf = Butterfly(args.n, wraparound=args.family == "wn")
    fn = node_expansion if args.node else edge_expansion
    print(fn(bf, args.k))
    return 0


def _cmd_folklore(args: argparse.Namespace) -> int:
    from .cuts import butterfly_bisection_below_n

    plan, cut = butterfly_bisection_below_n(args.n, materialize=not args.plan_only)
    print(f"plan: n={plan.n} j={plan.j} a={plan.a} b={plan.b} "
          f"capacity={plan.capacity} ({plan.capacity_over_n:.4f} n)")
    print(f"asymptotic limit 2(sqrt2-1) = {2 * (math.sqrt(2) - 1):.4f}")
    if cut is not None:
        print(f"built and verified: |S| = {cut.s_size} = N/2, "
              f"capacity = {cut.capacity} < n = {plan.n}"
              if cut.capacity < plan.n else
              f"built and verified: capacity = {cut.capacity}")
    return 0


def _resolve_cache_dir(args: argparse.Namespace) -> str | None:
    """The cache root for ``solve``: flag beats env, ``--no-cache`` beats both."""
    import os

    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache", None) or os.environ.get("REPRO_CACHE_DIR") or None


def _cmd_solve(args: argparse.Namespace) -> int:
    from .core.fallback import solve_with_fallback
    from .resilience import Budget

    net = _family_network(args.family, args.n, getattr(args, "dims", 2))
    budget = Budget(args.timeout) if args.timeout is not None else None
    cache_dir = _resolve_cache_dir(args)
    if args.trace is None:
        cert = solve_with_fallback(net, budget=budget, checkpoint=args.checkpoint,
                                   cache=cache_dir)
        print(cert)
        _maybe_write_certificate(args, net, cert)
        return 0

    from . import obs

    collector = obs.Collector()
    with obs.collecting(collector):
        cert = solve_with_fallback(net, budget=budget, checkpoint=args.checkpoint,
                                   cache=cache_dir)
    manifest = obs.build_manifest(
        collector,
        command=["solve", args.family, str(args.n)] + (
            ["--dims", str(getattr(args, "dims", 2))]
            if args.family in _DIMS_FAMILIES else []
        ),
        budget={
            "seconds": args.timeout,
            "expired": budget.expired() if budget is not None else False,
        },
        result={
            "quantity": cert.quantity,
            "lower": cert.lower,
            "upper": cert.upper,
            "exact": cert.lower == cert.upper,
            "lower_evidence": cert.lower_evidence,
            "upper_evidence": cert.upper_evidence,
        },
    )
    obs.write_manifest(args.trace, manifest)
    print(cert)
    print(f"trace written to {args.trace}", file=sys.stderr)
    _maybe_write_certificate(args, net, cert)
    return 0


def _maybe_write_certificate(args: argparse.Namespace, net, cert) -> None:
    if getattr(args, "certificate", None):
        from .verify import write_certificate

        write_certificate(args.certificate, net, cert)
        print(f"certificate written to {args.certificate}", file=sys.stderr)


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    from .verify import CERTIFICATE_FORMAT, check_certificate, load_certificate

    try:
        with open(args.path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    if isinstance(data, dict) and data.get("format") == CERTIFICATE_FORMAT:
        try:
            net, fields = load_certificate(args.path)
        except ValueError as exc:
            print(f"verify: REJECTED: {exc}", file=sys.stderr)
            return 1
        report = check_certificate(net, fields)
    elif isinstance(data, dict) and "result" in data:
        # A run manifest from ``solve --trace``: validate its structure,
        # then check the recorded result interval.  Manifests carry no
        # witness, so only the network-independent checks plus the family
        # claims (via the network rebuilt from the recorded command) run.
        from . import obs

        problems = obs.validate_manifest(data)
        if problems:
            for p in problems:
                print(f"verify: invalid manifest: {p}", file=sys.stderr)
            return 1
        report = check_certificate(
            _network_from_command(data.get("command")),
            dict(data["result"]),
            require_witness=False,
        )
    else:
        print(f"verify: {args.path} is neither a certificate nor a run "
              f"manifest", file=sys.stderr)
        return 2
    if report.ok:
        print(f"verify: OK: {report.subject} "
              f"({len(report.checks)} checks: {', '.join(report.checks)})")
        return 0
    print(f"verify: REJECTED: {report.subject}", file=sys.stderr)
    for p in report.problems:
        print(f"verify:   {p}", file=sys.stderr)
    return 1


def _network_from_command(command) -> "object | None":
    """Rebuild the solved network from a manifest's recorded command."""
    families = ("bn", "wn", "ccc", "torus", "mesh", "fattree", "fbfly")
    if (
        not isinstance(command, list) or len(command) < 3
        or command[0] != "solve" or command[1] not in families
    ):
        return None
    try:
        n = int(command[2])
        dims = (
            int(command[command.index("--dims") + 1])
            if "--dims" in command else 2
        )
    except (ValueError, IndexError):
        return None
    try:
        return _family_network(command[1], n, dims)
    except ValueError:
        return None


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from . import obs
    from .verify import fuzz

    collector = obs.Collector()
    with obs.collecting(collector):
        with obs.trace("verify.fuzz.campaign", seed=args.seed, runs=args.runs):
            report = fuzz.run_campaign(
                seed=args.seed, runs=args.runs, corpus_dir=args.corpus,
            )
    if args.trace is not None:
        manifest = obs.build_manifest(
            collector,
            command=["fuzz", "--seed", str(args.seed), "--runs", str(args.runs)],
            seed=args.seed,
            result=report.to_dict(),
        )
        obs.write_manifest(args.trace, manifest)
        print(f"trace written to {args.trace}", file=sys.stderr)
    print(f"fuzz: seed={report.seed} runs={report.runs} "
          f"disagreements={len(report.failures)}")
    for f in report.failures:
        print(f"fuzz: FAIL run {f['run']} ({f['instance']}):", file=sys.stderr)
        for p in f["problems"]:
            print(f"fuzz:   {p}", file=sys.stderr)
        if f.get("case_id"):
            print(f"fuzz:   shrunk case: {f['case_id']}", file=sys.stderr)
    return 1 if report.failures else 0


def _format_span_tree(spans: list[dict]) -> list[str]:
    lines = []
    for s in sorted(spans, key=lambda s: float(s.get("start", 0.0))):
        indent = "  " * int(s.get("depth", 0))
        attrs = s.get("attrs") or {}
        suffix = (
            " (" + ", ".join(f"{k}={v}" for k, v in sorted(attrs.items())) + ")"
            if attrs else ""
        )
        lines.append(
            f"  {indent}{s['name']}  {float(s['duration']) * 1e3:.3f} ms{suffix}"
        )
    return lines


def _format_timeline_tree(spans: list[dict]) -> list[str]:
    """Indented fleet span tree: depth from merged parent ids."""
    by_id = {s.get("id"): s for s in spans}

    def _depth(s: dict) -> int:
        d, seen = 0, set()
        while s.get("parent_id") in by_id and s["parent_id"] not in seen:
            seen.add(s["parent_id"])
            s = by_id[s["parent_id"]]
            d += 1
        return d

    lines = []
    for s in sorted(spans, key=lambda s: float(s.get("start", 0.0))):
        indent = "  " * _depth(s)
        attrs = s.get("attrs") or {}
        suffix = (
            " (" + ", ".join(f"{k}={v}" for k, v in sorted(attrs.items())) + ")"
            if attrs else ""
        )
        mark = "  TRUNCATED" if s.get("truncated") else ""
        lines.append(
            f"  {indent}{s['name']} [{s.get('worker', '?')}]  "
            f"{float(s['duration']) * 1e3:.3f} ms{suffix}{mark}"
        )
    return lines


def _stats_timeline(args: argparse.Namespace, data: dict) -> int:
    """The ``stats`` view of a merged fleet timeline."""
    import json

    from . import obs

    problems = obs.validate_timeline(data)
    if problems:
        for p in problems:
            print(f"stats: invalid timeline: {p}", file=sys.stderr)
        return 1
    if _stats_exports(args, data):
        return 0
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    print(f"timeline: {args.manifest}")
    print(f"run: {data.get('run_id')}")
    workers = data.get("workers", [])
    print(f"workers ({len(workers)}): {', '.join(workers)}")
    if data.get("skipped_shards"):
        print(f"skipped shards: {', '.join(data['skipped_shards'])}")
    cp = data.get("critical_path", {})
    if cp.get("names"):
        chain = " > ".join(
            f"{n}[{w}]" for n, w in zip(cp["names"], cp["workers"])
        )
        print(f"critical path: {chain} "
              f"({float(cp.get('duration', 0.0)) * 1e3:.3f} ms"
              f"{', truncated' if cp.get('truncated') else ''})")
    print(f"spans ({len(data.get('spans', []))}):")
    for line in _format_timeline_tree(data.get("spans", [])):
        print(line)
    counters = data.get("counters", {})
    print(f"counters ({len(counters)}):")
    for k in sorted(counters):
        print(f"  {k} = {counters[k]}")
    gauges = data.get("gauges", {})
    if gauges:
        print(f"gauges ({len(gauges)}):")
        for k in sorted(gauges):
            print(f"  {k} = {gauges[k]}")
    events = data.get("events", [])
    if events:
        print(f"events ({len(events)}):")
        for e in events:
            print(f"  {e['t'] * 1e3:9.3f} ms  {e['name']} [{e['worker']}]")
    return 0


def _stats_exports(args: argparse.Namespace, data: dict) -> bool:
    """Write any requested ``--openmetrics``/``--flame`` exports."""
    from . import obs

    wrote = False
    if getattr(args, "openmetrics", None):
        obs.write_openmetrics(args.openmetrics, data)
        print(f"openmetrics written to {args.openmetrics}", file=sys.stderr)
        wrote = True
    if getattr(args, "flame", None):
        obs.write_folded(args.flame, data)
        print(f"folded stacks written to {args.flame}", file=sys.stderr)
        wrote = True
    return wrote


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from . import obs

    try:
        data = obs.load_manifest(args.manifest)
    except (OSError, ValueError) as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return 1
    if data.get("kind") == obs.TIMELINE_KIND:
        return _stats_timeline(args, data)
    problems = obs.validate_manifest(data)
    if problems:
        for p in problems:
            print(f"stats: invalid manifest: {p}", file=sys.stderr)
        return 1
    if _stats_exports(args, data):
        return 0
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    cmd = data.get("command")
    print(f"manifest: {args.manifest}")
    if cmd:
        print(f"command: {' '.join(str(c) for c in cmd)}")
    env = data.get("environment", {})
    print(f"python: {env.get('python', '?')}  "
          f"git: {env.get('git_rev') or '(unknown)'}")
    if data.get("tier") is not None:
        print(f"winning tier: {data['tier']}")
    result = data.get("result")
    if isinstance(result, dict) and "disagreements" in result:
        print(f"result: fuzz seed={result.get('seed')} "
              f"runs={result.get('runs')} "
              f"disagreements={result.get('disagreements')}")
    elif isinstance(result, dict):
        print(f"result: {result.get('quantity', '?')} in "
              f"[{result.get('lower', '?')}, {result.get('upper', '?')}]"
              f"{' (exact)' if result.get('exact') else ''}")
    print(f"spans ({len(data.get('spans', []))}):")
    for line in _format_span_tree(data.get("spans", [])):
        print(line)
    counters = data.get("counters", {})
    print(f"counters ({len(counters)}):")
    for k in sorted(counters):
        print(f"  {k} = {counters[k]}")
    gauges = data.get("gauges", {})
    if gauges:
        print(f"gauges ({len(gauges)}):")
        for k in sorted(gauges):
            print(f"  {k} = {gauges[k]}")
    tele = data.get("telemetry")
    if isinstance(tele, dict):
        print(f"telemetry: run {tele.get('run_id')}, "
              f"{len(tele.get('shard_files', []))} shard files, "
              f"timeline {tele.get('timeline')}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import os

    from .perf import SolverCache

    root = args.dir or os.environ.get("REPRO_CACHE_DIR")
    if not root:
        print("cache: no directory given (use --dir or set REPRO_CACHE_DIR)",
              file=sys.stderr)
        return 1
    cache = SolverCache(root)
    if args.action == "stats":
        s = cache.stats()
        print(f"cache: {s['root']}")
        print(f"entries: {s['entries']} "
              f"({s['profiles']} profiles, {s['certificates']} certificates)")
        print(f"payload bytes: {s['payload_bytes']}")
        return 0
    removed = cache.clear()
    print(f"cache: cleared {removed} entries from {root}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import os
    import signal
    import threading
    from pathlib import Path

    from .serve import JobQueue, ServeServer

    cache = None if args.no_cache else (args.cache or os.environ.get("REPRO_CACHE_DIR"))
    queue = JobQueue(cache_dir=cache, workers=args.workers)
    server = ServeServer(
        queue,
        host=args.host,
        port=args.port,
        max_nodes=args.max_nodes,
        default_timeout=args.timeout,
        telemetry=args.telemetry,
    )
    server.start()
    if args.port_file:
        Path(args.port_file).write_text(f"{server.port}\n", encoding="utf-8")
    print(
        f"serving on {server.address} "
        f"(cache: {cache or 'disabled'}, workers: {args.workers})",
        flush=True,
    )
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    try:
        stop.wait()
    finally:
        server.stop()
        if args.telemetry:
            print(f"telemetry timeline: {args.telemetry}/timeline.json")
    return 0


def _cmd_claims(args: argparse.Namespace) -> int:
    from .core.theorems import REGISTRY

    ids = args.ids or list(REGISTRY)
    failed = 0
    for cid in ids:
        if cid not in REGISTRY:
            print(f"unknown claim id: {cid}", file=sys.stderr)
            failed += 1
            continue
        res = REGISTRY[cid].check()
        print(f"{'PASS' if res.passed else 'FAIL'} {cid}: {REGISTRY[cid].reference}")
        if not res.passed:
            print(f"     details: {res.details}")
            failed += 1
    return 1 if failed else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import main as lint_main

    forwarded = list(args.paths)
    if args.format != "text":
        forwarded += ["--format", args.format]
    return lint_main(forwarded)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-butterfly",
        description="Bisection width and expansion of butterfly networks "
                    "(Bornstein et al.), executable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="structure census")
    p.add_argument("n", type=int)
    p.add_argument("--wraparound", action="store_true")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("bisection", help="certified bisection width")
    p.add_argument("family",
                   choices=["bn", "wn", "ccc", "torus", "mesh", "fattree",
                            "fbfly"])
    p.add_argument("--dims", type=int, default=2, metavar="D",
                   help="dimensions for the torus/mesh/fbfly families "
                        "(default 2)")
    p.add_argument("n", type=int)
    p.set_defaults(fn=_cmd_bisection)

    p = sub.add_parser("expansion", help="certified expansion")
    p.add_argument("family", choices=["bn", "wn"])
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--node", action="store_true")
    p.set_defaults(fn=_cmd_expansion)

    p = sub.add_parser("folklore", help="the sub-n bisection of Bn (Thm 2.20)")
    p.add_argument("n", type=int)
    p.add_argument("--plan-only", action="store_true")
    p.set_defaults(fn=_cmd_folklore)

    p = sub.add_parser(
        "solve", help="certified BW by the budgeted degradation cascade"
    )
    p.add_argument("family",
                   choices=["bn", "wn", "ccc", "torus", "mesh", "fattree",
                            "fbfly"])
    p.add_argument("n", type=int)
    p.add_argument("--dims", type=int, default=2, metavar="D",
                   help="dimensions for the torus/mesh/fbfly families "
                        "(default 2)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="wall-clock budget; expiry degrades, never fails")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="checkpoint file for the enumeration sweep")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a run manifest (spans, counters, environment) "
                        "to PATH")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="solver-cache directory (default: $REPRO_CACHE_DIR)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the solver cache even if REPRO_CACHE_DIR is set")
    p.add_argument("--certificate", default=None, metavar="PATH",
                   help="write the resulting certificate (network spec, "
                        "interval, witness) as JSON for 'verify'")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser(
        "verify",
        help="independently re-check a certificate JSON or run manifest",
    )
    p.add_argument("path", help="certificate file from solve --certificate, "
                                "or manifest from solve --trace")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "fuzz", help="seeded differential fuzz of all solvers vs the checker"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--corpus", default=None, metavar="DIR",
                   help="save shrunk failing cases to DIR (JSON, replayable)")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a run manifest for the campaign to PATH")
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser("cache", help="inspect or clear a solver cache")
    p.add_argument("action", choices=["stats", "clear"])
    p.add_argument("--dir", default=None, metavar="DIR",
                   help="cache directory (default: $REPRO_CACHE_DIR)")
    p.set_defaults(fn=_cmd_cache)

    p = sub.add_parser(
        "serve", help="serve certified solves over HTTP (see docs/serving.md)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8123,
                   help="listen port (0 picks a free one; see --port-file)")
    p.add_argument("--workers", type=int, default=1,
                   help="supervised pool size (1 solves in the drain thread)")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="default per-request budget in seconds "
                        "(requests may set their own)")
    p.add_argument("--max-nodes", type=int, default=4096,
                   help="largest accepted instance")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="shared solver cache (default: $REPRO_CACHE_DIR)")
    p.add_argument("--no-cache", action="store_true",
                   help="serve without the tier-0 cache")
    p.add_argument("--telemetry", default=None, metavar="DIR",
                   help="journal telemetry shards; merge DIR/timeline.json "
                        "on shutdown")
    p.add_argument("--port-file", default=None, metavar="PATH",
                   help="write the bound port to PATH once listening")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "stats",
        help="inspect a run manifest (solve --trace) or a merged fleet "
             "timeline (serve --telemetry)",
    )
    p.add_argument("manifest")
    p.add_argument("--json", action="store_true",
                   help="dump the validated document as JSON")
    p.add_argument("--openmetrics", default=None, metavar="PATH",
                   help="export counters/gauges as an OpenMetrics/Prometheus "
                        "text exposition to PATH")
    p.add_argument("--flame", default=None, metavar="PATH",
                   help="export the span tree as folded flame-graph stacks "
                        "to PATH (flamegraph.pl / speedscope input)")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("claims", help="check paper claims")
    p.add_argument("ids", nargs="*")
    p.set_defaults(fn=_cmd_claims)

    p = sub.add_parser("lint", help="run the repro-lint static analysis")
    p.add_argument("paths", nargs="*", default=["src", "tests"])
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_lint)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
