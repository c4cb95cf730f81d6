"""Command-line interface: run OMEGA experiments without writing code.

Usage::

    python -m repro datasets
    python -m repro run --dataset lj --algorithm pagerank --system omega
    python -m repro run --dataset lj --trace-out trace.json \
        --metrics-out timeline.json --manifest run.json
    python -m repro run --dataset lj --attribution --manifest run.json
    python -m repro explain run.json --sort dram
    python -m repro history --ledger runs.jsonl --last 5
    python -m repro compare --dataset lj --algorithm pagerank
    python -m repro sweep --algorithms pagerank,bfs --datasets sd,lj \
        --backends baseline,omega --workers 4 --json-out sweep.json
    python -m repro report old-manifest.json new-manifest.json
    python -m repro lint --format sarif --out lint.sarif

All numbers come from the same drivers the benchmark harness uses.
``run``, ``compare`` and ``sweep`` consult the persistent trace store
when ``--cache-dir`` (or ``REPRO_CACHE_DIR``) names one; ``--no-cache``
bypasses it.

Exit codes: 0 success, 1 check/regression failure (``validate``,
``report``, ``lint``), 2 usage error (unknown dataset/algorithm/
backend, bad manifest), each reported as a one-line ``error:`` message
on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro import __version__
from repro.config import SimConfig
from repro.errors import ReproError
from repro.obs import LOG_LEVELS, configure_logging

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OMEGA heterogeneous-memory-subsystem reproduction",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="warning",
        help="logging verbosity for the repro.* loggers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the Table I dataset stand-ins")

    validate = sub.add_parser(
        "validate", help="run the reproduction's acceptance self-check"
    )
    validate.add_argument("--scale", type=float, default=0.5,
                          help="dataset scale for the check")

    run = sub.add_parser("run", help="simulate one system on one workload")
    _workload_args(run)
    run.add_argument(
        "--system",
        choices=("baseline", "omega", "locked", "graphpim"),
        default="omega",
        help="memory-subsystem design to simulate",
    )
    run.add_argument(
        "--backend",
        choices=("baseline", "omega", "locked", "graphpim", "dynamic"),
        default=None,
        help="replay-engine backend (overrides --system; adds the"
             " dynamic-scratchpad variant)",
    )
    run.add_argument(
        "--manifest",
        metavar="PATH",
        default=None,
        help="write the per-run JSON manifest to PATH",
    )
    run.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write a Chrome trace-event JSON of the run's phases to"
             " PATH (open in Perfetto or chrome://tracing)",
    )
    run.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the windowed replay timeline to PATH"
             " (columnar JSON, or CSV when PATH ends in .csv)",
    )
    run.add_argument(
        "--obs-window",
        metavar="N",
        type=int,
        default=None,
        help="sample replay counters every N trace events"
             " (default: auto-size to ~64 windows when --metrics-out"
             " is given)",
    )
    run.add_argument(
        "--segment-events",
        metavar="N",
        type=int,
        default=None,
        help="stream the run out-of-core in N-event segments (bounded"
             " resident memory, bit-identical counters; default: the"
             " REPRO_SEGMENT_EVENTS environment variable, else"
             " whole-trace in-core)",
    )
    run.add_argument(
        "--attribution",
        action="store_true",
        help="fold per-class traffic attribution (graph entity x degree"
             " stratum) during the replay; the breakdown lands in the"
             " manifest and is queryable with 'repro explain' (default:"
             " the REPRO_ATTRIBUTION environment variable)",
    )
    run.add_argument(
        "--attribution-out",
        metavar="PATH",
        default=None,
        help="write the attribution breakdown as standalone JSON to"
             " PATH (implies --attribution)",
    )
    run.add_argument(
        "--ledger",
        metavar="PATH",
        default=None,
        help="append one run-ledger entry (JSONL) to PATH after the run"
             " (default: the REPRO_LEDGER environment variable, else"
             " off); inspect with 'repro history'",
    )

    _cache_args(run)

    cmp = sub.add_parser("compare", help="baseline vs OMEGA on one workload")
    _workload_args(cmp)
    _cache_args(cmp)

    sweep = sub.add_parser(
        "sweep",
        help="run a (datasets x algorithms x backends) grid, optionally"
             " across worker processes (Fig 14 style)",
    )
    sweep.add_argument("--algorithms", default="pagerank",
                       help="comma-separated algorithm names")
    sweep.add_argument("--datasets", default="lj",
                       help="comma-separated dataset names")
    sweep.add_argument(
        "--backends", default="baseline,omega",
        help="comma-separated hierarchy backends (baseline, omega,"
             " locked, graphpim, dynamic)",
    )
    sweep.add_argument("--scale", type=float, default=1.0,
                       help="dataset scale multiplier")
    sweep.add_argument("--cores", type=int, default=16,
                       help="number of simulated cores")
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = run inline); workers share the"
             " trace store, so generation work is deduplicated",
    )
    sweep.add_argument(
        "--estimate-prune", metavar="SPEC", default=None,
        help="skip cells whose analytically predicted metrics fall"
             " outside this interest band before replaying them;"
             " SPEC is a comma-separated conjunction of clauses like"
             " 'l2_hit_rate<0.5,dram_bytes>1e6' (metrics are the"
             " ReplayEstimate.as_dict keys). Pruned cells stay in the"
             " output with the violated clause and their predictions",
    )
    sweep.add_argument("--json-out", metavar="PATH", default=None,
                       help="write the sweep rows as JSON to PATH")
    sweep.add_argument("--csv-out", metavar="PATH", default=None,
                       help="write the sweep rows as CSV to PATH")
    _cache_args(sweep)

    explain = sub.add_parser(
        "explain",
        help="render a run's attribution breakdown (where the memory"
             " traffic goes, by graph entity and degree class)",
    )
    explain.add_argument(
        "manifest",
        help="run-manifest JSON with an attribution block (a run made"
             " with --attribution), or a standalone attribution JSON",
    )
    explain.add_argument(
        "--top", type=int, default=0, metavar="N",
        help="show only the top N classes (default: all)",
    )
    explain.add_argument(
        "--sort", choices=("dram", "events", "capture"), default="dram",
        help="table sort key: DRAM bytes, event count, or scratchpad"
             " capture rate (default dram)",
    )

    history = sub.add_parser(
        "history",
        help="list, filter, and regression-diff run-ledger entries",
    )
    history.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="ledger JSONL file (default: the REPRO_LEDGER environment"
             " variable)",
    )
    history.add_argument(
        "--last", type=int, default=0, metavar="N",
        help="show only the most recent N matching entries",
    )
    history.add_argument("--kind", choices=("run", "bench"), default=None,
                         help="only entries of this kind")
    history.add_argument("--dataset", default=None,
                         help="only entries for this dataset")
    history.add_argument("--algorithm", default=None,
                         help="only entries for this algorithm")
    history.add_argument("--backend", default=None,
                         help="only entries for this backend")
    history.add_argument(
        "--diff", metavar="GOLDEN", default=None,
        help="diff the newest matching entry's manifest against the"
             " GOLDEN manifest JSON; exit 1 if a tracked metric"
             " regressed beyond tolerance",
    )
    history.add_argument(
        "--tolerance", type=float, default=0.05,
        help="allowed relative regression per metric for --diff"
             " (default 0.05)",
    )

    report = sub.add_parser(
        "report",
        help="diff two run manifests; exit 1 if a tracked metric"
             " regressed beyond tolerance",
    )
    report.add_argument("old", help="baseline manifest JSON path")
    report.add_argument("new", help="candidate manifest JSON path")
    report.add_argument(
        "--tolerance", type=float, default=0.05,
        help="allowed relative regression per metric (default 0.05)",
    )

    lint = sub.add_parser(
        "lint",
        help="run the static invariant battery over the source tree;"
             " exit 1 on unsuppressed findings",
    )
    lint.add_argument(
        "--root", metavar="DIR", default=None,
        help="checkout root holding src/repro (default: the root of"
             " the installed package's own checkout)",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default text; json is the stable"
             " omega-repro/lint/v3 document, sarif is SARIF 2.1.0)",
    )
    lint.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the report to PATH instead of stdout",
    )
    lint.add_argument(
        "--rules", metavar="IDS", default=None,
        help="comma-separated rule ids to run (default: all;"
             " suppression hygiene SUP001 always runs)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the replay-as-a-service HTTP/JSON job server"
             " (see docs/serving.md)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8357,
                       help="bind port; 0 picks an ephemeral port"
                            " (default 8357)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent replay worker threads (default 2)")
    serve.add_argument("--queue-depth", type=int, default=8,
                       help="max live (queued+running) jobs before"
                            " requests get 429 (default 8)")
    serve.add_argument("--ledger", metavar="PATH", default=None,
                       help="append one run-ledger entry per computed job"
                            " (default: $REPRO_LEDGER when set)")
    _cache_args(serve)
    return parser


def _workload_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dataset", required=True, help="Table I abbreviation")
    sub.add_argument("--algorithm", default="pagerank",
                     help="registered algorithm name")
    sub.add_argument("--scale", type=float, default=1.0,
                     help="dataset scale multiplier")
    sub.add_argument("--cores", type=int, default=16,
                     help="number of simulated cores")


def _cache_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persistent trace-store directory (default: $REPRO_CACHE_DIR"
             " when set, else caching is off)",
    )
    sub.add_argument(
        "--no-cache", action="store_true",
        help="bypass the trace store even when REPRO_CACHE_DIR is set",
    )


def _resolve_cache(args):
    """Map --cache-dir/--no-cache onto ``RunContext.from_env(cache=...)``."""
    if args.no_cache:
        return False
    return args.cache_dir  # None -> REPRO_CACHE_DIR, path -> store


def _load(dataset: str, algorithm: str, scale: float):
    from repro.algorithms.registry import ALGORITHMS
    from repro.graph.datasets import load_dataset

    info = ALGORITHMS.get(algorithm)
    if info is None:
        raise ReproError(
            f"unknown algorithm {algorithm!r};"
            f" available: {', '.join(ALGORITHMS)}"
        )
    graph, spec = load_dataset(
        dataset, scale=scale, weighted=info.requires_weights
    )
    if info.requires_undirected and graph.directed:
        graph = graph.as_undirected()
    return graph, spec


def _cmd_datasets() -> int:
    from repro.bench.tables import format_table
    from repro.graph.datasets import DATASETS, dataset_names

    rows = []
    for name in dataset_names():
        spec = DATASETS[name]
        rows.append(
            {
                "name": name,
                "kind": spec.kind,
                "vertices": spec.base_vertices,
                "directed": "yes" if spec.directed else "no",
                "power law": "yes" if spec.power_law else "no",
                "paper |V| (M)": spec.paper_vertices_m,
                "description": spec.description,
            }
        )
    print(format_table(rows, "Table I dataset stand-ins"), end="")
    return 0


def _cmd_validate(args) -> int:
    from repro.validate import format_validation, run_validation

    results = run_validation(scale=args.scale,
                             progress=lambda msg: print(f"... {msg}"))
    print(format_validation(results), end="")
    return 0 if all(c.passed for c in results) else 1


def _cmd_run(args) -> int:
    from repro.core.context import RunContext, RunRequest
    from repro.core.system import default_backend_config, run_system

    graph, spec = _load(args.dataset, args.algorithm, args.scale)
    backend = args.backend or args.system
    config = default_backend_config(backend, num_cores=args.cores)
    request = RunRequest(
        args.algorithm, backend=backend, dataset=spec.name,
        manifest_path=args.manifest, trace_path=args.trace_out,
        timeline_path=args.metrics_out, obs_window=args.obs_window,
        attribution_path=args.attribution_out,
    )
    context = RunContext.from_env(
        cache=_resolve_cache(args), segment_events=args.segment_events,
        attribution=True if args.attribution else None,
        attribution_path=args.attribution_out, ledger_path=args.ledger,
    )
    report = run_system(graph, request, config, context=context)

    for key, value in report.summary().items():
        print(f"{key}: {value}")
    if report.streamed:
        print(f"streamed: {report.num_segments} segments"
              f" x {report.segment_events} events")
    if report.trace_cache and report.trace_cache.get("enabled"):
        state = "hit" if report.trace_cache.get("hit") else "miss"
        print(f"trace_cache: {state}")
    if report.timeline is not None and args.metrics_out:
        print(f"timeline: {report.timeline.num_windows} windows"
              f" -> {args.metrics_out}")
    if args.trace_out:
        print(f"trace: {args.trace_out}")
    if report.attribution is not None:
        from repro.obs import explain_lines

        print()
        for line in explain_lines(report.attribution):
            print(line)
    if args.attribution_out:
        print(f"attribution: {args.attribution_out}")
    return 0


def _cmd_compare(args) -> int:
    from repro.core.context import RunContext, RunRequest
    from repro.core.system import compare_systems

    graph, spec = _load(args.dataset, args.algorithm, args.scale)
    cmp = compare_systems(
        graph, RunRequest(args.algorithm, dataset=spec.name),
        baseline_config=SimConfig.scaled_baseline(num_cores=args.cores),
        omega_config=SimConfig.scaled_omega(num_cores=args.cores),
        context=RunContext.from_env(cache=_resolve_cache(args)),
    )
    for key, value in cmp.summary().items():
        print(f"{key}: {value}")
    return 0


def _cmd_sweep(args) -> int:
    from repro.bench.parallel import (
        build_grid,
        run_sweep,
        save_rows_csv,
        save_rows_json,
    )
    from repro.bench.tables import format_table
    from repro.memsim.backends import get_backend

    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    datasets = [d.strip() for d in args.datasets.split(",") if d.strip()]
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    if not algorithms or not datasets or not backends:
        raise ReproError("sweep needs at least one algorithm, dataset"
                         " and backend")
    for name in backends:
        get_backend(name)  # fail fast on unknown backend names
    tasks = build_grid(
        datasets, algorithms, backends,
        scale=args.scale, num_cores=args.cores,
    )
    rows = run_sweep(
        tasks, workers=args.workers, cache=_resolve_cache(args),
        prune=args.estimate_prune,
    )

    table = []
    for r in rows:
        if r.get("pruned"):
            table.append({
                "algorithm": r["algorithm"],
                "dataset": r["dataset"],
                "backend": r["backend"],
                "cycles": "pruned",
                "ll hit": "-",
                "dram bytes": r["estimate"]["dram_bytes"],
                "energy nj": "-",
                "cache": r["trace_cache"],
            })
        else:
            table.append({
                "algorithm": r["algorithm"],
                "dataset": r["dataset"],
                "backend": r["backend"],
                "cycles": round(r["cycles"]),
                "ll hit": round(r["last_level_hit_rate"], 4),
                "dram bytes": r["dram_bytes"],
                "energy nj": round(r["energy_nj"], 1),
                "cache": r["trace_cache"],
            })
    print(format_table(table, "backend sweep"), end="")

    pruned = [r for r in rows if r.get("pruned")]
    if args.estimate_prune:
        print(
            f"estimate-prune: skipped {len(pruned)}/{len(rows)} cells"
            f" (band: {args.estimate_prune})"
        )
        for r in pruned:
            print(
                f"  pruned {r['algorithm']}/{r['dataset']}/{r['backend']}:"
                f" {r['pruned']}"
            )

    # When the grid contains the paper's baseline-vs-OMEGA pair, also
    # print the headline ratios (the Fig 14 view of the same rows).
    if "baseline" in backends and "omega" in backends:
        by_cell = {
            (r["algorithm"], r["dataset"], r["backend"]): r
            for r in rows if not r.get("pruned")
        }

        def ratio(num: float, den: float) -> float:
            return round(num / den, 2) if den else float("inf")

        ratios = []
        for algorithm in algorithms:
            for dataset in datasets:
                base = by_cell.get((algorithm, dataset, "baseline"))
                omega = by_cell.get((algorithm, dataset, "omega"))
                if base is None or omega is None:
                    continue  # one side was pruned; no ratio to print
                ratios.append(
                    {
                        "algorithm": algorithm,
                        "dataset": dataset,
                        "speedup": ratio(base["cycles"], omega["cycles"]),
                        "traffic x": ratio(
                            base["onchip_traffic_bytes"],
                            omega["onchip_traffic_bytes"],
                        ),
                        "energy x": ratio(
                            base["energy_nj"], omega["energy_nj"]
                        ),
                    }
                )
        print(format_table(ratios, "OMEGA vs baseline sweep"), end="")

    if args.json_out:
        save_rows_json(rows, args.json_out)
        print(f"rows: {args.json_out}")
    if args.csv_out:
        save_rows_csv(rows, args.csv_out)
        print(f"rows: {args.csv_out}")
    return 0


def _default_lint_root() -> str:
    """The checkout root of the running package (…/src/repro → root)."""
    import repro

    return str(Path(repro.__file__).resolve().parents[2])


def _cmd_lint(args) -> int:
    from repro import __version__ as version
    from repro.analyze import dump_json, run_battery, to_json, to_sarif, to_text

    root = args.root or _default_lint_root()
    rules = None
    if args.rules is not None:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        if not rules:
            raise ReproError("--rules given but no rule ids parsed")

    result = run_battery(root, rules=rules)
    if args.format == "json":
        text = dump_json(to_json(result.findings, result.suppressed))
    elif args.format == "sarif":
        text = dump_json(to_sarif(result.findings, result.rules, version))
    else:
        text = to_text(result.findings, len(result.suppressed))

    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"report: {args.out}")
    else:
        print(text, end="")
    return result.exit_code()


def _cmd_explain(args) -> int:
    import json

    from repro.obs import explain_lines
    from repro.obs.attribution import ATTRIBUTION_SCHEMA

    try:
        with open(args.manifest) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ReproError(f"cannot read {args.manifest}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"{args.manifest} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ReproError(f"{args.manifest} is not a manifest or attribution"
                         " document")
    if doc.get("schema") == ATTRIBUTION_SCHEMA:
        block = doc
        kern = None
    else:
        block = doc.get("attribution")
        kern = (doc.get("replay") or {}).get("kernel")
        if not block and not kern:
            raise ReproError(
                f"{args.manifest} carries no attribution block and no"
                " kernel telemetry; rerun with 'repro run"
                " --attribution' (or a v6+ manifest)"
            )
    for fld in ("system", "backend", "algorithm", "dataset"):
        if doc.get(fld):
            print(f"{fld}: {doc[fld]}")
    if kern:
        for line in _kernel_lines(kern):
            print(line)
    if block:
        for line in explain_lines(block, top=args.top, sort_by=args.sort):
            print(line)
    return 0


def _kernel_lines(kern):
    """Render a manifest's ``replay.kernel`` screening block."""
    yield "kernel screening:"
    yield (f"  mode: {kern.get('mode', '?')}"
           f"  batches: {kern.get('batches', 0)}"
           f"  events: {kern.get('events', 0)}"
           f"  reused: {kern.get('reused', 0)}")
    yield (f"  screened: {kern.get('screened', 0)}"
           f" ({100.0 * kern.get('screened_fraction', 0.0):.1f}%)")
    yield f"  residual: serialized {kern.get('serialized_events', 0)}"


def _cmd_history(args) -> int:
    from repro.obs import (
        diff_manifests,
        filter_entries,
        format_history,
        format_report,
        read_entries,
    )
    from repro.core.context import ledger_path_from_env

    path = args.ledger or ledger_path_from_env()
    if path is None:
        raise ReproError(
            "no ledger given: pass --ledger PATH or set REPRO_LEDGER"
        )
    entries = filter_entries(
        read_entries(path), kind=args.kind, dataset=args.dataset,
        algorithm=args.algorithm, backend=args.backend,
    )
    if args.last > 0:
        entries = entries[-args.last:]
    if not entries:
        print("no matching ledger entries")
        return 1 if args.diff else 0
    print(format_history(entries), end="")
    if args.diff:
        from repro.obs import load_manifest

        golden = load_manifest(args.diff)
        newest = entries[-1].get("manifest") or {}
        result = diff_manifests(golden, newest, tolerance=args.tolerance)
        print()
        print(format_report(result, args.tolerance), end="")
        return 0 if result.ok else 1
    return 0


def _cmd_report(args) -> int:
    from repro.obs import diff_manifests, format_report, load_manifest

    old = load_manifest(args.old)
    new = load_manifest(args.new)
    result = diff_manifests(old, new, tolerance=args.tolerance)
    print(format_report(result, args.tolerance), end="")
    return 0 if result.ok else 1


def _cmd_serve(args) -> int:
    from repro.core.context import RunContext
    from repro.serve import make_server

    context = RunContext.from_env(
        cache=_resolve_cache(args), ledger_path=args.ledger
    )
    server = make_server(
        host=args.host, port=args.port, context=context,
        workers=args.workers, queue_depth=args.queue_depth,
    )
    host, port = server.server_address[:2]
    # Exact format is load-bearing: the CI smoke job and the e2e tests
    # parse the port out of this line (--port 0 binds ephemerally).
    print(f"repro serve listening on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level)
    try:
        if args.command == "datasets":
            return _cmd_datasets()
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "explain":
            return _cmd_explain(args)
        if args.command == "history":
            return _cmd_history(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "serve":
            return _cmd_serve(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
