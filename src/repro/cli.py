"""Command-line interface: ``python -m repro <command>`` (or ``depminer``).

Commands
--------

``discover``   Mine minimal FDs (and an Armstrong sample) from a CSV file.
``armstrong``  Write the real-world Armstrong relation of a CSV file.
``report``     Full profiling report (FDs, keys, normal forms, sample).
``sample``     Exact FD discovery via guided sampling (large files).
``generate``   Emit a synthetic benchmark relation as CSV.
``bench``      Run one of the paper's experiments (table3..fig7).
``trace``      Analyse traces/manifests: summary, diff, critical-path,
               export-chrome.
``example``    Run the paper's worked example end-to-end.

Every command prints to stdout and exits non-zero on library errors with
a one-line message (no tracebacks for expected failure modes).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.experiments import (
    EXPERIMENTS,
    experiment_report,
    run_experiment,
)
from repro.bench.harness import ALGORITHM_NAMES
from repro.columnar import load_mining_input
from repro.core.depminer import DepMiner
from repro.core.relation import Relation
from repro.datagen.synthetic import generate_relation
from repro.datagen.workloads import SCALES
from repro.errors import ReproError
from repro.fd.fd import fds_to_text
from repro.hypergraph.transversals import METHODS
from repro.obs import (
    ConsoleProgress,
    MetricsRegistry,
    Tracer,
    configure_logging,
    export_jsonl,
)
from repro.storage.csv_io import relation_from_csv, relation_to_csv

__all__ = ["main", "build_parser"]


def _add_obs_arguments(subparser: argparse.ArgumentParser) -> None:
    """The shared observability flags (discover / bench / report)."""
    subparser.add_argument(
        "--trace", dest="trace_path", default=None, metavar="PATH",
        help="write a JSONL trace (spans + metrics) of the run to PATH",
    )
    subparser.add_argument(
        "--metrics", action="store_true",
        help="print the collected metrics as a markdown table",
    )
    subparser.add_argument(
        "--progress", action="store_true",
        help="report inner-loop progress on stderr while mining",
    )
    subparser.add_argument(
        "--fault-plan", dest="fault_plan_path", default=None, metavar="PATH",
        help="activate the deterministic fault-injection plan (JSON) at "
             "PATH for this run — chaos-test the reliability layer "
             "(see docs/reliability.md)",
    )
    subparser.add_argument(
        "--telemetry", dest="telemetry_path", nargs="?",
        const="results/telemetry", default=None, metavar="DIR|FILE.json",
        help="write a versioned run manifest — span tree, metrics with "
             "p50/p95/p99, phase timings, environment, relation "
             "fingerprint, RSS/memory peaks — to this directory (default "
             "results/telemetry) or exact .json file; implies tracing and "
             "metrics collection plus a background resource sampler "
             "(see docs/observability.md)",
    )


def _obs_hooks(args: argparse.Namespace):
    """(tracer, metrics, progress, sampler) per the observability flags.

    ``--telemetry`` implies tracing and metrics and starts the
    background resource sampler right away; ``_finish_obs`` stops it
    and writes the manifest.
    """
    fault_plan = getattr(args, "fault_plan_path", None)
    telemetry = getattr(args, "telemetry_path", None)
    tracer = Tracer() if (args.trace_path or telemetry) else None
    metrics = (
        MetricsRegistry()
        if (args.trace_path or args.metrics or fault_plan or telemetry)
        else None
    )
    progress = ConsoleProgress() if args.progress else None
    sampler = None
    if telemetry:
        from repro.obs import ResourceSampler

        sampler = ResourceSampler(tracer=tracer).start()
    return tracer, metrics, progress, sampler


def _fault_context(args: argparse.Namespace, metrics):
    """Context manager activating the requested fault plan (or a no-op)."""
    import contextlib

    path = getattr(args, "fault_plan_path", None)
    if not path:
        return contextlib.nullcontext(None)
    from repro.reliability import fault_plan_active, load_fault_plan

    plan = load_fault_plan(path)
    print(
        f"fault plan {plan.name!r} active: {len(plan.specs)} spec(s), "
        f"seed {plan.seed}", file=sys.stderr,
    )
    return fault_plan_active(plan, metrics=metrics)


def _report_injections(plan) -> None:
    """Summarise what the fault plan actually injected (stderr)."""
    if plan is None:
        return
    total = plan.injected_total()
    per_site = ", ".join(
        f"{site}={count}" for site, count in sorted(plan.injected.items())
    )
    print(
        f"fault plan {plan.name!r}: {total} fault(s) injected"
        + (f" ({per_site})" if per_site else ""),
        file=sys.stderr,
    )


def _telemetry_destination(target: str, command: str):
    """Resolve ``--telemetry`` (a dir or an exact .json path) to a file."""
    import time
    from pathlib import Path

    path = Path(target)
    if path.suffix.lower() == ".json":
        return path
    stamp = time.strftime("%Y%m%dT%H%M%S")
    import os

    return path / f"{command}-{stamp}-{os.getpid()}.json"


def _finish_obs(args: argparse.Namespace, tracer, metrics, meta,
                sampler=None, relation_info=None) -> None:
    """Export trace/manifest and/or print the metrics table, as requested."""
    if sampler is not None:
        sampler.stop()
    if args.trace_path:
        try:
            export_jsonl(args.trace_path, tracer=tracer, metrics=metrics,
                         meta=meta)
        except OSError as error:
            raise ReproError(
                f"cannot write trace to {args.trace_path}: {error}"
            ) from error
        print(f"wrote trace to {args.trace_path}", file=sys.stderr)
    telemetry = getattr(args, "telemetry_path", None)
    if telemetry:
        from repro.obs import RunManifest

        manifest = RunManifest.build(
            command=meta.get("command", args.command),
            tracer=tracer, metrics=metrics, resources=sampler,
            relation=relation_info, meta=meta,
        )
        destination = _telemetry_destination(telemetry, manifest.command)
        try:
            manifest.write(destination)
        except OSError as error:
            raise ReproError(
                f"cannot write run manifest to {destination}: {error}"
            ) from error
        print(f"wrote run manifest to {destination}", file=sys.stderr)
    if args.metrics and metrics is not None:
        print()
        print(metrics.to_markdown())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depminer",
        description=(
            "Dep-Miner: efficient discovery of functional dependencies "
            "and real-world Armstrong relations (EDBT 2000 reproduction)"
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="increase log verbosity (-v INFO, -vv DEBUG)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    discover = subparsers.add_parser(
        "discover", help="mine minimal FDs from a CSV file"
    )
    discover.add_argument("csv", help="input CSV file (header row expected)")
    discover.add_argument(
        "--algorithm",
        choices=("couples", "identifiers"),
        default="couples",
        help="agree-set algorithm (couples = Dep-Miner, identifiers = "
             "Dep-Miner 2; --backend columnar is the NumPy fast path)",
    )
    discover.add_argument(
        "--max-couples", type=int, default=None,
        help="memory threshold for the couples algorithm",
    )
    discover.add_argument(
        "--backend",
        choices=("python", "columnar"),
        default="python",
        help="mining backend (python = the classic row-at-a-time "
             "pipeline; columnar = integer-coded NumPy columns with "
             "batch agree-set intersection — identical output, see "
             "docs/columnar.md; falls back to python when NumPy is "
             "missing)",
    )
    discover.add_argument(
        "--transversal",
        choices=METHODS,
        default="kernel",
        help="transversal algorithm for the LEFT_HAND_SIDE phase "
             "(kernel = reductions + incremental coverage, the default; "
             "levelwise = the paper's Algorithm 5; berge = oracle)",
    )
    discover.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes for the sharded execution layer "
             "(1 = serial, 0 = all cores; output is identical at any N)",
    )
    discover.add_argument(
        "--armstrong", action="store_true",
        help="also print the real-world Armstrong relation",
    )
    discover.add_argument(
        "--stats", action="store_true",
        help="print phase timings and artefact counts",
    )
    discover.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="also write the mined cover as a JSON document (for "
             "'depminer diff')",
    )
    discover.add_argument(
        "--max-lhs", type=int, default=None, metavar="K",
        help="only mine FDs with at most K lhs attributes (wide-schema "
             "mitigation; sound but incomplete)",
    )
    discover.add_argument(
        "--sql-nulls", action="store_true",
        help="treat NULL <> NULL (SQL semantics) instead of grouping "
             "nulls together",
    )
    discover.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed artifact cache directory: re-mining an "
             "unchanged (or row-permuted) file reuses its agree sets "
             "and FD cover (see docs/caching.md)",
    )
    discover.add_argument(
        "--append", action="append", default=None, metavar="CSV",
        dest="append_paths",
        help="append the rows of this CSV (same header) to the input and "
             "re-mine incrementally — only the new tuple couples are "
             "swept; repeatable, applied in order",
    )
    _add_obs_arguments(discover)

    armstrong = subparsers.add_parser(
        "armstrong", help="write the real-world Armstrong relation of a CSV"
    )
    armstrong.add_argument("csv", help="input CSV file")
    armstrong.add_argument(
        "--output", "-o", default=None,
        help="output CSV path (default: print to stdout)",
    )

    generate = subparsers.add_parser(
        "generate", help="emit a synthetic benchmark relation as CSV"
    )
    generate.add_argument("--attributes", "-a", type=int, required=True)
    generate.add_argument("--tuples", "-t", type=int, required=True)
    generate.add_argument(
        "--correlation", "-c", type=float, default=None,
        help="the paper's c parameter in [0, 1); omit for "
             "'without constraints'",
    )
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--output", "-o", default=None,
        help="output CSV path (default: stdout)",
    )

    bench = subparsers.add_parser(
        "bench", help="run one of the paper's experiments"
    )
    bench.add_argument(
        "--experiment", "-e", choices=sorted(EXPERIMENTS), required=True,
        help="which table/figure to regenerate",
    )
    bench.add_argument(
        "--scale", choices=sorted(SCALES), default="small",
        help="workload scale (paper = the original grid)",
    )
    bench.add_argument(
        "--algorithms", nargs="+",
        choices=tuple(ALGORITHM_NAMES) + ("fdep", "depminer-columnar"),
        default=list(ALGORITHM_NAMES),
    )
    bench.add_argument(
        "--timeout", type=float, default=None,
        help="per-cell time budget in seconds (cells over it print '*')",
    )
    bench.add_argument(
        "--isolated", action="store_true",
        help="run each cell in a forked subprocess with a hard timeout",
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes for the Dep-Miner variants "
             "(1 = serial, 0 = all cores)",
    )
    bench.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress"
    )
    _add_obs_arguments(bench)

    report = subparsers.add_parser(
        "report", help="full profiling report (FDs, keys, normal forms, "
                       "Armstrong sample) for a CSV file",
    )
    report.add_argument("csv", help="input CSV file")
    report.add_argument(
        "--backend",
        choices=("python", "columnar"),
        default="python",
        help="mining backend for the profiling run; columnar also "
             "switches the CSV load to the streaming ingest path "
             "(identical output; falls back to python when NumPy is "
             "missing)",
    )
    report.add_argument(
        "--output", "-o", default=None,
        help="write the markdown report here (default: stdout)",
    )
    _add_obs_arguments(report)

    sample = subparsers.add_parser(
        "sample", help="exact FD discovery via guided sampling "
                       "(for very large files)",
    )
    sample.add_argument("csv", help="input CSV file")
    sample.add_argument("--sample-size", type=int, default=256)
    sample.add_argument("--seed", type=int, default=0)

    diff = subparsers.add_parser(
        "diff", help="compare two mined FD covers (dependency drift); "
                     "inputs are CSVs to mine or JSON covers from "
                     "'discover --json'",
    )
    diff.add_argument("old", help="old cover: .json document or .csv file")
    diff.add_argument("new", help="new cover: .json document or .csv file")

    keys = subparsers.add_parser(
        "keys", help="discover minimal unique column combinations "
                     "(candidate keys) of a CSV file",
    )
    keys.add_argument("csv", help="input CSV file")
    keys.add_argument(
        "--sql-nulls", action="store_true",
        help="treat NULL <> NULL when grouping",
    )

    inds = subparsers.add_parser(
        "inds", help="discover inclusion dependencies / foreign-key "
                     "candidates across a directory of CSV files",
    )
    inds.add_argument(
        "directory", help="directory of CSV files (one table each)"
    )
    inds.add_argument("--max-arity", type=int, default=2)
    inds.add_argument(
        "--foreign-keys", action="store_true",
        help="only print INDs whose rhs is unique (FK candidates)",
    )

    trace = subparsers.add_parser(
        "trace", help="analyse trace JSONL files and run manifests "
                      "(summary, diff, critical-path, export-chrome)",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_summary = trace_sub.add_parser(
        "summary", help="phase breakdown, hot spans and critical path "
                        "of one trace or manifest",
    )
    trace_summary.add_argument("path", help="trace .jsonl or manifest .json")
    trace_summary.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the summary as JSON instead of text",
    )

    trace_diff = trace_sub.add_parser(
        "diff", help="compare phase timings of two traces/manifests "
                     "(old vs new)",
    )
    trace_diff.add_argument("old", help="old trace .jsonl or manifest .json")
    trace_diff.add_argument("new", help="new trace .jsonl or manifest .json")
    trace_diff.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the diff as JSON instead of a table",
    )

    trace_critical = trace_sub.add_parser(
        "critical-path", help="the heaviest root-to-leaf span chain, "
                              "with per-hop self time",
    )
    trace_critical.add_argument(
        "path", help="trace .jsonl or manifest .json"
    )
    trace_critical.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the path as JSON instead of text",
    )

    trace_chrome = trace_sub.add_parser(
        "export-chrome", help="convert a trace/manifest to Chrome "
                              "trace-event JSON (Perfetto-loadable)",
    )
    trace_chrome.add_argument("path", help="trace .jsonl or manifest .json")
    trace_chrome.add_argument(
        "--output", "-o", required=True, metavar="OUT.json",
        help="where to write the Chrome trace-event file",
    )

    subparsers.add_parser(
        "example", help="run the paper's worked example (section 2-4)"
    )

    serve = subparsers.add_parser(
        "serve", help="run the long-lived discovery daemon "
                      "(HTTP+JSON, concurrent sessions; docs/service.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8765,
        help="TCP port; 0 picks an ephemeral port, printed at startup",
    )
    serve.add_argument(
        "--cache-dir", metavar="DIR",
        help="artifact-store disk tier shared by every session "
             "(default: memory-only)",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=64,
        help="concurrent session bound; full + nothing idle -> HTTP 429",
    )
    serve.add_argument(
        "--session-ttl", type=float, default=3600.0, metavar="SECONDS",
        help="evict sessions idle this long (<= 0 disables eviction)",
    )
    serve.add_argument(
        "--jobs", type=int, default=1,
        help="default worker processes per mining request (0 = all cores)",
    )
    serve.add_argument(
        "--backend", choices=("python", "columnar"), default="python",
        help="default mining backend for new sessions",
    )
    serve.add_argument(
        "--telemetry-dir", metavar="DIR",
        help="write one run manifest per request into DIR",
    )
    serve.add_argument(
        "--fault-plan", metavar="PLAN.json",
        help="run the whole server under a reliability fault plan",
    )
    return parser


def _command_discover(args: argparse.Namespace) -> int:
    tracer, metrics, progress, sampler = _obs_hooks(args)
    with _fault_context(args, metrics) as fault_plan:
        result = _run_discover(args, tracer, metrics, progress, sampler)
    _report_injections(fault_plan)
    return result


def _run_discover(args: argparse.Namespace, tracer, metrics,
                  progress, sampler=None) -> int:
    cache = None
    if args.cache_dir:
        from repro.cache import ArtifactStore

        cache = ArtifactStore(cache_dir=args.cache_dir)
    relation = load_mining_input(
        args.csv, args.backend, nulls_equal=not args.sql_nulls,
        fingerprint=cache is not None, tracer=tracer,
    )
    miner = DepMiner(
        agree_algorithm=args.algorithm,
        max_couples=args.max_couples,
        backend=args.backend,
        transversal_algorithm=args.transversal,
        build_armstrong="real-world" if args.armstrong else "none",
        nulls_equal=not args.sql_nulls,
        max_lhs_size=args.max_lhs,
        cache=cache,
        jobs=args.jobs,
        tracer=tracer,
        metrics=metrics,
        progress=progress,
    )
    if args.append_paths:
        from repro.cache import IncrementalMiner

        incremental = IncrementalMiner(relation, miner=miner)
        for path in args.append_paths:
            extra = relation_from_csv(path)
            if extra.schema.names != relation.schema.names:
                raise ReproError(
                    f"--append file {path} has columns "
                    f"{list(extra.schema.names)}, the input has "
                    f"{list(relation.schema.names)}"
                )
            incremental.append(list(extra.rows()))
            print(
                f"appended {len(extra)} rows from {path} "
                f"({incremental.num_rows} total)", file=sys.stderr,
            )
        result = incremental.result
    else:
        result = miner.run(relation)
    if cache is not None:
        quarantine_note = " [disk tier quarantined]" if cache.quarantined \
            else ""
        print(
            f"cache: {cache.stats['cache.hit']} hit(s), "
            f"{cache.stats['cache.miss']} miss(es) in "
            f"{args.cache_dir}{quarantine_note}",
            file=sys.stderr,
        )
    print(fds_to_text(result.fds))
    if args.armstrong:
        print()
        if result.armstrong is not None:
            print("Real-world Armstrong relation:")
            print(result.armstrong.to_text())
        else:
            print(
                "No real-world Armstrong relation exists (Proposition 1); "
                "classical construction:"
            )
            print(result.classical_armstrong.to_text())
    if args.stats:
        print()
        print(result.summary())
    if args.json_path:
        from pathlib import Path

        from repro.serialize import fds_to_json

        Path(args.json_path).write_text(fds_to_json(result.fds))
        print(f"wrote JSON cover to {args.json_path}", file=sys.stderr)
    relation_info = None
    if getattr(args, "telemetry_path", None):
        from repro.obs import relation_summary

        # A CodedRelation materializes here, and only here: telemetry
        # summaries are row-wise by contract.
        summarized = relation.to_relation() \
            if hasattr(relation, "to_relation") else relation
        relation_info = relation_summary(
            summarized, nulls_equal=not args.sql_nulls, source=args.csv
        )
    _finish_obs(
        args, result.trace, metrics,
        meta={"command": "discover", "input": args.csv,
              "algorithm": args.algorithm, "backend": args.backend,
              "transversal": args.transversal,
              "jobs": args.jobs,
              "cache_dir": args.cache_dir,
              "appended": list(args.append_paths or ())},
        sampler=sampler, relation_info=relation_info,
    )
    return 0


def _load_cover(path_text: str):
    from pathlib import Path

    from repro.core.depminer import discover_fds
    from repro.serialize import fds_from_json

    path = Path(path_text)
    if path.suffix.lower() == ".json":
        return fds_from_json(path.read_text())
    return discover_fds(relation_from_csv(path))


def _command_diff(args: argparse.Namespace) -> int:
    from repro.explain import diff_covers

    old = _load_cover(args.old)
    new = _load_cover(args.new)
    diff = diff_covers(old, new)
    print(diff.render())
    return 0 if diff.is_equivalent else 2


def _command_armstrong(args: argparse.Namespace) -> int:
    relation = relation_from_csv(args.csv)
    result = DepMiner(build_armstrong="strict").run(relation)
    armstrong = result.armstrong
    if args.output:
        relation_to_csv(armstrong, args.output, name="armstrong")
        print(
            f"wrote {len(armstrong)} tuples "
            f"({len(relation)} in the input) to {args.output}"
        )
    else:
        print(armstrong.to_text(max_rows=len(armstrong)))
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    relation = generate_relation(
        args.attributes, args.tuples,
        correlation=args.correlation, seed=args.seed,
    )
    if args.output:
        relation_to_csv(relation, args.output, name="synthetic")
        print(f"wrote {len(relation)} tuples to {args.output}")
    else:
        print(relation.to_text(max_rows=50))
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    progress = None if args.quiet else lambda line: print(line, file=sys.stderr)
    tracer, metrics, miner_progress, sampler = _obs_hooks(args)
    if args.isolated and (tracer or metrics or miner_progress):
        print(
            "note: --isolated cells run in forked subprocesses; their "
            "spans and metrics cannot be collected",
            file=sys.stderr,
        )
    with _fault_context(args, metrics) as fault_plan:
        experiment, result = run_experiment(
            args.experiment, scale=args.scale,
            algorithms=args.algorithms, timeout=args.timeout,
            isolated=args.isolated, seed=args.seed, jobs=args.jobs,
            progress=progress,
            tracer=tracer, metrics=metrics, miner_progress=miner_progress,
        )
    _report_injections(fault_plan)
    print(experiment_report(experiment, result))
    _finish_obs(
        args, tracer, metrics,
        meta={"command": "bench", "experiment": args.experiment,
              "scale": args.scale, "algorithms": list(args.algorithms)},
        sampler=sampler,
    )
    return 0


def _load_trace_file(path_text: str):
    from repro.obs import load_trace

    try:
        return load_trace(path_text)
    except OSError as error:
        raise ReproError(f"cannot read trace {path_text}: {error}") from error
    except ValueError as error:
        raise ReproError(
            f"{path_text} is not a valid trace/manifest: {error}"
        ) from error


def _command_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        critical_path,
        diff_traces,
        export_chrome_trace,
        render_diff,
        render_summary,
        summarize_trace,
    )
    from repro.obs.analyze import render_critical_path

    if args.trace_command == "summary":
        loaded = _load_trace_file(args.path)
        summary = summarize_trace(loaded["spans"], loaded.get("phases"))
        if args.as_json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(render_summary(summary, loaded.get("meta")))
        return 0
    if args.trace_command == "critical-path":
        loaded = _load_trace_file(args.path)
        path = critical_path(loaded["spans"])
        if args.as_json:
            print(json.dumps(path, indent=2, sort_keys=True))
        else:
            print(render_critical_path(path))
        return 0
    if args.trace_command == "diff":
        old = _load_trace_file(args.old)
        new = _load_trace_file(args.new)
        diff = diff_traces(old, new)
        if args.as_json:
            print(json.dumps(diff, indent=2, sort_keys=True))
        else:
            print(render_diff(diff))
        return 0
    if args.trace_command == "export-chrome":
        loaded = _load_trace_file(args.path)
        export_chrome_trace(args.output, loaded["spans"],
                            meta=loaded.get("meta"))
        print(f"wrote Chrome trace to {args.output}", file=sys.stderr)
        return 0
    raise ReproError(f"unknown trace subcommand {args.trace_command!r}")


def _command_example(_args: argparse.Namespace) -> int:
    from repro.datasets import paper_example_relation

    relation = paper_example_relation()
    print("Input relation (the employee/department example):")
    print(relation.to_text())
    result = DepMiner().run(relation)
    print()
    print("Agree sets ag(r):")
    print("  " + ", ".join(
        s.compact() for s in result.agree_sets_view()
    ))
    print()
    print("Maximal sets:")
    for name, sets in result.max_sets_view().items():
        print(f"  max(dep(r), {name}) = "
              + "{" + ", ".join(s.compact() for s in sets) + "}")
    print()
    print(f"Minimal non-trivial FDs ({len(result.fds)}):")
    print(fds_to_text(result.fds))
    print()
    print("Real-world Armstrong relation:")
    print(result.armstrong.to_text())
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from repro.report import profile_relation
    from pathlib import Path

    name = Path(args.csv).stem
    tracer, metrics, progress, sampler = _obs_hooks(args)
    with _fault_context(args, metrics) as fault_plan:
        loaded = load_mining_input(args.csv, args.backend, tracer=tracer)
        if hasattr(loaded, "to_relation"):
            relation, source = loaded.to_relation(), loaded
        else:
            relation, source = loaded, None
        miner = DepMiner(backend=args.backend, tracer=tracer,
                         metrics=metrics, progress=progress)
        report = profile_relation(
            relation, name=name, miner=miner, source=source
        )
    _report_injections(fault_plan)
    markdown = report.to_markdown()
    if args.output:
        Path(args.output).write_text(markdown)
        print(f"wrote report to {args.output}")
        print(report.summary_line())
    else:
        print(markdown)
    _finish_obs(
        args, miner.last_trace, metrics,
        meta={"command": "report", "input": args.csv},
        sampler=sampler,
    )
    return 0


def _command_sample(args: argparse.Namespace) -> int:
    from repro.core.sampling import discover_with_sampling

    relation = relation_from_csv(args.csv)
    result = discover_with_sampling(
        relation, sample_size=args.sample_size, seed=args.seed
    )
    print(fds_to_text(result.fds))
    print(
        f"\n(exact cover from a {result.sample_size}-tuple sample of "
        f"{len(relation)}; {result.rounds} round(s), "
        f"{result.verifications} verification scans)"
    )
    return 0


def _command_keys(args: argparse.Namespace) -> int:
    from repro.core.keys_mining import discover_keys

    relation = relation_from_csv(args.csv)
    keys = discover_keys(relation, nulls_equal=not args.sql_nulls)
    if not keys:
        print(
            "no unique column combination exists "
            "(the file contains duplicate rows)"
        )
        return 0
    for key in keys:
        print("(" + ", ".join(key.names) + ")" if key.names else "()")
    print(f"\n{len(keys)} candidate key(s)", file=sys.stderr)
    return 0


def _command_inds(args: argparse.Namespace) -> int:
    from repro.ind import discover_inds, suggest_foreign_keys
    from repro.storage import Database

    db = Database("inds")
    loaded = db.load_directory(args.directory)
    print(
        f"loaded {len(loaded)} table(s): {', '.join(db.table_names())}",
        file=sys.stderr,
    )
    inds = discover_inds(db, max_arity=args.max_arity)
    if args.foreign_keys:
        inds = suggest_foreign_keys(db, inds)
    for ind in inds:
        print(ind)
    kind = "foreign-key candidate(s)" if args.foreign_keys else "IND(s)"
    print(f"\n{len(inds)} {kind}", file=sys.stderr)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        max_sessions=args.max_sessions,
        session_ttl=args.session_ttl,
        jobs=args.jobs,
        backend=args.backend,
        telemetry_dir=args.telemetry_dir,
        fault_plan=args.fault_plan,
    )
    return serve(config)


_COMMANDS = {
    "discover": _command_discover,
    "armstrong": _command_armstrong,
    "generate": _command_generate,
    "bench": _command_bench,
    "report": _command_report,
    "sample": _command_sample,
    "diff": _command_diff,
    "keys": _command_keys,
    "inds": _command_inds,
    "trace": _command_trace,
    "example": _command_example,
    "serve": _command_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        configure_logging(args.verbose)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
