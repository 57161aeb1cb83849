"""Command line interface for the SMARTS reproduction.

The CLI is a thin veneer over :mod:`repro.api` (the library's unified
session layer) and exposes the main workflows without writing any
Python:

* ``repro-smarts list`` — show the synthetic benchmark suite.
* ``repro-smarts estimate gcc.syn`` — estimate CPI (or EPI) with the
  SMARTS two-step procedure, optionally validating against a full
  detailed run.
* ``repro-smarts sweep --benchmarks gcc.syn,mcf.syn --workers 4`` — run
  a batch of estimates across benchmarks and machines in parallel.
* ``repro-smarts reference gcc.syn`` — run the full-stream detailed
  simulation and report CPI, EPI, and miss rates.
* ``repro-smarts simpoint gcc.syn`` — run the SimPoint baseline.
* ``repro-smarts study run|ls|report`` — the declarative experiment
  layer: list the registered studies, execute one through
  ``Session.run_study`` (parallel batches, result caching, checkpoints
  all apply), and export its tidy rows as CSV/JSON.
* ``repro-smarts checkpoint build`` — build the warm-state checkpoint
  sets that ``--checkpoints`` runs restore from;
  ``build --benchmarks all --machines 8-way,16-way`` batch-builds the
  whole suite for warm-up.
* ``repro-smarts serve`` — run the simulation-as-a-service HTTP job
  server (``repro.server``): submit RunSpecs and studies as JSON over
  REST, poll jobs, fetch results; ``--host/--port/--workers/
  --queue-depth`` tune the service.
* ``repro-smarts store ls|stats|gc`` — inspect and collect the unified
  content-addressed artifact store (``.artifacts/``) every cache lives
  in; ``ls`` also lists checkpoint-set and BBV-profile metadata and the
  server's job records; ``gc --namespaces checkpoint,bbv`` collects only
  checkpoint sets and profiles, and a plain ``gc`` also prunes the
  work-queue and job records.
* ``repro-smarts worker`` — run a queue worker process draining the
  file-based work queue of the ``queue`` executor backend (started by
  ``QueueBackend`` per batch, or by hand for a standing worker fleet);
  ``--backend``/``REPRO_BACKEND`` select the backend for ``sweep`` and
  ``serve``.

Commands take ``--machine`` (``8-way`` / ``16-way`` are the scaled
Table 3 configurations) and ``--scale``; the RunSpecs they build reject
a bad name or value, which exits 2 before anything is simulated.
``estimate``, ``sweep``, and ``study run`` accept ``--json`` to emit
machine-readable payloads (``RunResult.to_dict()`` for estimates and
sweeps) instead of text tables, and ``--checkpoints`` to replace
functional fast-forwarding with checkpointed warm-state restore
(estimates are bit-identical either way).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.api import (
    BENCHMARK_NAMES,
    DEFAULT_STRIDE,
    MACHINE_NAMES,
    STRATEGIES,
    STUDIES,
    AdaptiveStrategy,
    CheckpointStore,
    RunSpec,
    Session,
    SpecError,
    SystematicStrategy,
    SUITE_NAMES,
    default_context,
    format_table,
    resolve_benchmark,
    resolve_machine,
    run_reference,
    run_simpoint,
    run_study,
    suite_specs,
    to_jsonable,
)

#: A study payload's text reports, printed in this order by ``study run``:
#: what regenerates exactly, then what this host's timings produced.
TEXT_REPORTS = ("report", "measured_report")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--machine", choices=MACHINE_NAMES,
                        default="8-way", help="machine configuration")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="benchmark length scale factor")


def _split_names(raw: str) -> list[str]:
    return [name.strip() for name in raw.split(",") if name.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-smarts",
        description="SMARTS sampling microarchitecture simulation "
                    "(ISCA 2003 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the synthetic benchmark suite")

    estimate = sub.add_parser(
        "estimate", help="estimate CPI/EPI with the SMARTS procedure")
    estimate.add_argument("benchmark", choices=BENCHMARK_NAMES)
    _add_common(estimate)
    estimate.add_argument("--metric", choices=["cpi", "epi"], default="cpi")
    estimate.add_argument("--strategy", choices=["systematic", "adaptive"],
                          default="systematic",
                          help="two-round n-tuning (systematic) or "
                               "run-to-target-CI batching (adaptive)")
    estimate.add_argument("--unit-size", type=int, default=50,
                          help="sampling unit size U (instructions)")
    estimate.add_argument("--warming", type=int, default=None,
                          help="detailed warming W (default: recommended)")
    estimate.add_argument("--no-functional-warming", action="store_true",
                          help="disable functional warming (not recommended)")
    estimate.add_argument("--epsilon", type=float, default=0.075,
                          help="target relative confidence interval")
    estimate.add_argument("--confidence", type=float, default=0.997)
    estimate.add_argument("--n-init", type=int, default=300,
                          help="initial sample size (systematic)")
    estimate.add_argument("--rounds", type=int, default=2,
                          help="maximum sampling rounds (systematic)")
    estimate.add_argument("--n-min", type=int, default=30,
                          help="adaptive: smallest sample before a "
                               "stopping decision")
    estimate.add_argument("--n-max", type=int, default=None,
                          help="adaptive: hard cap on sampled units "
                               "(default: the whole population)")
    estimate.add_argument("--batch-size", type=int, default=100,
                          help="adaptive: units simulated between CI "
                               "re-checks")
    estimate.add_argument("--validate", action="store_true",
                          help="also run the full detailed reference and "
                               "report the actual error")
    estimate.add_argument("--json", action="store_true",
                          help="emit the RunResult payload as JSON")
    estimate.add_argument("--no-cache", action="store_true",
                          help="bypass the on-disk run-result cache")
    estimate.add_argument("--checkpoints", action="store_true",
                          help="restore checkpointed warm state at each "
                               "sampling unit instead of fast-forwarding "
                               "(builds the checkpoint set on first use)")

    sweep = sub.add_parser(
        "sweep", help="run a batch of estimates across benchmarks/machines")
    sweep.add_argument("--benchmarks", default=None,
                       help="comma-separated benchmark names (default: all)")
    sweep.add_argument("--machines", default="8-way",
                       help="comma-separated machine names")
    sweep.add_argument("--strategy", choices=sorted(STRATEGIES),
                       default="systematic")
    sweep.add_argument("--scale", type=float, default=0.25,
                       help="benchmark length scale factor")
    sweep.add_argument("--metric", choices=["cpi", "epi"], default="cpi")
    sweep.add_argument("--epsilon", type=float, default=0.075)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--workers", type=int, default=None,
                       help="parallel worker processes (default: serial)")
    sweep.add_argument("--backend", default=None,
                       help="executor backend for cache misses (serial, "
                            "local-pool, queue; default: REPRO_BACKEND or "
                            "automatic)")
    sweep.add_argument("--json", action="store_true",
                       help="emit the RunResult payloads as JSON")
    sweep.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk run-result cache")
    sweep.add_argument("--checkpoints", action="store_true",
                       help="restore checkpointed warm state at each "
                            "sampling unit (sets are built once and "
                            "shared across workers)")

    reference = sub.add_parser(
        "reference", help="run full-stream detailed simulation")
    reference.add_argument("benchmark", choices=BENCHMARK_NAMES)
    _add_common(reference)
    reference.add_argument("--no-cache", action="store_true",
                           help="ignore the on-disk reference cache")

    simpoint = sub.add_parser("simpoint", help="run the SimPoint baseline")
    simpoint.add_argument("benchmark", choices=BENCHMARK_NAMES)
    _add_common(simpoint)
    simpoint.add_argument("--interval-size", type=int, default=2500)
    simpoint.add_argument("--max-clusters", type=int, default=8)

    study = sub.add_parser(
        "study", help="run and inspect the declarative study registry")
    study_sub = study.add_subparsers(dest="study_command", required=True)
    study_run = study_sub.add_parser(
        "run", help="execute a registered study and print its report")
    study_run.add_argument("name", choices=sorted(STUDIES))
    study_run.add_argument("--json", action="store_true",
                           help="emit {study, title, rows, data} as JSON "
                                "(without the text report)")
    study_run.add_argument("--checkpoints", action="store_true",
                           help="run the study's estimation grid with "
                                "checkpointed functional warming")
    study_run.add_argument("--workers", type=int, default=None,
                           help="worker processes for the study's grid, "
                                "overriding REPRO_WORKERS for this "
                                "invocation (estimates are identical "
                                "either way; wall-clock speedup is "
                                "host-dependent)")
    study_ls = study_sub.add_parser(
        "ls", help="list the registered studies")
    study_ls.add_argument("--json", action="store_true",
                          help="emit the study metadata as JSON")
    study_report = study_sub.add_parser(
        "report", help="execute a study and emit its tidy rows")
    study_report.add_argument("name", choices=sorted(STUDIES))
    study_report.add_argument("--format", choices=["csv", "json"],
                              default="csv", help="tidy-row output format")
    study_report.add_argument("--output", default=None,
                              help="write rows to this file instead of stdout")
    study_report.add_argument("--checkpoints", action="store_true",
                              help="run the study's estimation grid with "
                                   "checkpointed functional warming")
    study_report.add_argument("--workers", type=int, default=None,
                              help="worker processes for the study's grid, "
                                   "overriding REPRO_WORKERS for this "
                                   "invocation")

    checkpoint = sub.add_parser(
        "checkpoint", help="build warm-state checkpoint sets")
    ckpt_sub = checkpoint.add_subparsers(dest="checkpoint_command",
                                         required=True)
    build = ckpt_sub.add_parser(
        "build", help="build (or refresh) checkpoint sets; one benchmark "
                      "positionally, or a batch via --benchmarks/--machines")
    build.add_argument("benchmark", nargs="?", default=None,
                       choices=BENCHMARK_NAMES)
    _add_common(build)
    build.add_argument("--benchmarks", default=None,
                       help="comma-separated benchmark names, or 'all' for "
                            "the whole suite (batch build)")
    build.add_argument("--machines", default=None,
                       help="comma-separated machine names (default: "
                            "--machine)")
    build.add_argument("--unit-size", type=int, default=50,
                       help="sampling unit size U the set is keyed by")
    build.add_argument("--stride", type=int, default=None,
                       help="snapshot stride in sampling units; omit to "
                            "keep an existing set's grid (new builds "
                            f"default to {DEFAULT_STRIDE})")

    store = sub.add_parser(
        "store", help="inspect and collect the unified artifact store")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_ls = store_sub.add_parser(
        "ls", help="list stored artifacts per namespace, checkpoint-set "
                   "and BBV-profile metadata, and server job records")
    store_ls.add_argument("--json", action="store_true",
                          help="emit the listing as JSON")
    store_stats = store_sub.add_parser(
        "stats", help="per-namespace entry counts and sizes")
    store_stats.add_argument("--json", action="store_true",
                             help="emit the stats payload as JSON")
    store_gc = store_sub.add_parser(
        "gc", help="remove stale artifacts (old versions, tmp litter, "
                   "quarantined blobs)")
    store_gc.add_argument("--all", action="store_true",
                          help="remove every stored artifact")
    store_gc.add_argument("--max-age-days", type=float, default=None,
                          help="also remove artifacts older than this "
                               "many days")
    store_gc.add_argument("--dry-run", action="store_true",
                          help="report what would be removed without "
                               "deleting")
    store_gc.add_argument("--namespaces", default=None,
                          help="comma-separated namespaces to collect, "
                               "e.g. checkpoint,bbv (default: all, plus "
                               "queue and job records)")

    worker = sub.add_parser(
        "worker", help="run a queue-backend worker draining the shared "
                       "file work queue")
    worker.add_argument("--queue-dir", default=None,
                        help="work-queue directory (default: "
                             "REPRO_QUEUE_DIR or <artifacts>/queue)")
    worker.add_argument("--poll", type=float, default=0.2,
                        help="seconds between queue polls when idle")
    worker.add_argument("--lease", type=float, default=None,
                        help="claim lease in seconds; claims with no "
                             "heartbeat for this long are requeued")
    worker.add_argument("--max-idle", type=float, default=None,
                        help="exit after this many consecutive idle "
                             "seconds (default: run forever)")
    worker.add_argument("--max-jobs", type=int, default=None,
                        help="exit after processing this many jobs")

    serve = sub.add_parser(
        "serve", help="run the simulation-as-a-service HTTP job server")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8023,
                       help="bind port (0 picks an ephemeral port)")
    serve.add_argument("--workers", type=int, default=2,
                       help="background job worker threads")
    serve.add_argument("--queue-depth", type=int, default=16,
                       help="max queued jobs before submissions get 429")
    serve.add_argument("--no-cache", action="store_true",
                       help="bypass the shared run-result cache (every "
                            "submission simulates)")
    serve.add_argument("--backend", default=None,
                       help="executor backend for spec execution (serial, "
                            "local-pool, queue; default: REPRO_BACKEND or "
                            "automatic)")

    return parser


#: JSON coercion for study payloads (shared with the server layer).
_to_jsonable = to_jsonable


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _cmd_list() -> int:
    rows = [[spec.name, spec.category, spec.description]
            for spec in suite_specs()]
    print(format_table(["benchmark", "category", "description"], rows,
                       title="Synthetic benchmark suite (SPEC2K stand-ins)"))
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    machine = resolve_machine(args.machine)
    # Leave detailed_warming=None when not given explicitly: the strategy
    # defers to the machine recommendation, and the spec hash stays
    # shareable with sweep/example runs that also use the default.
    if args.strategy == "adaptive":
        strategy = AdaptiveStrategy(
            unit_size=args.unit_size,
            n_min=args.n_min,
            n_max=args.n_max,
            batch_size=args.batch_size,
            detailed_warming=args.warming,
            functional_warming=not args.no_functional_warming,
        )
    else:
        strategy = SystematicStrategy(
            unit_size=args.unit_size,
            n_init=args.n_init,
            max_rounds=args.rounds,
            detailed_warming=args.warming,
            functional_warming=not args.no_functional_warming,
        )
    warming = strategy.effective_warming(machine)
    spec = RunSpec(
        benchmark=args.benchmark,
        machine=args.machine,
        strategy=strategy,
        scale=args.scale,
        metric=args.metric,
        epsilon=args.epsilon,
        confidence=args.confidence,
        checkpoints="auto" if args.checkpoints else "off",
    )
    session = Session(use_cache=not args.no_cache)
    result = session.run(spec)

    validation = None
    if args.validate:
        program = resolve_benchmark(args.benchmark, args.scale)
        reference = run_reference(program, machine)
        true_value = reference.cpi if args.metric == "cpi" else reference.epi
        validation = {
            "true_value": true_value,
            "error": (result.estimate_mean - true_value) / true_value,
        }

    if args.json:
        payload = result.to_dict()
        if validation is not None:
            payload["validation"] = validation
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    label = args.metric.upper()
    print(f"benchmark            : {args.benchmark} "
          f"({result.benchmark_length:,} instructions)")
    print(f"machine              : {machine.name}")
    print(f"U / W / warming mode : {args.unit_size} / {warming} / "
          f"{'functional' if not args.no_functional_warming else 'detailed-only'}")
    print(f"{label} estimate         : {result.estimate_mean:.4f}")
    print(f"coefficient of var.  : {result.estimate_cv:.3f}")
    print(f"confidence interval  : ±{result.confidence_interval:.2%} "
          f"at {args.confidence:.1%} confidence "
          f"({'target met' if result.target_met else 'target NOT met'})")
    print(f"sampling rounds      : {result.rounds} "
          f"(n = {[r['sample_size'] for r in result.round_estimates]})")
    print(f"measured instructions: {result.instructions_measured:,} "
          f"({result.instructions_measured / result.benchmark_length:.2%} "
          f"of the stream)")
    if result.checkpoint_restores:
        print(f"checkpoint restores  : {result.checkpoint_restores} "
              f"({result.instructions_restored:,} instructions skipped, "
              f"{result.instructions_fastforwarded:,} still fast-forwarded)")
    if validation is not None:
        print(f"true {label} (full run)  : {validation['true_value']:.4f}")
        print(f"actual error         : {validation['error']:+.2%}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    benchmarks = (_split_names(args.benchmarks) if args.benchmarks
                  else list(SUITE_NAMES))
    machines = _split_names(args.machines)
    # Built (and so validated) before any session or backend exists.
    specs = Session.sweep_specs(
        benchmarks=benchmarks, machines=machines,
        strategy=STRATEGIES[args.strategy](),
        scale=args.scale, metric=args.metric, seed=args.seed,
        epsilon=args.epsilon,
        checkpoints="auto" if args.checkpoints else "off")
    session = Session(use_cache=not args.no_cache, backend=args.backend)
    batch = session.run_batch_report(specs, max_workers=args.workers)
    results = batch.completed

    if args.json:
        if batch.ok:
            # Fully-successful sweeps keep the historical schema: a
            # plain list of result dicts.
            print(json.dumps([r.to_dict() for r in results],
                             indent=2, sort_keys=True))
            return 0
        print(json.dumps({"results": [r.to_dict() for r in results],
                          "failures": [f.to_dict()
                                       for f in batch.failures]},
                         indent=2, sort_keys=True))
        return 1

    rows = []
    for result in results:
        rows.append([
            result.spec.benchmark,
            result.spec.machine,
            f"{result.estimate_mean:.4f}",
            f"±{result.confidence_interval:.2%}",
            "yes" if result.target_met else "no",
            result.sample_size,
            f"{result.detailed_fraction:.2%}",
            f"{result.wall_seconds:.1f}s",
        ])
    print(format_table(
        ["benchmark", "machine", f"{args.metric.upper()}", "99.7% CI",
         "target met", "n", "detailed fraction", "wall"],
        rows,
        title=f"Sweep: {args.strategy} strategy over "
              f"{len(benchmarks)} benchmarks x {len(machines)} machines"))
    if not batch.ok:
        _print_failure_table(batch.failures)
        return 1
    return 0


def _print_failure_table(failures) -> None:
    """Render per-spec failure envelopes to stderr as a table."""
    rows = [[row["benchmark"], row["machine"], row["error_type"],
             row["attempts"], "yes" if row["transient"] else "no",
             row["error"][:60]]
            for row in (f.row() for f in failures)]
    print(format_table(
        ["benchmark", "machine", "error", "attempts", "transient",
         "detail"], rows,
        title=f"Failed specs ({len(failures)})"), file=sys.stderr)


def _cmd_reference(args: argparse.Namespace) -> int:
    machine = resolve_machine(args.machine)
    program = resolve_benchmark(args.benchmark, args.scale)
    reference = run_reference(program, machine,
                              use_cache=not args.no_cache)
    print(f"benchmark    : {args.benchmark}")
    print(f"machine      : {machine.name}")
    print(f"instructions : {reference.instructions:,}")
    print(f"cycles       : {reference.cycles:,}")
    print(f"CPI          : {reference.cpi:.4f}")
    print(f"EPI (nJ)     : {reference.epi:.4f}")
    print(f"wall seconds : {reference.seconds:.1f}")
    return 0


def _cmd_simpoint(args: argparse.Namespace) -> int:
    machine = resolve_machine(args.machine)
    program = resolve_benchmark(args.benchmark, args.scale)
    result = run_simpoint(program, machine,
                          interval_size=args.interval_size,
                          max_clusters=args.max_clusters)
    print(f"benchmark          : {args.benchmark}")
    print(f"machine            : {machine.name}")
    print(f"clusters           : {result.num_clusters}")
    print(f"intervals simulated: {len(result.simpoints)} x "
          f"{result.interval_size} instructions")
    print(f"CPI estimate       : {result.cpi:.4f}")
    print(f"EPI estimate (nJ)  : {result.epi:.4f}")
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    if args.benchmarks:
        if args.benchmark is not None:
            print("error: give a positional benchmark or --benchmarks, "
                  "not both", file=sys.stderr)
            return 2
        if args.benchmarks.strip() == "all":
            benchmarks = list(SUITE_NAMES)
        else:
            benchmarks = _split_names(args.benchmarks)
    elif args.benchmark is not None:
        benchmarks = [args.benchmark]
    else:
        print("error: a benchmark (positional) or --benchmarks is required",
              file=sys.stderr)
        return 2
    machines = (_split_names(args.machines) if args.machines
                else [args.machine])
    # The specs validate every name and the unit size up front.
    specs = Session.sweep_specs(
        benchmarks=benchmarks, machines=machines, scale=args.scale,
        strategy=SystematicStrategy(unit_size=args.unit_size))

    store = CheckpointStore()
    kwargs = {} if args.stride is None else {"stride": args.stride}
    rows = []
    for spec in specs:
        program = resolve_benchmark(spec.benchmark, spec.scale)
        machine = resolve_machine(spec.machine)
        ckpt = store.get_or_build(program, machine, args.unit_size, **kwargs)
        path = store.path_for(program, machine, args.unit_size)
        if len(specs) == 1:
            chunk = ckpt.stride * ckpt.unit_size
            aligned = any(snap.position % chunk for snap in ckpt.snapshots)
            print(f"benchmark       : {spec.benchmark} "
                  f"({ckpt.benchmark_length:,} instructions)")
            print(f"machine         : {machine.name} (warm geometry "
                  f"{ckpt.machine_hash})")
            print(f"unit size       : {ckpt.unit_size}")
            print(f"snapshots       : {len(ckpt.snapshots)} "
                  f"(base grid every {chunk:,} instructions"
                  f"{', plus warm-aligned points' if aligned else ''})")
            print(f"file            : {path} "
                  f"({path.stat().st_size / 1024:.0f} KiB)")
            return 0
        rows.append([
            spec.benchmark, spec.machine, ckpt.unit_size,
            len(ckpt.snapshots), f"{ckpt.benchmark_length:,}",
            f"{path.stat().st_size / 1024:.0f} KiB",
        ])
    print(format_table(
        ["benchmark", "machine", "U", "snapshots", "length", "size"],
        rows,
        title=f"Checkpoint batch build: {len(rows)} sets under "
              f"{store.directory}"))
    return 0


def _study_context(checkpoints: bool):
    """The process-wide context, with checkpoint mode applied on request.

    Returns ``(ctx, restore)``: ``restore()`` puts the prior mode back —
    ``default_context()`` is process-cached, so the flag must never leak
    into later runs in the same process.
    """
    ctx = default_context()
    previous = ctx.checkpoints
    if checkpoints:
        ctx.checkpoints = "auto"

    def restore() -> None:
        ctx.checkpoints = previous

    return ctx, restore


def _cmd_study(args: argparse.Namespace) -> int:
    if args.study_command == "ls":
        rows = [study.describe() for study in STUDIES.values()]
        if args.json:
            print(json.dumps({"studies": rows}, indent=2, sort_keys=True))
            return 0
        print(format_table(
            ["name", "title", "grid"],
            [[r["name"], r["title"], "yes" if r["has_grid"] else "-"]
             for r in rows],
            title=f"Registered studies ({len(rows)})"))
        return 0

    from repro.reliability import BatchExecutionError

    ctx, restore = _study_context(args.checkpoints)
    try:
        report = run_study(args.name, ctx, max_workers=args.workers)
    except BatchExecutionError as exc:
        print(f"study {args.name!r} could not complete: {exc}",
              file=sys.stderr)
        _print_failure_table(exc.report.failures)
        return 1
    finally:
        restore()

    if args.study_command == "run":
        if args.json:
            print(json.dumps({"study": report.study, "title": report.title,
                              "rows": _to_jsonable(report.rows),
                              "data": {k: _to_jsonable(v)
                                       for k, v in report.data.items()
                                       if k not in TEXT_REPORTS}},
                             indent=2, sort_keys=True))
            return 0
        print("\n\n".join(report.data[k] for k in TEXT_REPORTS
                           if k in report.data))
        return 0

    # report: tidy rows as CSV/JSON, to stdout or a file.
    text = (report.rows_csv() if args.format == "csv"
            else report.rows_json() + "\n")
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"wrote {len(report.rows)} rows to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import ArtifactStore

    store = ArtifactStore()
    if args.store_command == "stats":
        stats = store.stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        rows = [[name, ns["entries"], ns["files"],
                 f"{ns['size_bytes'] / 1024:.0f} KiB", ns["directory"]]
                for name, ns in sorted(stats["namespaces"].items())]
        print(format_table(
            ["namespace", "entries", "files", "size", "directory"], rows,
            title=f"Artifact store: {stats['root']} "
                  f"({stats['size_bytes'] / 1024:.0f} KiB, "
                  f"{stats['quarantined']} quarantined)"))
        return 0
    if args.store_command == "ls":
        return _store_ls(store, args.json)
    # gc
    namespaces = (tuple(_split_names(args.namespaces)) if args.namespaces
                  else None)
    try:
        removed = store.gc(namespaces=namespaces,
                           max_age_days=args.max_age_days,
                           remove_all=args.all, dry_run=args.dry_run)
    except ValueError as exc:  # an unknown namespace
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verb = "would remove" if args.dry_run else "removed"
    print(f"{verb} {len(removed)} file(s) from {store.root}")
    for path in removed:
        print(f"  {path.name}")
    if namespaces is None:
        # The work queue and the server's job queue live under the same
        # artifact root; their terminal done/failed envelopes age out
        # with the same flags.
        from repro.backends.queue import FileWorkQueue
        from repro.server.jobs import jobs_queue

        for queue in (FileWorkQueue(), jobs_queue()):
            queue_removed = queue.gc(max_age_days=args.max_age_days,
                                     remove_all=args.all,
                                     dry_run=args.dry_run)
            print(f"{verb} {len(queue_removed)} queue record(s) from "
                  f"{queue.directory}")
            for path in queue_removed:
                print(f"  {path.name}")
    return 0


def _store_ls(store, as_json: bool) -> int:
    """List every artifact, then checkpoint sets, BBV profiles and jobs."""
    from repro.server.jobs import jobs_queue, list_jobs
    from repro.store import NAMESPACES

    entries = []
    for namespace in NAMESPACES:
        directory = store.namespace_dir(namespace)
        if not directory.is_dir():
            continue
        for path in sorted(directory.iterdir()):
            if path.is_file() and not path.name.endswith(".tmp"):
                entries.append({"namespace": namespace, "name": path.name,
                                "size_bytes": path.stat().st_size})
    checkpoints = CheckpointStore(store=store)
    sets = checkpoints.entries()
    profiles = checkpoints.bbv_entries()
    jobs = list_jobs(jobs_queue())
    if as_json:
        print(json.dumps({"root": str(store.root), "artifacts": entries,
                          "sets": sets, "bbv_profiles": profiles,
                          "jobs": jobs}, indent=2, sort_keys=True))
        return 0
    print(format_table(
        ["namespace", "artifact", "size"],
        [[e["namespace"], e["name"], f"{e['size_bytes'] / 1024:.0f} KiB"]
         for e in entries],
        title=f"Artifact store: {store.root} ({len(entries)} artifacts)"))
    if sets:
        print()
        print(format_table(
            ["benchmark", "machine", "U", "stride", "snapshots", "length",
             "geometry", "size"],
            [[r["benchmark"], r["machine"], r["unit_size"], r["stride"],
              r["snapshots"], f"{r['benchmark_length']:,}",
              r["machine_hash"], f"{r['size_bytes'] / 1024:.0f} KiB"]
             for r in sets],
            title=f"Checkpoint sets ({len(sets)})"))
    if profiles:
        print()
        print(format_table(
            ["benchmark", "interval", "limit", "intervals", "size"],
            [[p["benchmark"], p["interval_size"],
              p["limit"] if p["limit"] is not None else "full",
              p["intervals"], f"{p['size_bytes'] / 1024:.0f} KiB"]
             for p in profiles],
            title=f"BBV profiles ({len(profiles)})"))
    if jobs:
        print()
        print(format_table(
            ["id", "kind", "status", "target", "cached", "error"],
            [[r["id"], r["kind"], r["status"],
              r["payload"].get("benchmark") or r["payload"].get("study", ""),
              "yes" if r["cached"] else "-",
              (r["error"] or "-").strip().splitlines()[-1][:40]]
             for r in jobs],
            title=f"Server jobs ({len(jobs)})"))
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.backends import DEFAULT_LEASE, run_worker

    lease = DEFAULT_LEASE if args.lease is None else args.lease
    processed = run_worker(args.queue_dir, poll=args.poll, lease=lease,
                           max_idle=args.max_idle, max_jobs=args.max_jobs)
    print(f"worker exiting after {processed} job(s)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import ServerConfig, serve

    return serve(ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        use_cache=not args.no_cache,
        backend=args.backend,
    ))


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "reference":
            return _cmd_reference(args)
        if args.command == "simpoint":
            return _cmd_simpoint(args)
        if args.command == "checkpoint":
            return _cmd_checkpoint(args)
        if args.command == "study":
            return _cmd_study(args)
        if args.command == "store":
            return _cmd_store(args)
        if args.command == "worker":
            return _cmd_worker(args)
        if args.command == "serve":
            return _cmd_serve(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. `... | head`) closed the pipe; point
        # stdout at devnull so interpreter shutdown doesn't re-raise.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover - parser.error raises


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
