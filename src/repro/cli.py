"""Command-line entry point: ``python -m repro <experiment> [options]``.

Examples::

    python -m repro list                      # show available experiments
    python -m repro fig4                      # regenerate Figure 4
    python -m repro all                       # regenerate everything (slow)
    python -m repro scale128 --jobs 4         # fan the sweep out to 4 procs
    python -m repro fig7 --cache-stats        # show result-cache hit rates
    python -m repro bench --quick --jobs 2    # serial/parallel/cached bench
    python -m repro fig3 --trace t.json       # capture a Perfetto trace
    python -m repro fig3 --metrics m.json     # write a metrics manifest
    python -m repro fig6 --profile            # print counter/span profile
    python -m repro timeline                  # ASCII Gantt of a demo run
    python -m repro timeline --trace t.json   # ... of a captured trace
    python -m repro memscope fig6             # memory-system profile
    python -m repro memscope fig6 --json      # ... as JSON
    python -m repro fig3 --memscope --metrics m.json   # fold into manifest
    python -m repro critscope fig3            # critical path / wait states
    python -m repro critscope fig2 --what-if forkjoin=2
    python -m repro fig3 --critscope --metrics m.json  # fold into manifest
    python -m repro hostscope fig2            # host-time self-profile
    python -m repro hostscope fig2 --json     # ... as JSON
    python -m repro fig3 --hostscope --metrics m.json  # fold into manifest
    python -m repro fig3 --jobs 4 --progress  # live JSONL sweep telemetry
    python -m repro bench --compare benchmarks/BENCH_baseline.json
    python -m repro fig3 --jobs 4 --journal j.jsonl   # crash-safe journal
    python -m repro fig3 --jobs 4 --journal j.jsonl --resume  # pick up
    python -m repro fig3 --jobs 4 --unit-timeout 60 --retries 3
    python -m repro fig3 --jobs 4 --chaos examples/chaos/kill_and_corrupt.json
    python -m repro bench --quick --ledger     # append to the perf ledger
    python -m repro ledger trend               # sparkline trajectory
    python -m repro ledger gate --window 5     # windowed regression gate
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import ExitStack
from typing import List, Optional

from .core import spp1000
from .experiments import list_experiments, run_experiment
from .faults import use_faults
from .obs.scopes import SCOPES
from .sim import Tracer, use_tracer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduce the tables and figures of 'A Performance "
                     "Evaluation of the Convex SPP-1000' (SC'95) on the "
                     "simulated machine."))
    verbs = [f"'{name} <experiment>' ({scope.verb_help})"
             for name, scope in SCOPES.items()]
    parser.add_argument(
        "experiment", nargs="?", default=None,
        help="experiment id (fig2, fig3, ...), 'list', 'all', 'bench' "
             "(serial vs parallel vs cached wall-clock benchmark), "
             "'timeline' (ASCII Gantt view of a trace), "
             + ", ".join(verbs[:-1]) + ", or " + verbs[-1])
    parser.add_argument(
        "--hypernodes", type=int, default=2,
        help="hypernodes in the simulated machine (default: 2, as measured "
             "in the paper)")
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced repetitions / problem sizes for a fast run")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="seed python/numpy RNGs for reproducible workload generation")
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a Chrome trace-event JSON of the run to PATH (open in "
             "Perfetto or chrome://tracing); with the 'timeline' command, "
             "the trace file to render instead")
    parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write a metrics.json manifest (headline data, per-phase "
             "counter deltas, imbalance, instrumentation overhead) to PATH")
    parser.add_argument(
        "--profile", action="store_true",
        help="print an hpm/CXpa-style profile (counters + span summary) "
             "after each experiment")
    parser.add_argument(
        "--faults", metavar="PATH", default=None,
        help="fault-plan JSON (see docs/robustness.md): inject SCI ring "
             "failures, CPU/hypernode failures, and PVM message loss at "
             "simulated timestamps")
    parser.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="persist each completed sweep point of a long experiment to "
             "PATH (JSON), enabling --resume after a kill")
    parser.add_argument(
        "--journal", metavar="PATH", default=None,
        help="crash-safe sweep journal: append every unit completion to "
             "PATH (JSONL, fsync-ed) so --resume replays an interrupted "
             "--jobs N sweep exactly where it died; fabric experiments "
             "only")
    parser.add_argument(
        "--resume", action="store_true",
        help="with --checkpoint and/or --journal: skip points already "
             "recorded on disk")
    parser.add_argument(
        "--unit-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock limit per work-unit attempt; a worker that "
             "neither finishes nor fails in time is terminated, replaced, "
             "and the unit retried (default: no timeout)")
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="worker retries per failed unit (exponential backoff) before "
             "the final in-process attempt and quarantine (default: 2)")
    parser.add_argument(
        "--chaos", metavar="PATH", default=None,
        help="host-chaos plan JSON (see docs/robustness.md): "
             "deterministically kill workers, delay units, corrupt cache "
             "entries, and drop results to exercise the resilience "
             "machinery; $REPRO_CHAOS sets a default")
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for unit-aware experiments (default: 1, "
             "serial in-process; 'bench' defaults to 2)")
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="result-cache directory (default: $REPRO_CACHE_DIR, else "
             "$XDG_CACHE_HOME/repro, else ~/.cache/repro)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the content-addressed result cache for this run")
    parser.add_argument(
        "--cache-stats", action="store_true",
        help="print an execution summary (units, cache hits, workers) "
             "after each experiment")
    parser.add_argument(
        "--bench-out", metavar="PATH", default="BENCH_exec.json",
        help="with 'bench': where to write the benchmark JSON "
             "(default: BENCH_exec.json)")
    parser.add_argument(
        "--bench-experiments", metavar="IDS", default=None,
        help="with 'bench': comma-separated experiment ids to benchmark "
             "(default: every unit-aware experiment)")
    parser.add_argument(
        "--compare", metavar="PATH", default=None,
        help="with 'bench': baseline BENCH_exec.json to diff the fresh "
             "measurements against; exits 1 when any experiment's serial "
             "path regressed past the noise threshold")
    parser.add_argument(
        "--bench-diff-out", metavar="PATH", default=None,
        help="with 'bench --compare': also write a markdown regression "
             "report to PATH")
    parser.add_argument(
        "--ledger", nargs="?", const="benchmarks/LEDGER.jsonl",
        default=None, metavar="PATH",
        help="append one checksummed record (timings, throughput, "
             "fidelity residuals, git provenance) to the longitudinal "
             "performance ledger at PATH (bare --ledger uses "
             "benchmarks/LEDGER.jsonl); works with 'bench' and with "
             "--metrics runs; inspect with 'python -m repro ledger'")
    for scope in SCOPES.values():
        scope.add_flags(parser)
    parser.add_argument(
        "--progress", nargs="?", const="-", default=None, metavar="PATH",
        help="stream live JSONL sweep telemetry (unit completions with "
             "host timings, ETA, cache hit-rate, worker occupancy) to "
             "PATH, or to stderr when PATH is omitted; fabric "
             "experiments only")
    parser.add_argument(
        "--what-if", action="append", default=None, metavar="CAT=FACTOR",
        help="with 'critscope': project run time with category CAT sped "
             "up FACTOR-fold (e.g. barrier_release=2); repeatable")
    parser.add_argument(
        "--json", action="store_true",
        help="with 'memscope'/'critscope': print the profile as a JSON "
             "document instead of rendered tables")
    parser.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="with 'memscope': how many hot pages / flagged cache lines "
             "to report; with 'critscope': how many longest critical-path "
             "spans (default: 10)")
    return parser


def _seed_rngs(seed: int) -> None:
    import random

    random.seed(seed)
    try:
        import numpy

        numpy.random.seed(seed)
    except ImportError:  # pragma: no cover - numpy is a core dependency
        pass


def _unknown_experiment(exp_id: str) -> int:
    print(f"unknown experiment {exp_id!r}", file=sys.stderr)
    print("valid experiments:", file=sys.stderr)
    for known_id, title in list_experiments().items():
        print(f"  {known_id:10s} {title}", file=sys.stderr)
    print("  timeline   ASCII Gantt view of a trace", file=sys.stderr)
    for name, (summary, _) in _VERBS.items():
        print(f"  {name:10s} {summary}", file=sys.stderr)
    return 2


def _suffixed(path: str, exp_id: str, multi: bool) -> str:
    """Per-experiment output path when running more than one target."""
    if not multi:
        return path
    stem, dot, ext = path.rpartition(".")
    return f"{stem}.{exp_id}.{ext}" if dot else f"{path}.{exp_id}"


def _resolve_output(path: str, default_name: str) -> str:
    """Expand a directory-style output path to a file inside it.

    ``--metrics out/`` (or an existing directory) means "write the
    default-named file into that directory", creating it if needed.
    """
    if path.endswith(os.sep) or path.endswith("/") or os.path.isdir(path):
        os.makedirs(path, exist_ok=True)
        return os.path.join(path, default_name)
    return path


def _render_profile(tracer) -> str:
    from .core.tables import Table
    from .obs.metrics import span_summary

    counters = Table("protocol counters", ["counter", "count"])
    for name in sorted(tracer.counters):
        counters.add_row(name, tracer.counters[name])
    parts = [counters.render()]
    summary = span_summary(tracer)
    if summary:
        spans = Table("span summary",
                      ["span", "count", "total us", "mean us", "imbalance"])
        for name, s in sorted(summary.items(),
                              key=lambda kv: -kv[1]["total_ns"]):
            spans.add_row(name, s["count"], f"{s['total_ns'] / 1e3:.1f}",
                          f"{s['mean_ns'] / 1e3:.2f}",
                          f"{s['imbalance']:.2f}")
        parts.append(spans.render())
    return "\n\n".join(parts)


def _timeline(args) -> int:
    from .obs.export import load_trace_checked
    from .obs.timeline import render_timeline

    if args.trace:
        events = load_trace_checked(args.trace)
        if events is None:
            return 2
        print(render_timeline(events, title=args.trace))
        return 0
    # No trace file: capture a small barrier demo live and render it.
    from .obs import timeline_from_tracer

    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        from .experiments.fig3_barrier import barrier_metrics_us
        from .runtime import Placement

        barrier_metrics_us(min(8, spp1000(args.hypernodes).n_cpus),
                           Placement.UNIFORM,
                           spp1000(args.hypernodes), rounds=2)
    print(render_timeline(timeline_from_tracer(tracer),
                          title="fig3 barrier demo"))
    return 0


def _scope_verb(entry, args, config) -> int:
    """``python -m repro <scope> <experiment>`` (or ``--trace PATH``):
    one profiler's view of one run."""
    import json as _json

    from .obs.export import load_trace_checked

    if not entry.prepare(args):
        return 2
    if args.trace:
        events = load_trace_checked(args.trace)
        if events is None:
            return 2
        doc = entry.from_trace(events)
        print(_json.dumps(doc, indent=2) if args.json
              else entry.render_trace(doc, title=args.trace))
        return 0

    if not args.experiment:
        print(f"{entry.name} needs an experiment id (e.g. 'python -m "
              f"repro {entry.name} {entry.example}') or --trace PATH",
              file=sys.stderr)
        return 2
    from .experiments import resolve_experiment_id

    try:
        exp_id = resolve_experiment_id(args.experiment)
    except KeyError:
        return _unknown_experiment(args.experiment)

    scope = entry.create(config, args)
    with ExitStack() as stack:
        entry.enter(stack, scope)
        run_experiment(exp_id, config=config, quick=args.quick)
    entry.after_verb(scope, config)
    if entry.empty(scope):
        print(entry.empty_message(exp_id), file=sys.stderr)
        return 2
    if args.json:
        doc = entry.block(scope, args)
        doc["experiment"] = exp_id
        print(_json.dumps(doc, indent=2))
    else:
        print(entry.render(scope, exp_id, args))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # ``repro run <experiment>`` reads naturally in scripts/CI; the
    # leading word is optional noise to the parser.  ``repro --list``
    # is a common muscle-memory spelling of ``repro list``.
    if argv and argv[0] == "run":
        argv = argv[1:]
    if argv and argv[0] == "--list":
        argv = ["list"] + argv[1:]
    if argv and argv[0] in _VERBS:
        return _VERBS[argv[0]][1](argv[1:])
    return _experiment_main(argv)


def _experiment_main(argv: List[str], scope_verb=None) -> int:
    """The experiment command line; with ``scope_verb`` (a
    :data:`~repro.obs.scopes.SCOPES` entry), that profiler's verb."""
    args = build_parser().parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        print(f"--jobs must be >= 1 (got {args.jobs}): use --jobs 1 for a "
              "serial run or --jobs N to fan work units out to N worker "
              "processes", file=sys.stderr)
        return 2
    if args.memscope_sample < 1:
        print(f"--memscope-sample must be >= 1 (got "
              f"{args.memscope_sample}): 1 profiles every access, N "
              "profiles one in N", file=sys.stderr)
        return 2
    if args.unit_timeout is not None and args.unit_timeout <= 0:
        print(f"--unit-timeout must be > 0 seconds (got "
              f"{args.unit_timeout}); omit the flag to disable per-unit "
              "timeouts", file=sys.stderr)
        return 2
    if args.retries is not None and args.retries < 0:
        print(f"--retries must be >= 0 (got {args.retries}): 0 disables "
              "worker retries, N allows N retries with exponential "
              "backoff", file=sys.stderr)
        return 2
    if args.seed is not None:
        _seed_rngs(args.seed)
    config = spp1000(n_hypernodes=args.hypernodes)
    if scope_verb is not None:
        return _scope_verb(scope_verb, args, config)
    if args.experiment is None:
        words = ["list", "all", "bench", "timeline", *_VERBS]
        print(f"an experiment id (or {', '.join(map(repr, words))}) is "
              "required; try 'python -m repro list'", file=sys.stderr)
        return 2
    if args.experiment == "list":
        from .exec import unit_count

        for exp_id, title in list_experiments().items():
            count = unit_count(exp_id, config, quick=args.quick)
            units = (f"{count:3d} units" if count is not None
                     else "in-process")
            print(f"{exp_id:10s} {units:>10s}  {title}")
        print("experiments with units are servable as streaming sweep "
              "jobs via 'python -m repro serve' (repro.sdk clients); "
              "in-process experiments run whole per job")
        return 0
    if args.experiment == "timeline":
        return _timeline(args)
    if args.experiment == "bench":
        return _bench(args, config)

    targets = (list(list_experiments()) if args.experiment == "all"
               else [args.experiment])
    if args.experiment != "all" and args.experiment not in list_experiments():
        return _unknown_experiment(args.experiment)

    ok, fault_plan = True, None
    if args.faults:
        from .faults import FaultPlanError, load_plan

        ok, fault_plan = _load_plan(
            "fault", args.faults, lambda path: load_plan(path, config),
            FaultPlanError)
    if not ok:
        return 2
    ok, chaos_plan = _load_chaos(args)
    if not ok:
        return 2

    if args.resume and not (args.checkpoint or args.journal):
        print("--resume requires --checkpoint PATH and/or --journal PATH",
              file=sys.stderr)
        return 2
    checkpoint = None
    if args.checkpoint:
        from .experiments.checkpoint import Checkpoint, CheckpointError

        try:
            checkpoint = Checkpoint(args.checkpoint, resume=args.resume)
        except CheckpointError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    multi = len(targets) > 1
    observing = bool(args.trace or args.metrics or args.profile
                     or any(getattr(args, name) for name in SCOPES))
    if args.ledger and not args.metrics:
        print("note: for experiment runs --ledger folds the --metrics "
              "manifest; add --metrics PATH (or use 'bench --ledger')",
              file=sys.stderr)
    if not all(scope.prepare(args) for scope in SCOPES.values()):
        return 2
    if args.trace:
        args.trace = _resolve_output(args.trace, "trace.json")
    if args.metrics:
        args.metrics = _resolve_output(args.metrics, "metrics.json")
    # Fail fast on unwritable output paths -- before, not after, the run.
    for path in (args.trace, args.metrics):
        if path:
            parent = os.path.dirname(os.path.abspath(path))
            if not os.path.isdir(parent):
                print(f"output directory does not exist: {parent}",
                      file=sys.stderr)
                return 2
    from .exec import JournalError, UnitExecutionError, execute, has_units

    jobs = args.jobs or 1
    cache = _build_cache(args)
    if cache is not None and any(has_units(t) for t in targets):
        from .exec import CacheRootError

        try:
            cache.check_root()
        except CacheRootError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    policy = None
    if args.unit_timeout is not None or args.retries is not None:
        from .exec import ResiliencePolicy
        from .exec.resilience import DEFAULT_MAX_RETRIES

        policy = ResiliencePolicy(
            unit_timeout_s=args.unit_timeout,
            max_retries=(args.retries if args.retries is not None
                         else DEFAULT_MAX_RETRIES))
    progress = None
    if args.progress:
        from .exec import ProgressStream

        progress = ProgressStream(args.progress)
    for exp_id in targets:
        fabric = has_units(exp_id)
        if checkpoint is not None and not fabric:
            import inspect

            from .experiments import get_experiment

            if "checkpoint" not in inspect.signature(
                    get_experiment(exp_id)).parameters:
                print(f"note: experiment {exp_id!r} does not support "
                      "checkpointing; --checkpoint ignored",
                      file=sys.stderr)
        unplanned = f"note: experiment {exp_id!r} has no work-unit planner; "
        if not fabric and jobs > 1:
            print(unplanned + "running in-process (--jobs ignored)",
                  file=sys.stderr)
        if progress is not None and not fabric:
            print(unplanned + "--progress emits nothing for in-process runs",
                  file=sys.stderr)
        if not fabric and (args.journal or chaos_plan is not None):
            print(unplanned + "--journal/--chaos apply to fabric experiments "
                  "only", file=sys.stderr)
        journal = None
        if args.journal and fabric:
            from .exec import SweepJournal

            journal_path = _suffixed(args.journal, exp_id, multi)
            if not args.resume and os.path.exists(journal_path):
                try:  # like --checkpoint: no --resume means a fresh sweep
                    os.remove(journal_path)
                except OSError as exc:
                    print(f"cannot reset journal {journal_path}: {exc}",
                          file=sys.stderr)
                    return 2
            journal = SweepJournal(journal_path)

        tracer = Tracer(enabled=True) if observing else None
        # the profilers this run attaches, as (registry entry, instance)
        scopes = [(entry, entry.create(config, args))
                  for name, entry in SCOPES.items() if getattr(args, name)]
        try:
            with ExitStack() as stack:
                if tracer is not None:
                    stack.enter_context(use_tracer(tracer))
                for entry, scope in scopes:
                    entry.enter(stack, scope)
                if fault_plan is not None:
                    stack.enter_context(use_faults(fault_plan))
                if fabric:
                    result, report = execute(
                        exp_id, config, jobs=jobs, quick=args.quick,
                        cache=cache, checkpoint=checkpoint,
                        fault_plan=fault_plan, seed=args.seed,
                        observed=observing, progress=progress,
                        policy=policy, chaos=chaos_plan, journal=journal)
                else:
                    result, report = run_experiment(
                        exp_id, config=config, quick=args.quick,
                        checkpoint=checkpoint), None
        except (JournalError, UnitExecutionError) as exc:
            return _execution_failed(exc, progress)
        print(result.render())
        if args.profile:
            print()
            print(_render_profile(tracer))
        for entry, scope in scopes:
            print()
            print(entry.render(scope, exp_id, args))
        if args.trace:
            from .obs.export import write_chrome_trace

            path = _suffixed(args.trace, exp_id, multi)
            write_chrome_trace(tracer, path, config)
            print(f"\ntrace written to {path}")
        if args.metrics:
            from .obs.metrics import write_metrics

            path = _suffixed(args.metrics, exp_id, multi)
            manifest = result.manifest(
                config=config, tracer=tracer,
                execution=report.to_dict() if report else None,
                **{entry.name: entry.block(scope, args)
                   for entry, scope in scopes})
            write_metrics(manifest, path)
            print(f"metrics manifest written to {path}")
            if args.ledger:
                _ledger_append(args.ledger, manifest, source="metrics")
        if args.cache_stats:
            print()
            print(report.render() if report is not None
                  else f"[exec {exp_id}] ran in-process (no work-unit "
                       "planner); no cache involved")
        print()
    if progress is not None:
        progress.close()
    return 0


def _load_chaos(args):
    """``(ok, plan)`` for ``--chaos``/``$REPRO_CHAOS`` (``(True, None)``
    when no plan is requested); prints every validation problem."""
    chaos_source = args.chaos or os.environ.get("REPRO_CHAOS") or None
    if not chaos_source:
        return True, None
    from .exec import ChaosPlanError, load_chaos_plan

    return _load_plan("chaos", chaos_source, load_chaos_plan,
                      ChaosPlanError)


def _load_plan(kind: str, path: str, load, error):
    """``(ok, plan)`` for a JSON plan file; prints every problem."""
    try:
        return True, load(path)
    except OSError as exc:
        print(f"cannot read {kind} plan: {exc}", file=sys.stderr)
    except error as exc:
        print(f"invalid {kind} plan {path}:", file=sys.stderr)
        for line in str(exc).splitlines():
            print(f"  {line}", file=sys.stderr)
    return False, None


def _execution_failed(exc, progress) -> int:
    """Report a sweep that drained with poison units (or a bad journal).

    Quarantined units already have everything else journaled/cached, so
    the message says exactly what failed and a rerun recomputes only
    those units.
    """
    from .exec import JournalError

    print(str(exc), file=sys.stderr)
    if progress is not None:
        progress.close()
    return 2 if isinstance(exc, JournalError) else 1


def _build_cache(args):
    """The result cache implied by ``--cache-dir``/``--no-cache``."""
    if args.no_cache:
        return None
    from .exec import ResultCache, code_fingerprint, default_cache_root

    return ResultCache(args.cache_dir or default_cache_root(),
                       code_fingerprint())


def _ledger_append(path: str, doc, *, source=None) -> None:
    """Best-effort fold of ``doc`` into the ledger at ``path`` — an
    append failure warns but never fails the run that produced the
    measurements (the ledger observes, it does not gate here)."""
    from .obs.ledger import Ledger, LedgerError, fold_document

    try:
        record = Ledger(path).append(fold_document(doc, source=source))
        print(f"ledger record appended to {path} "
              f"(sha256 {record['sha256'][:12]}…)")
    except (LedgerError, OSError) as exc:
        print(f"ledger: could not append to {path}: {exc}",
              file=sys.stderr)


def _warn_stale_artifact(path: str) -> None:
    """One stderr line when an existing bench artifact at ``path`` was
    produced by a different tree (satellite of the ledger issue)."""
    import json as _json

    from .exec.bench import stale_artifact_warning

    try:
        with open(path, "r", encoding="utf-8") as fh:
            artifact = _json.load(fh)
    except (OSError, ValueError):
        return
    warning = stale_artifact_warning(artifact, path)
    if warning:
        print(warning, file=sys.stderr)


def _bench(args, config) -> int:
    """``python -m repro bench``: the serial/parallel/cached trajectory."""
    from .exec import ProgressStream
    from .exec.bench import render_bench, run_bench, write_bench

    jobs = args.jobs if args.jobs is not None else 2
    only = (args.bench_experiments.split(",")
            if args.bench_experiments else None)
    ok, chaos_plan = _load_chaos(args)
    if not ok:
        return 2
    if os.path.exists(args.bench_out):
        _warn_stale_artifact(args.bench_out)
    progress = ProgressStream(args.progress) if args.progress else None
    try:
        doc = run_bench(config, jobs=jobs, quick=args.quick,
                        experiment_ids=only, progress=progress,
                        chaos=chaos_plan)
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        if progress is not None:
            progress.close()
    print(render_bench(doc))
    write_bench(doc, args.bench_out)
    print(f"\nbenchmark written to {args.bench_out}")
    if args.ledger:
        _ledger_append(args.ledger, doc, source="bench")
    if not args.compare:
        return 0
    return _bench_compare(doc, args)


def _bench_compare(doc, args) -> int:
    """Diff a fresh bench document against ``--compare BASELINE``."""
    import json as _json

    from .exec.bench import compare_bench, markdown_compare, render_compare

    try:
        with open(args.compare, "r", encoding="utf-8") as fh:
            baseline = _json.load(fh)
    except OSError as exc:
        reason = exc.strerror or str(exc)
        print(f"cannot read bench baseline {args.compare}: {reason}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"cannot parse bench baseline {args.compare}: {exc}; "
              "expected a BENCH_exec.json written by 'python -m repro "
              "bench'", file=sys.stderr)
        return 2
    from .exec.bench import stale_artifact_warning

    warning = stale_artifact_warning(baseline, args.compare)
    if warning:
        print(warning, file=sys.stderr)
    report = compare_bench(doc, baseline)
    print()
    print(render_compare(report))
    if args.bench_diff_out:
        with open(args.bench_diff_out, "w", encoding="utf-8") as fh:
            fh.write(markdown_compare(report))
        print(f"\nregression report written to {args.bench_diff_out}")
    return 1 if report["regressions"] else 0


def _own_parser(target: str):
    """Handler for a verb with its own parser (``repro serve --help``),
    imported on first use from ``"module:function"``."""
    def handler(argv: List[str]) -> int:
        import importlib

        module, func = target.split(":")
        return getattr(importlib.import_module(module), func)(argv)
    return handler


#: leading words dispatched before the experiment parser:
#: name -> (summary, handler taking the remaining argv)
_VERBS = {
    **{name: (scope.summary,
              functools.partial(_experiment_main, scope_verb=scope))
       for name, scope in SCOPES.items()},
    "serve": ("run the simulation job server (repro.sdk clients)",
              _own_parser("repro.server:serve_main")),
    "top": ("live dashboard for a running job server",
            _own_parser("repro.obs.top:top_main")),
    "ledger": ("longitudinal performance-and-fidelity ledger",
               _own_parser("repro.obs.ledger:ledger_main")),
}


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
