"""One round of a workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  It prints ``ready``
as soon as ``repro``, the experiment registry and the machine config are
loaded (the parent times interpreter start to that line as set-up;
``--setup-only`` stops there).  Then, through :func:`repro.exec.execute`:

* one *cold* sweep runs every experiment of the workload, computing all
  units into the given fresh result cache;
* *warm* sweeps re-run them from that cache — every unit a
  checksum-verified lookup, the experiment only assembling its result —
  back to back until ``--warm-seconds`` of host time is spent and at
  least ``--warm-sweeps`` sweeps are done.

Each sweep's outputs are checked against the reference digests.  The
last line of output is one JSON object: per sweep its host seconds and,
per experiment, unit count, error (exception or digest mismatch) and
fabric report; plus the peak RSS of this process and of its largest
worker.  With ``--trace DIR`` the round runs under
:class:`tracer.Tracer`, which writes its totals and spans to
``DIR/pass.json`` (pool workers to ``DIR/worker-<pid>.json``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

from repro.core import spp1000  # noqa: E402
from repro.core.canon import canonical_json  # noqa: E402
from repro.exec import ResultCache, execute  # noqa: E402
import repro.experiments  # noqa: E402,F401  (the experiment registry)

from workloads import WORKLOADS, visit_order  # noqa: E402


def digest(data) -> str:
    return hashlib.sha256(canonical_json(data).encode("ascii")).hexdigest()


def fabric_report(report) -> dict:
    """The parts of an :class:`~repro.exec.ExecutionReport` the benchmark
    reads, summed over units."""
    out = {k: report.host_timing.get(k, 0.0) for k in (
        "plan_s", "cache_lookup_s", "cache_store_s", "spawn_s", "pool_s",
        "assemble_s")}
    for field in ("queue_s", "run_s", "return_s"):
        out[f"unit_{field}"] = sum(t.get(field, 0.0)
                                   for t in report.unit_timings)
    resil = report.resilience
    out.update(cache_hits=report.cache_hits, cache_misses=report.cache_misses,
               computed=report.computed, jobs=report.jobs,
               retries=resil.retries if resil else 0,
               workers_replaced=resil.workers_replaced if resil else 0)
    return out


def sweep(run, order, config, jobs, cache, seed) -> tuple:
    """Run each experiment once; returns (host seconds, results)."""
    results = {}
    t_sweep = time.perf_counter()
    for experiment_id in order:
        try:
            results[experiment_id] = run(experiment_id, config, jobs=jobs,
                                         cache=cache, seed=seed)
        except Exception as exc:  # counted as failed units, reported
            results[experiment_id] = repr(exc)
    return time.perf_counter() - t_sweep, results


def check(results, reference, fidelity=False) -> dict:
    """Per experiment: units, error (exception or digest mismatch) and
    the fabric report."""
    rows = {}
    for experiment_id, outcome in results.items():
        row = {"units": reference[experiment_id]["units"], "error": outcome}
        if not isinstance(outcome, str):
            result, report = outcome
            got, want = digest(result.data), reference[experiment_id]["digest"]
            row.update(units=report.units_planned, error=None, digest=got,
                       report=fabric_report(report))
            if got != want:
                row["error"] = (f"output digest {got[:16]} != reference "
                                f"{want[:16]}")
            if fidelity:
                from repro.obs.fidelity import fidelity_residuals

                row["fidelity"] = fidelity_residuals(experiment_id,
                                                     result.data)
        rows[experiment_id] = row
    return rows


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--cache", help="fresh directory for the result cache")
    ap.add_argument("--reference")
    ap.add_argument("--warm-seconds", type=float, default=0.0,
                    help="repeat warm sweeps until this much host time "
                         "is spent")
    ap.add_argument("--warm-sweeps", type=int, default=1,
                    help="warm sweeps at least (default: %(default)s)")
    ap.add_argument("--trace", help="trace into this directory")
    ap.add_argument("--experiments", help="comma-separated subset (tests)")
    args = ap.parse_args()

    config = spp1000(n_hypernodes=2)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    workload = WORKLOADS[args.workload]
    order = visit_order(workload, args.seed)
    if args.experiments:
        order = [e for e in order if e in args.experiments.split(",")]
    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh)["experiments"]
    cache = ResultCache(args.cache)

    run, tracer, scope = execute, None, nullcontext()
    if args.trace:
        from repro.obs.hostscope import use_hostscope
        from tracer import Tracer

        tracer = Tracer(args.trace, config)
        run = tracer.install()
        scope = use_hostscope(tracer.hostscope)

    sweep_args = (run, order, config, workload.jobs, cache, args.seed)
    with scope:
        if tracer is not None:
            tracer.pass_id = f"{args.workload}/seed{args.seed}/cold"
        cold_s, results = sweep(*sweep_args)
        cold = {"wall_s": cold_s,
                "experiments": check(results, reference, fidelity=True)}
        warm = []
        while (len(warm) < max(args.warm_sweeps, 1)
               or sum(w["wall_s"] for w in warm) < args.warm_seconds):
            if tracer is not None:
                tracer.pass_id = f"{args.workload}/seed{args.seed}/warm"
            warm_s, results = sweep(*sweep_args)
            warm.append({"wall_s": warm_s,
                         "experiments": check(results, reference)})

    if tracer is not None:
        with open(os.path.join(args.trace, "pass.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps({
        "cold": cold, "warm": warm,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "worker_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
