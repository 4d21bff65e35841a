"""The repository benchmark: timed rounds of one workload, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload des --seed 1 --seconds 20 --trace 0

Each round runs in a fresh interpreter (``passrun.py``): one *cold*
sweep computes every unit of the workload's experiments into a fresh
result cache, then *warm* sweeps re-run them from that cache for
``WARM_SECONDS`` and at least ``MIN_WARM_SWEEPS`` times.  Rounds repeat
while the next one is expected to end within ``--seconds`` (at least
one round); set-up-only interpreters top the set-up samples up to
``MIN_SETUP_SAMPLES``.  Every sweep's output
digests are checked against ``reference.json``.  ``--trace 1`` adds one
traced round (cold sweep + one warm sweep, wrappers from ``tracer.py``)
after the timed ones and reports per-layer metrics instead of the
end-to-end ones.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The full
record (host, samples, fidelity, spans) goes to
``.perfbench/results/<workload>-seed<seed>-trace<0|1>.json``.

Exit codes: 0 all outputs correct; 1 some unit failed (the result line
is still printed); 2 not run from a checkout holding ``src/repro``;
3 the workload needs more worker processes than usable cores.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, Workload  # noqa: E402

#: host seconds of back-to-back warm sweeps per round
WARM_SECONDS = 0.5
#: warm sweeps per timed round at least, however long they take (a
#: model warm sweep takes ~5 s, so one alone would sit in one burst of
#: host noise)
MIN_WARM_SWEEPS = 4
#: set-up samples per run, topped up with set-up-only interpreters
MIN_SETUP_SAMPLES = 9
#: host seconds one interpreter may take before it is killed
PASS_TIMEOUT_S = 150


class PassFailed(Exception):
    """A round's interpreter crashed, hung or printed no result."""


def run_round(workload: Workload, seed: int, work: str, reference: str, *,
              warm_seconds: float = WARM_SECONDS,
              warm_sweeps: int = MIN_WARM_SWEEPS,
              trace_dir: Optional[str] = None,
              experiments: Optional[List[str]] = None,
              setup_only: bool = False) -> Dict:
    """Run one ``passrun.py`` interpreter with a fresh result cache under
    ``work``; returns its result with ``setup_s`` (interpreter start to
    ``ready``) added, and the merged ``trace`` when tracing."""
    cache = os.path.join(work, "cache")
    shutil.rmtree(cache, ignore_errors=True)
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"),
           "--workload", workload.name, "--seed", str(seed),
           "--cache", cache, "--reference", reference,
           "--warm-seconds", str(warm_seconds),
           "--warm-sweeps", str(warm_sweeps)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_dir:
        os.makedirs(trace_dir)
        cmd += ["--trace", trace_dir]
    if experiments:
        cmd += ["--experiments", ",".join(experiments)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassFailed(f"round exceeded {PASS_TIMEOUT_S}s") from None
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if first.strip() != "ready" or proc.returncode != 0:
        raise PassFailed(f"round interpreter exited {proc.returncode}")
    if setup_only:
        return {"setup_s": setup_s}
    try:
        result = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        raise PassFailed("round interpreter printed no result") from None
    result["setup_s"] = setup_s
    if trace_dir:
        result["trace"] = _load_trace(trace_dir)
    return result


def _load_trace(trace_dir: str) -> Dict:
    from tracer import merge

    dumps = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            dumps.append(json.load(fh))
    return merge(dumps)


def sweeps(round_: Dict) -> List[Dict]:
    """The cold sweep then every warm sweep of a round."""
    return [round_["cold"]] + round_["warm"]


def count_units(round_: Dict) -> tuple:
    """(attempted, failed) units over every sweep of a round."""
    attempted = failed = 0
    for sweep in sweeps(round_):
        for row in sweep["experiments"].values():
            attempted += row["units"]
            failed += row["units"] if row["error"] else 0
    return attempted, failed


def host_record() -> Dict:
    """Who ran this: cores, versions, commit, calibration score."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy
    from repro.exec.bench import host_info
    from repro.exec.fingerprint import git_dirty, git_sha

    info = host_info()
    # only ask git about this checkout, never about a repository above it
    in_git = os.path.exists(os.path.join(ROOT, ".git"))
    return {"usable_cores": len(os.sched_getaffinity(0)),
            "nproc": os.cpu_count(), "cpu_model": info["cpu_model"],
            "python": info["python"], "numpy": numpy.__version__,
            "git_sha": git_sha(ROOT) if in_git else None,
            "git_dirty": git_dirty(ROOT) if in_git else None,
            "calibration_miters_s": info["calibration_miters_s"],
            "loadavg_1m": info["loadavg_1m"]}


# -- metrics ------------------------------------------------------------------

def _timing(samples: List[float], stat: str = "median") -> Dict:
    median = statistics.median(samples)
    return {"value": min(samples) if stat == "fastest" else median,
            "stat": stat, "n": len(samples), "min": min(samples),
            "median": median, "max": max(samples)}


def end_to_end(rounds: List[Dict], setup_only: List[float]) -> Dict:
    """Medians over the timed rounds' cold sweeps and over every
    interpreter's set-up; the fastest of every warm sweep of the run.

    A warm sweep is short and repeated hundreds of times in one process
    (on ``fabric``), so on a shared host its median follows how busy the
    neighbours are over the run, while its fastest sweep is the cost of
    the work itself."""
    setup = [r["setup_s"] for r in rounds] + setup_only
    cold = [r["cold"]["wall_s"] for r in rounds]
    warm = [w["wall_s"] for r in rounds for w in r["warm"]]
    rss = [max(r["rss_mb"], r["worker_rss_mb"]) for r in rounds]
    out = {"setup_s": dict(_timing(setup), unit="s"),
           "wall_s": dict(_timing(cold), unit="s"),
           "warm_s": dict(_timing(warm, "fastest"), unit="s")}
    out["peak_rss_mb"] = dict(_timing(rss), unit="MB")
    out["peak_rss_mb"]["process_mb"] = max(r["rss_mb"] for r in rounds)
    out["peak_rss_mb"]["worker_mb"] = max(r["worker_rss_mb"] for r in rounds)
    return out


#: the program's layers, by the first part of a tracer key
LAYERS = ("sim", "machine", "runtime", "pvm", "perfmodel", "apps",
          "experiments", "exec")


def per_layer(traced: Dict, e2e: Dict, jobs: int) -> Dict:
    """Per-layer metrics of one traced round (cold sweep + one warm
    sweep); exec.* come from the fabric's own execution reports."""
    t = traced["trace"]
    counts, incl, self_s = t["counts"], t["incl_s"], t["self_s"]
    cold, warm = traced["cold"], traced["warm"][0]

    def report_sum(sweep, field):
        return sum(row["report"][field]
                   for row in sweep["experiments"].values()
                   if "report" in row)

    events = t["sim"].get("events", 0)
    run_s = incl.get("sim.run", 0.0)
    pool_s = report_sum(cold, "pool_s")
    hits = report_sum(warm, "cache_hits")
    lookups = hits + report_sum(warm, "cache_misses")
    traced_wall = cold["wall_s"] + warm["wall_s"]
    untraced_wall = e2e["wall_s"]["median"] + e2e["warm_s"]["median"]
    m = {
        "sim.events": (events, "count"),
        "sim.processes": (t["sim"].get("processes", 0), "count"),
        "sim.mcycles": (t["sim"].get("cycles", 0.0) / 1e6, "Mcycles"),
        "sim.run_s": (run_s, "s"),
        "sim.host_ns_per_event": (run_s * 1e9 / events if events else 0.0,
                                  "ns"),
        "machine.builds": (counts.get("machine.build", 0), "count"),
        "machine.build_s": (incl.get("machine.build", 0.0), "s"),
        "machine.mem_ops": (counts.get("machine.mem_op", 0), "count"),
        "machine.mem_op_s": (incl.get("machine.mem_op", 0.0), "s"),
        "machine.cache_hits": (t["cache"].get("hits", 0), "count"),
        "machine.cache_misses": (t["cache"].get("misses", 0), "count"),
        "machine.invalidations": (t["cache"].get("invalidations", 0),
                                  "count"),
        "runtime.runs": (counts.get("runtime.run", 0), "count"),
        "runtime.run_s": (incl.get("runtime.run", 0.0), "s"),
        "runtime.threads": (counts.get("runtime.fork", 0), "count"),
        "runtime.barrier_waits": (counts.get("runtime.barrier_wait", 0),
                                  "count"),
        "pvm.sends": (counts.get("pvm.send", 0), "count"),
        "pvm.recvs": (counts.get("pvm.recv", 0), "count"),
        "pvm.bytes": (counts.get("pvm.bytes", 0), "bytes"),
        "pvm.op_s": (incl.get("pvm.send", 0.0) + incl.get("pvm.recv", 0.0),
                     "s"),
        "perfmodel.runs": (counts.get("perfmodel.run", 0), "count"),
        "perfmodel.run_s": (incl.get("perfmodel.run", 0.0), "s"),
        "perfmodel.step_evals": (counts.get("perfmodel.step", 0), "count"),
        "perfmodel.step_s": (incl.get("perfmodel.step", 0.0), "s"),
        "apps.mesh_builds": (counts.get("apps.mesh", 0), "count"),
        "apps.mesh_s": (incl.get("apps.mesh", 0.0), "s"),
        "apps.problem_builds": (counts.get("apps.problem", 0), "count"),
        "apps.problem_s": (incl.get("apps.problem", 0.0), "s"),
        "apps.workload_s": (self_s.get("apps.workload", 0.0), "s"),
        "experiments.assemble_s": (incl.get("experiments.assemble", 0.0),
                                   "s"),
        "exec.plan_s": (report_sum(cold, "plan_s"), "s"),
        "exec.spawn_s": (report_sum(cold, "spawn_s"), "s"),
        "exec.pool_s": (pool_s, "s"),
        "exec.queue_s": (report_sum(cold, "unit_queue_s"), "s"),
        "exec.unit_run_s": (report_sum(cold, "unit_run_s"), "s"),
        "exec.return_s": (report_sum(cold, "unit_return_s"), "s"),
        "exec.cache_store_s": (report_sum(cold, "cache_store_s"), "s"),
        "exec.cache_lookup_s": (report_sum(warm, "cache_lookup_s"), "s"),
        "exec.cache_hit_rate": (hits / lookups if lookups else 0.0, "ratio"),
        "exec.units_computed_warm": (report_sum(warm, "computed"), "count"),
        "exec.pool_busy_frac": (report_sum(cold, "unit_run_s")
                                / (pool_s * jobs) if pool_s else 0.0,
                                "ratio"),
        "exec.retries": (report_sum(cold, "retries")
                         + report_sum(warm, "retries"), "count"),
        "exec.workers_replaced": (report_sum(cold, "workers_replaced")
                                  + report_sum(warm, "workers_replaced"),
                                  "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(v for k, v in self_s.items()
                                    if k.split(".")[0] == layer), "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.overhead_frac"] = ((traced_wall - untraced_wall) / untraced_wall,
                                "ratio")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in m.items()}


# -- the run ------------------------------------------------------------------

def fidelity_lines(cold: Dict) -> List[str]:
    lines = []
    for experiment_id, row in sorted(cold["experiments"].items()):
        for metric, f in sorted(((row.get("fidelity") or {})
                                 .get("metrics", {})).items()):
            lines.append(f"  {experiment_id:<9} {metric:<28} measured "
                         f"{f['measured']:>10.4g} expected "
                         f"{f['expected']:>10.4g} rel_err {f['rel_err']:+.1%}"
                         f" (tolerance {f['tolerance']:.0%}, {f['source']})")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference",
                    default=os.path.join(HERE, "reference.json"),
                    help="reference output digests (default: %(default)s)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {ROOT}; run from the root of "
              "a checkout of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    host = host_record()
    if workload.jobs > host["usable_cores"]:
        print(f"perfbench: refusing workload {workload.name!r}: it runs "
              f"jobs={workload.jobs} worker processes but only "
              f"{host['usable_cores']} cores are usable "
              f"(nproc {host['nproc']}); its timings would measure "
              "time-slicing, not the fabric", file=sys.stderr)
        return 3

    state = os.path.join(ROOT, ".perfbench")
    work = os.path.join(state, f"work-{workload.name}-{args.seed}-"
                               f"{os.getpid()}")
    os.makedirs(work)
    rounds: List[Dict] = []
    setup_only: List[float] = []
    traced: Optional[Dict] = None
    error = None
    try:
        t_start = time.perf_counter()
        round_s = 0.0
        while not rounds or (time.perf_counter() - t_start + round_s
                             <= args.seconds):
            t_round = time.perf_counter()
            rounds.append(run_round(workload, args.seed, work,
                                    args.reference))
            round_s = time.perf_counter() - t_round
        while len(rounds) + len(setup_only) < MIN_SETUP_SAMPLES:
            setup_only.append(run_round(
                workload, args.seed, work, args.reference,
                setup_only=True)["setup_s"])
        if args.trace:
            traced = run_round(workload, args.seed, work, args.reference,
                               warm_seconds=0.0, warm_sweeps=1,
                               trace_dir=os.path.join(work, "trace"))
    except PassFailed as exc:
        error = str(exc)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = failed = 0
    for round_ in rounds + ([traced] if traced else []):
        a, f = count_units(round_)
        attempted += a
        failed += f
    if error is not None:  # the round that died: all its units failed
        with open(args.reference, encoding="utf-8") as fh:
            reference = json.load(fh)["experiments"]
        units = sum(reference[e]["units"] for e in workload.experiments)
        attempted += units
        failed += units
    correct = failed == 0

    metrics: Dict = {}
    if rounds:
        e2e = end_to_end(rounds, setup_only)
        metrics = per_layer(traced, e2e, workload.jobs) if traced else e2e

    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    if rounds:
        for name, m in e2e.items():
            extra = ""
            if name == "peak_rss_mb":
                extra = (f"; pass process {m['process_mb']:.1f} MB, largest "
                         f"worker {m['worker_mb']:.1f} MB")
            spread = (f"median {m['median']:.4f}" if m["stat"] == "fastest"
                      else f"min {m['min']:.4f}")
            print(f"{name:<12} {m['value']:>10.4f} {m['unit']:<3} {m['stat']} "
                  f"of {m['n']} ({spread}, max {m['max']:.4f}{extra})")
    print(f"{'fail_rate':<12} {failed / max(attempted, 1):>10.4f} ratio "
          f"({failed} of {attempted} units failed)")
    seen = set()
    for round_ in rounds + ([traced] if traced else []):
        for i, sweep in enumerate(sweeps(round_)):
            for experiment_id, row in sorted(sweep["experiments"].items()):
                line = (f"FAILED {'warm' if i else 'cold'} {experiment_id}: "
                        f"{row['error']}")
                if row["error"] and line not in seen:
                    seen.add(line)
                    print(line)
    if error is not None:
        print(f"FAILED: {error}")
    if rounds:
        lines = fidelity_lines(rounds[0]["cold"])
        if lines:
            print("model error against the paper (simulated quantities, "
                  "not host time):")
            print("\n".join(lines))
    if traced:
        print("per-layer (traced round; host seconds unless noted):")
        for name, m in metrics.items():
            print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")

    results_dir = os.path.join(state, "results")
    os.makedirs(results_dir, exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "metrics": metrics, "attempted": attempted, "failed": failed,
              "error": error, "setup_only_s": setup_only,
              "rounds": rounds}
    if traced:
        record["traced"] = traced
    with open(os.path.join(results_dir, f"{workload.name}-seed{args.seed}-"
                                        f"trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(json.dumps({
        "correct": correct and error is None, "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()}}))
    return 0 if correct and error is None else 1


if __name__ == "__main__":
    sys.exit(main())
