"""Longitudinal performance-and-fidelity ledger (``repro ledger``).

``bench --compare`` answers "is this run slower than *one* committed
baseline?"; the ledger answers the paper's actual question — what is
the measured *trajectory*?  Every ``bench --ledger`` run (and any
``--metrics`` run or drained server, via ``repro ledger record``)
appends one checksummed JSONL record to ``benchmarks/LEDGER.jsonl``
carrying host calibration, per-experiment timings and throughput,
cache/resilience counters, git provenance (``git_sha`` +
``git_dirty`` + ``code_fingerprint``), and the Fig 2-8 fidelity
residuals from :mod:`repro.obs.fidelity`.

The file contract is the sweep journal's: append-only, one
self-checksummed JSON object per line, fsync'd per append.  Readers
skip torn or corrupt lines (a crash mid-append, a failed checksum)
and report them as ``skipped`` instead of crashing — history survives
anything short of deleting the file.

CLI verbs (``python -m repro ledger <verb>``):

* ``record`` — fold a ``BENCH_exec.json``, ``metrics.json`` manifest,
  or server-stats JSON into one ledger record (shape auto-detected);
* ``show`` — one record in full;
* ``trend`` — per-experiment ASCII sparklines of any timing /
  throughput / fidelity column, calibration-normalized when every
  record carries a host score;
* ``diff`` — any two records through :func:`repro.exec.bench.
  compare_bench` (same thresholds, same noise guards);
* ``gate`` — windowed regression detection: the newest record vs the
  median/MAD of its predecessors, exit 1 on sustained regression or a
  fidelity anchor out of tolerance.

Robust statistics, not single-baseline diffs: the gate's noise band is
``max(threshold * median, 3 * 1.4826 * MAD)`` — a noisy history widens
its own band, a flat history tightens it — and the ``min_abs_s`` raw-
seconds guard from ``compare_bench`` still applies, so timer jitter on
sub-hundredth rows can never fail CI.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from typing import Dict, List, Optional, Tuple

from ..core.canon import canonical_json
from ..core.jsonl import append_record
from .fidelity import fidelity_residuals

__all__ = ["LEDGER_SCHEMA", "DEFAULT_LEDGER_PATH", "Ledger",
           "LedgerError", "record_checksum", "record_from_bench",
           "record_from_manifest", "record_from_server_stats",
           "fold_document", "trend", "render_trend", "gate",
           "render_gate", "diff_records", "ledger_main"]

LEDGER_SCHEMA = 1

DEFAULT_LEDGER_PATH = os.path.join("benchmarks", "LEDGER.jsonl")

_SPARK = "▁▂▃▄▅▆▇█"

#: per-experiment columns a bench record carries (and trend can plot)
_TIMING_METRICS = ("serial_s", "parallel_s", "cached_s")
_THROUGHPUT_METRICS = ("units_per_s", "sim_mcycles_per_s", "events_per_s")
TREND_METRICS = _TIMING_METRICS + _THROUGHPUT_METRICS + ("fidelity",)


class LedgerError(ValueError):
    """A document or ledger the CLI cannot act on (actionable message)."""


def record_checksum(record: Dict) -> str:
    """SHA-256 over the record's canonical JSON minus its own ``sha256``
    key — the same integrity tag the result cache stamps on values."""
    body = {k: v for k, v in record.items() if k != "sha256"}
    return hashlib.sha256(
        canonical_json(body).encode("ascii")).hexdigest()


class Ledger:
    """Append-only checksummed JSONL history at ``path``."""

    def __init__(self, path: str = DEFAULT_LEDGER_PATH):
        self.path = path

    def append(self, record: Dict) -> Dict:
        """Stamp schema + checksum and append one line (fsync'd)."""
        record = dict(record)
        record["ledger_schema"] = LEDGER_SCHEMA
        record["sha256"] = record_checksum(record)
        append_record(self.path, record)
        return record

    def read(self) -> Tuple[List[Dict], int]:
        """All intact records plus the count of skipped lines.

        Torn tails (a crash mid-append), corrupt JSON, failed
        checksums, and foreign-schema lines are all *skipped*, never
        raised — the sweep-journal recovery contract.
        """
        try:
            fh = open(self.path, encoding="utf-8")
        except OSError:
            return [], 0
        records: List[Dict] = []
        skipped = 0
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    ok = (isinstance(rec, dict)
                          and rec.get("ledger_schema") == LEDGER_SCHEMA
                          and rec.get("sha256") == record_checksum(rec))
                except (ValueError, TypeError):
                    ok = False
                if not ok:
                    skipped += 1
                    continue
                records.append(rec)
        return records, skipped


# -- record builders -------------------------------------------------------

def _provenance() -> Dict:
    from ..exec.fingerprint import code_fingerprint, git_dirty, git_sha

    return {"git_sha": git_sha(), "git_dirty": git_dirty(),
            "code_fingerprint": code_fingerprint()[:16]}


def _flat_resilience(resil: Dict) -> Dict[str, int]:
    """One bench row's resilience block as comparable integer counts."""
    out = {}
    for key, value in resil.items():
        if key == "quarantined_units":
            out["quarantined"] = len(value or ())
        elif key == "chaos_injected":
            out[key] = sum((value or {}).values())
        elif isinstance(value, (int, float)):
            out[key] = int(value)
    return {k: v for k, v in out.items() if v}


def record_from_bench(doc: Dict, *, source: str = "bench") -> Dict:
    """Fold one ``BENCH_exec.json`` document into a ledger record."""
    host = doc.get("host") or {}
    experiments: Dict[str, Dict] = {}
    for exp_id, row in (doc.get("experiments") or {}).items():
        entry = {key: row.get(key)
                 for key in ("units",) + _TIMING_METRICS
                 + ("speedup", "cached_speedup") + _THROUGHPUT_METRICS
                 + ("cache_hit_rate", "identical")}
        resil = _flat_resilience(row.get("resilience") or {})
        if resil:
            entry["resilience"] = resil
        experiments[exp_id] = entry
    record = {
        "kind": "bench",
        "source": source,
        "created_utc": doc.get("created_utc"),
        "git_sha": doc.get("git_sha"),
        "git_dirty": doc.get("git_dirty"),
        "code_fingerprint": doc.get("code_fingerprint"),
        "calibration_miters_s": host.get("calibration_miters_s"),
        "host": {key: host.get(key)
                 for key in ("cpu_count", "cpu_model", "python",
                             "platform", "loadavg_1m")},
        "jobs": doc.get("jobs"),
        "quick": doc.get("quick"),
        "experiments": experiments,
        "totals": doc.get("totals"),
    }
    if doc.get("fidelity"):
        record["fidelity"] = doc["fidelity"]
    return record


def record_from_manifest(manifest: Dict, *,
                         source: str = "metrics") -> Dict:
    """Fold one ``metrics.json`` manifest (a single experiment run)."""
    prov = manifest.get("provenance") or {}
    exp_id = (manifest.get("experiment") or {}).get("id")
    record = {
        "kind": "metrics",
        "source": source,
        "created_utc": prov.get("created_utc"),
        "git_sha": prov.get("git_sha"),
        "git_dirty": prov.get("git_dirty"),
        "code_fingerprint": prov.get("code_fingerprint"),
        "calibration_miters_s": None,
        "experiment": exp_id,
    }
    hostscope = manifest.get("hostscope") or {}
    regions = hostscope.get("regions") or {}
    if regions:
        record["hostscope_regions"] = {
            name: r.get("self_s") for name, r in regions.items()}
    if hostscope.get("throughput"):
        record["throughput"] = hostscope["throughput"]
    execution = manifest.get("execution") or {}
    if execution:
        record["execution"] = {
            key: execution[key]
            for key in ("jobs", "cache_hits", "cache_misses", "computed",
                        "wall_s", "units_planned")
            if key in execution}
    if exp_id and manifest.get("headline"):
        residuals = fidelity_residuals(exp_id, manifest["headline"])
        if residuals:
            record["fidelity"] = {exp_id: residuals}
    return record


def record_from_server_stats(stats: Dict, *,
                             source: str = "server") -> Dict:
    """Fold a server ``stats`` document: lifetime job-latency series per
    experiment (from the ``repro_job_latency_seconds`` histogram) plus
    the fabric's lifetime cache/unit counters."""
    metrics = stats.get("metrics") or {}

    def _series(name):
        return (metrics.get(name) or {}).get("series") or []

    def _counter_total(name):
        return int(sum(row.get("value", 0) or 0 for row in _series(name)))

    job_latency: Dict[str, Dict] = {}
    for row in _series("repro_job_latency_seconds"):
        exp_id = (row.get("labels") or {}).get("experiment") or "?"
        count = int(row.get("count", 0) or 0)
        if not count:
            continue
        total = float(row.get("sum", 0.0) or 0.0)
        job_latency[exp_id] = {"count": count,
                               "sum_s": round(total, 4),
                               "mean_s": round(total / count, 4)}
    record = {
        "kind": "server",
        "source": source,
        "created_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "calibration_miters_s": None,
        "jobs": stats.get("jobs") or {},
        "uptime_s": stats.get("uptime_s"),
        "job_latency": job_latency,
        "fabric": {"cache_hits": _counter_total("repro_cache_hits_total"),
                   "cache_misses":
                       _counter_total("repro_cache_misses_total"),
                   "units_computed":
                       _counter_total("repro_units_computed_total"),
                   "unit_retries":
                       _counter_total("repro_unit_retries_total")},
    }
    record.update(_provenance())
    return record


def fold_document(doc: Dict, *, source: Optional[str] = None) -> Dict:
    """Auto-detect a document's shape and build the matching record."""
    if not isinstance(doc, dict):
        raise LedgerError(
            "ledger: expected a JSON object (BENCH_exec.json, "
            "metrics.json, or server stats), got "
            f"{type(doc).__name__}")
    if doc.get("generator") == "repro.exec.bench" or (
            "experiments" in doc and "totals" in doc):
        return record_from_bench(doc, source=source or "bench")
    if doc.get("generator") == "repro.obs" or "provenance" in doc:
        return record_from_manifest(doc, source=source or "metrics")
    if "jobs" in doc and "metrics" in doc:
        return record_from_server_stats(doc, source=source or "server")
    raise LedgerError(
        "ledger: unrecognized document shape; foldable inputs are a "
        "bench document (python -m repro bench --bench-out), a metrics "
        "manifest (--metrics), or server stats JSON (repro.sdk stats)")


# -- trajectory analysis ---------------------------------------------------

def _bench_records(records: List[Dict]) -> List[Dict]:
    return [r for r in records if r.get("kind") == "bench"]


def _normalization(records: List[Dict]) -> Optional[Dict[int, float]]:
    """Per-record host-speed factors, or ``None`` when any record lacks
    a calibration score (then raw values are the only honest basis).

    A record's timings are multiplied by ``calibration / median
    calibration``: seconds spent on a fast host count for more work, so
    the series compares code cost, not machine luck — the same
    measured-calibration idea as ``compare_bench``'s preferred mode.
    """
    scores = [r.get("calibration_miters_s") for r in records]
    if not scores or not all(scores):
        return None
    ordered = sorted(scores)
    mid = len(ordered) // 2
    ref = (ordered[mid] if len(ordered) % 2
           else 0.5 * (ordered[mid - 1] + ordered[mid]))
    return {i: score / ref for i, score in enumerate(scores)}


def _metric_value(record: Dict, exp_id: str, metric: str,
                  factor: float) -> Optional[float]:
    if metric == "fidelity":
        entry = (record.get("fidelity") or {}).get(exp_id)
        return entry.get("max_abs_rel_err") if entry else None
    row = (record.get("experiments") or {}).get(exp_id)
    if row is None or row.get(metric) is None:
        return None
    value = float(row[metric])
    if metric in _TIMING_METRICS:
        return value * factor          # slower host -> smaller factor
    if metric in _THROUGHPUT_METRICS:
        return value / factor if factor else value
    return value


def _sparkline(values: List[float]) -> str:
    lo, hi = min(values), max(values)
    if hi - lo < 1e-12:
        return _SPARK[0] * len(values)
    return "".join(
        _SPARK[int((v - lo) / (hi - lo) * (len(_SPARK) - 1))]
        for v in values)


def trend(records: List[Dict], *, metric: str = "serial_s",
          experiment: Optional[str] = None,
          window: Optional[int] = None) -> Dict:
    """Per-experiment series of ``metric`` across bench records."""
    if metric not in TREND_METRICS:
        raise LedgerError(
            f"ledger: unknown trend metric {metric!r}; one of "
            + ", ".join(TREND_METRICS))
    bench = _bench_records(records)
    if window:
        bench = bench[-window:]
    factors = _normalization(bench)
    exp_ids: List[str] = []
    for rec in bench:
        for exp_id in (rec.get("experiments") or {}):
            if exp_id not in exp_ids:
                exp_ids.append(exp_id)
    if experiment is not None:
        if experiment not in exp_ids:
            raise LedgerError(
                f"ledger: no records for experiment {experiment!r}; "
                "ledger has: " + (", ".join(exp_ids) or "none"))
        exp_ids = [experiment]
    experiments: Dict[str, Dict] = {}
    for exp_id in exp_ids:
        values = []
        for i, rec in enumerate(bench):
            factor = factors[i] if factors else 1.0
            value = _metric_value(rec, exp_id, metric, factor)
            if value is not None:
                values.append(round(value, 4))
        if not values:
            continue
        experiments[exp_id] = {
            "values": values,
            "latest": values[-1],
            "min": min(values),
            "max": max(values),
            "spark": _sparkline(values),
        }
    return {
        "metric": metric,
        "normalized": factors is not None,
        "records": len(bench),
        "experiments": experiments,
    }


def render_trend(report: Dict) -> str:
    note = ("calibration-normalized" if report["normalized"]
            else "raw (some records lack a calibration score)")
    lines = [f"ledger trend: {report['metric']} over "
             f"{report['records']} bench records ({note})"]
    if not report["experiments"]:
        lines.append("  (no data — append bench records first)")
        return "\n".join(lines)
    width = max(len(e) for e in report["experiments"])
    for exp_id, row in report["experiments"].items():
        lines.append(
            f"  {exp_id:<{width}}  {row['spark']}  "
            f"{row['values'][0]:g} -> {row['latest']:g}  "
            f"[min {row['min']:g}, max {row['max']:g}, "
            f"n={len(row['values'])}]")
    return "\n".join(lines)


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return (ordered[mid] if len(ordered) % 2
            else 0.5 * (ordered[mid - 1] + ordered[mid]))


def gate(records: List[Dict], *, window: int = 10,
         threshold: float = 0.25, min_abs_s: float = 0.02,
         metric: str = "serial_s") -> Dict:
    """Windowed regression check: newest bench record vs the robust
    center of its recent history.

    The last ``window`` bench records are considered; the newest is the
    candidate, the rest are history.  Per experiment the noise band
    around the history median is ``max(threshold * median, 3 * 1.4826 *
    MAD)`` — three robust standard deviations or the configured
    threshold, whichever is wider — and a regression additionally
    requires the *raw* slowdown to exceed ``min_abs_s`` (timer noise is
    not a regression at any ratio).  Fewer than 2 history records is a
    trivial pass: one point is a baseline, not a trajectory.  Fidelity
    anchors out of tolerance in the newest record fail the gate
    regardless of speed.
    """
    if metric not in _TIMING_METRICS:
        raise LedgerError(
            f"ledger: gate metric must be a timing column "
            f"({', '.join(_TIMING_METRICS)}), got {metric!r}")
    bench = _bench_records(records)[-window:]
    report: Dict = {
        "window": window, "threshold": threshold,
        "min_abs_s": min_abs_s, "metric": metric,
        "records_considered": len(bench),
        "history": max(len(bench) - 1, 0),
        "normalized": False, "experiments": {},
        "regressions": [], "fidelity_breaches": [],
    }
    if not bench:
        report["pass"] = True
        report["reason"] = "no bench records in ledger"
        return report
    newest, history = bench[-1], bench[:-1]
    factors = _normalization(bench)
    report["normalized"] = factors is not None
    if len(history) >= 2:
        for exp_id, row in (newest.get("experiments") or {}).items():
            factor = factors[len(bench) - 1] if factors else 1.0
            value = _metric_value(newest, exp_id, metric, factor)
            if value is None:
                continue
            hist, hist_raw = [], []
            for i, rec in enumerate(history):
                hfactor = factors[i] if factors else 1.0
                hvalue = _metric_value(rec, exp_id, metric, hfactor)
                if hvalue is None:
                    continue
                hist.append(hvalue)
                hist_raw.append(float(rec["experiments"][exp_id][metric]))
            if len(hist) < 2:
                continue
            med = _median(hist)
            mad = _median([abs(v - med) for v in hist])
            band = max(threshold * med, 3 * 1.4826 * mad)
            raw = float(row.get(metric) or 0.0)
            raw_delta = raw - _median(hist_raw)
            status = "ok"
            if value - med > band and raw_delta > min_abs_s:
                status = "regression"
                report["regressions"].append(f"{exp_id}: {metric}")
            elif med - value > band:
                status = "improved"
            report["experiments"][exp_id] = {
                "median": round(med, 4),
                "mad": round(mad, 4),
                "newest": round(value, 4),
                "ratio": round(value / med, 4) if med > 0 else 1.0,
                "band": round(band, 4),
                "raw_delta_s": round(raw_delta, 4),
                "history_n": len(hist),
                "status": status,
            }
    else:
        report["reason"] = (
            f"insufficient history ({len(history)} prior records, "
            "need 2): trivial pass")
    for exp_id, entry in (newest.get("fidelity") or {}).items():
        for name, anchor in (entry.get("metrics") or {}).items():
            if not anchor.get("within_tolerance", True):
                report["fidelity_breaches"].append(
                    f"{exp_id}: {name} (rel_err {anchor.get('rel_err')}, "
                    f"tolerance {anchor.get('tolerance')})")
    report["pass"] = not report["regressions"] \
        and not report["fidelity_breaches"]
    return report


def render_gate(report: Dict) -> str:
    note = "calibration-normalized" if report["normalized"] else "raw"
    lines = [f"ledger gate: {report['metric']} over last "
             f"{report['records_considered']} records "
             f"(window {report['window']}, threshold "
             f"{report['threshold']:.0%}, {note})"]
    if report.get("reason"):
        lines.append(f"  {report['reason']}")
    if report["experiments"]:
        width = max(len(e) for e in report["experiments"])
        for exp_id, row in report["experiments"].items():
            lines.append(
                f"  {exp_id:<{width}}  median {row['median']:g} "
                f"(MAD {row['mad']:g}, n={row['history_n']})  "
                f"newest {row['newest']:g}  ratio {row['ratio']:.2f}x  "
                + (row["status"].upper()
                   if row["status"] == "regression" else row["status"]))
    for breach in report["fidelity_breaches"]:
        lines.append(f"  FIDELITY BREACH {breach}")
    if report["pass"]:
        lines.append("PASS: no sustained regression, fidelity within "
                     "tolerance")
    else:
        failed = report["regressions"] + report["fidelity_breaches"]
        lines.append("FAIL: " + "; ".join(failed))
    return "\n".join(lines)


def _as_bench_doc(record: Dict) -> Dict:
    """A pseudo bench document from a ledger record, good enough for
    :func:`repro.exec.bench.compare_bench`."""
    return {
        "schema_version": 2,
        "host": {"calibration_miters_s":
                 record.get("calibration_miters_s")},
        "code_fingerprint": record.get("code_fingerprint"),
        "git_sha": record.get("git_sha"),
        "experiments": record.get("experiments") or {},
    }


def diff_records(records: List[Dict], *, a: int = -2, b: int = -1,
                 threshold: float = 0.25,
                 min_abs_s: float = 0.02) -> Dict:
    """Diff two bench records (by index, negatives ok) through
    ``compare_bench`` — same thresholds, same normalization."""
    from ..exec.bench import compare_bench  # avoid import cycle

    bench = _bench_records(records)
    if len(bench) < 2:
        raise LedgerError(
            f"ledger: diff needs >= 2 bench records, have {len(bench)}; "
            "append more with bench --ledger or repro ledger record")
    try:
        baseline, current = bench[a], bench[b]
    except IndexError:
        raise LedgerError(
            f"ledger: record index out of range (a={a}, b={b}, "
            f"{len(bench)} bench records)") from None
    return compare_bench(_as_bench_doc(current), _as_bench_doc(baseline),
                         threshold=threshold, min_abs_s=min_abs_s)


# -- CLI -------------------------------------------------------------------

def _summarize(record: Dict) -> str:
    exps = record.get("experiments") or {}
    fid = record.get("fidelity") or {}
    worst = max((entry.get("max_abs_rel_err", 0.0)
                 for entry in fid.values()), default=None)
    parts = [f"kind={record.get('kind')}",
             f"created={record.get('created_utc')}",
             f"git={str(record.get('git_sha'))[:12]}"
             + ("+dirty" if record.get("git_dirty") else "")]
    if exps:
        parts.append(f"experiments={len(exps)}")
        total = sum(float(r.get("serial_s") or 0) for r in exps.values())
        parts.append(f"serial_s={total:.3f}")
    if worst is not None:
        parts.append(f"max_fidelity_err={worst:g}")
    return " ".join(parts)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro ledger",
        description="Longitudinal performance-and-fidelity ledger: "
                    "append-only checksummed JSONL records of bench "
                    "timings, throughput, and Fig 2-8 fidelity "
                    "residuals, with trend sparklines and a windowed "
                    "median/MAD regression gate.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def _common(p):
        p.add_argument("--ledger", default=DEFAULT_LEDGER_PATH,
                       metavar="PATH",
                       help="ledger file (default: %(default)s)")

    p = sub.add_parser("record", help="fold a JSON document into the "
                                      "ledger (shape auto-detected)")
    _common(p)
    p.add_argument("file", help="BENCH_exec.json, metrics.json manifest, "
                                "or server-stats JSON")
    p.add_argument("--source", default=None,
                   help="origin tag stored on the record (default: by "
                        "document kind)")

    p = sub.add_parser("show", help="print one record")
    _common(p)
    p.add_argument("--index", type=int, default=-1,
                   help="record index, negatives from the end "
                        "(default: %(default)s)")
    p.add_argument("--json", action="store_true",
                   help="full record as JSON instead of a summary")

    p = sub.add_parser("trend", help="per-experiment sparklines")
    _common(p)
    p.add_argument("--metric", default="serial_s", choices=TREND_METRICS,
                   help="column to plot (default: %(default)s)")
    p.add_argument("--experiment", default=None,
                   help="restrict to one experiment id")
    p.add_argument("--window", type=int, default=None,
                   help="only the last N bench records (default: all)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")

    p = sub.add_parser("diff", help="compare two records via "
                                    "compare_bench")
    _common(p)
    p.add_argument("--a", type=int, default=-2,
                   help="baseline record index (default: %(default)s)")
    p.add_argument("--b", type=int, default=-1,
                   help="current record index (default: %(default)s)")
    p.add_argument("--threshold", type=float, default=0.25,
                   help="regression threshold (default: %(default)s)")
    p.add_argument("--min-abs-s", type=float, default=0.02,
                   help="noise guard: min absolute slowdown in seconds "
                        "(default: %(default)s)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")

    p = sub.add_parser("gate", help="windowed regression gate "
                                    "(exit 1 on sustained regression "
                                    "or fidelity breach)")
    _common(p)
    p.add_argument("--window", type=int, default=10,
                   help="bench records considered (default: %(default)s)")
    p.add_argument("--threshold", type=float, default=0.25,
                   help="regression threshold vs history median "
                        "(default: %(default)s)")
    p.add_argument("--min-abs-s", type=float, default=0.02,
                   help="noise guard: min absolute slowdown in seconds "
                        "(default: %(default)s)")
    p.add_argument("--metric", default="serial_s",
                   choices=_TIMING_METRICS,
                   help="timing column gated (default: %(default)s)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    return parser


def _load_records(path: str, verb: str) -> Tuple[List[Dict], int]:
    ledger = Ledger(path)
    records, skipped = ledger.read()
    if not records:
        raise LedgerError(
            f"ledger {verb}: no readable records in {path}; append one "
            "with 'python -m repro bench --quick --ledger' or "
            "'python -m repro ledger record BENCH_exec.json'")
    if skipped:
        print(f"ledger: skipped {skipped} corrupt/torn line(s) in "
              f"{path}", file=sys.stderr)
    return records, skipped


def ledger_main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "record":
            try:
                with open(args.file, encoding="utf-8") as fh:
                    doc = json.load(fh)
            except OSError as exc:
                raise LedgerError(
                    f"ledger record: cannot read {args.file}: "
                    f"{exc.strerror or exc}") from None
            except ValueError as exc:
                raise LedgerError(
                    f"ledger record: {args.file} is not JSON "
                    f"({exc})") from None
            record = fold_document(doc, source=args.source)
            stamped = Ledger(args.ledger).append(record)
            total = len(Ledger(args.ledger).read()[0])
            print(f"ledger: appended {stamped['kind']} record "
                  f"(#{total}, sha256 {stamped['sha256'][:12]}…) "
                  f"to {args.ledger}")
            return 0

        records, _ = _load_records(args.ledger, args.verb)
        if args.verb == "show":
            try:
                record = records[args.index]
            except IndexError:
                raise LedgerError(
                    f"ledger show: index {args.index} out of range "
                    f"({len(records)} records)") from None
            if args.json:
                print(json.dumps(record, indent=2, sort_keys=True))
            else:
                print(_summarize(record))
            return 0
        if args.verb == "trend":
            report = trend(records, metric=args.metric,
                           experiment=args.experiment,
                           window=args.window)
            print(json.dumps(report, indent=2) if args.json
                  else render_trend(report))
            return 0
        if args.verb == "diff":
            from ..exec.bench import render_compare

            report = diff_records(records, a=args.a, b=args.b,
                                  threshold=args.threshold,
                                  min_abs_s=args.min_abs_s)
            print(json.dumps(report, indent=2) if args.json
                  else render_compare(report))
            return 1 if report["regressions"] else 0
        # gate
        report = gate(records, window=args.window,
                      threshold=args.threshold,
                      min_abs_s=args.min_abs_s, metric=args.metric)
        print(json.dumps(report, indent=2) if args.json
              else render_gate(report))
        return 0 if report["pass"] else 1
    except LedgerError as exc:
        print(str(exc), file=sys.stderr)
        return 2
