"""Unified observability layer (the paper's §6 instrumentation story).

The paper credits the CXpa profiler and the hpm hardware counters for
every optimisation win it reports; this package is the analogous
first-class measurement subsystem for the simulated machine:

* :mod:`repro.sim.trace` — the structured, span-capable event bus
  (``Tracer``); every layer (machine, runtime, PVM, perfmodel) emits
  into it with thread/CPU/hypernode attribution;
* :mod:`repro.obs.export` — Chrome trace-event JSON (open in Perfetto
  or ``chrome://tracing``; one track per simulated CPU) and JSONL
  event streams;
* :mod:`repro.obs.metrics` — per-run ``metrics.json`` manifests:
  headline experiment data, per-phase span times, counter deltas,
  imbalance factors, instrumentation-overhead accounting;
* :mod:`repro.obs.phases` — automatic per-phase hpm counter
  attribution (:class:`PhaseAttributor` drives ``tools.hpm.diff`` at
  phase boundaries);
* :mod:`repro.obs.timeline` — ASCII Gantt rendering of traces
  (``python -m repro timeline``);
* :mod:`repro.obs.memscope` — the memory-system profiler: per-access
  miss classification (local/GCB/SCI-remote with hop counts),
  directory/SCI transition counters, a false-sharing & ping-pong
  detector, ring/crossbar occupancy timelines, and page/hypernode
  hotspot heatmaps (``python -m repro memscope``; see
  ``docs/memscope.md``);
* :mod:`repro.obs.hostscope` — the host-time self-profiler: attributes
  *wall-clock* time to simulator subsystems (event heap, dispatch,
  memory/coherence, scheduling, PVM, application code) and reports
  simulated-cycles/s and events/s throughput (``python -m repro
  hostscope``; see ``docs/hostscope.md``);
* :mod:`repro.obs.registry` — the service metrics registry: stdlib
  counters/gauges/histograms with labels, snapshot-consistent reads,
  and Prometheus text exposition (served by ``repro serve
  --metrics-port``; see ``docs/operations.md``);
* :mod:`repro.obs.tracectx` — end-to-end trace context: one trace ID
  minted in the SDK, carried over the NDJSON protocol, stamped onto
  exec-pool unit progress, and stitched with the simulated Chrome
  trace into a single client → server → worker → simulated-time file;
* :mod:`repro.obs.top` — the live operations dashboard (``python -m
  repro top``): job table, throughput sparkline, cache hit rate, and
  worker occupancy against a running server or a replayed progress
  JSONL;
* :mod:`repro.obs.ledger` — the longitudinal performance-and-fidelity
  ledger (``python -m repro ledger``): append-only checksummed JSONL
  records of bench timings/throughput/provenance plus the Fig 2-8
  fidelity residuals of :mod:`repro.obs.fidelity`, with trend
  sparklines and a windowed median/MAD regression gate (see
  ``docs/ledger.md``).

The package exports are resolved on first access (each submodule is
imported when one of its names is first used), so importing one
submodule -- the profiler registry :mod:`repro.obs.scopes` on every
command line, say -- does not load the rest.

Zero-cost contract: tracing never advances simulated time, and a fully
disabled tracer (``Tracer(counting=False)``) costs one no-op call per
emission point in host time.  See :mod:`repro.sim.trace` for the
overhead-correction story mirroring the paper's §4 methodology.
"""

import importlib

#: submodule -> the names this package re-exports from it
_EXPORTS = {
    "..sim.trace": ("Tracer", "TraceEvent", "active_tracer", "use_tracer"),
    ".export": ("chrome_trace", "write_chrome_trace", "jsonl_lines",
                "write_jsonl", "load_trace", "load_trace_checked"),
    ".critscope": ("CritScope", "active_critscope", "use_critscope",
                   "scaled_config", "critscope_from_trace"),
    ".metrics": ("build_manifest", "provenance_stamp", "span_summary",
                 "write_metrics"),
    ".phases": ("PhaseAttributor", "PhaseCounters"),
    ".timeline": ("render_timeline", "timeline_from_tracer"),
    ".memscope": ("MemScope", "active_memscope", "use_memscope",
                  "placement_probe", "memscope_from_trace"),
    ".hostscope": ("HostScope", "active_hostscope", "use_hostscope",
                   "hostscope_from_trace"),
    ".fidelity": ("FIDELITY_EXPERIMENTS", "fidelity_residuals"),
    ".ledger": ("Ledger", "LedgerError", "DEFAULT_LEDGER_PATH",
                "record_checksum", "record_from_bench",
                "record_from_manifest", "record_from_server_stats",
                "fold_document"),
    ".registry": ("MetricsRegistry", "Counter", "Gauge", "Histogram"),
    ".tracectx": ("TraceContext", "active_tracectx", "use_tracectx",
                  "mint_trace_id", "stitch_chrome_trace",
                  "write_chrome_json"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = list(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value
