"""Host-time self-profiler for the simulator (where *wall* time goes).

Every other instrument in :mod:`repro.obs` attributes **simulated**
cycles; :class:`HostScope` attributes the **host** wall-time the
simulator itself burns — the paper's §4 discipline (decompose observed
time into architectural components before optimising) turned onto our
own event loop.  It answers the questions ROADMAP item 1 needs answered
before any kernel optimisation lands:

* which subsystem eats the host time — event-heap push/pop, callback
  dispatch, thread-scheduling bookkeeping, memory/coherence resolution,
  PVM message handling, trace/metrics export, or the workload bodies
  themselves (:data:`REGIONS`);
* how fast the simulator actually is — simulated cycles per host
  second and events per host second;
* how the event heap behaves — pushes, pops, peak and mean depth.

Attribution works on two levels.  Each simulated
:class:`~repro.sim.process.Process` carries a ``region`` tag set at
creation (machine memory ops are ``memory``, runtime-spawned bodies are
``app``, ...) and every generator slice it executes is timed under that
region.  Pure-Python sections that run *inside* another process's slice
— PVM mailbox work, fork/join spawn bookkeeping — bracket themselves
with :meth:`HostScope.enter` / :meth:`HostScope.exit` (via
:func:`host_region`), which nests exactly like a call stack: self-time
goes to the innermost region, so region self-times partition the wall
clock and their sum covers ≥95% of a profiled run (asserted by CI).

Zero-cost contract (same as tracer/memscope/critscope/faults): with no
profiler installed every emission point pays one ``is None`` check, and
an installed profiler reads ``time.perf_counter_ns`` only — it never
advances simulated time, so results and final simulated clocks are
bit-identical with hostscope on or off (asserted by tests).  Install
via :func:`use_hostscope`; :class:`~repro.sim.engine.Simulator`
instances created inside the scope adopt it.

Light mode (``detail=False``) keeps only the integer counters (events,
simulated ns, heap churn) with no clock reads per region transition —
cheap enough that ``bench`` derives its throughput columns from the
timed serial pass without perturbing it.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter_ns
from typing import Dict, List, Optional

from ..core import ambient as _ambient
from ..core.tables import Table

__all__ = ["REGIONS", "HostScope", "active_hostscope", "use_hostscope",
           "host_region", "hostscope_from_trace", "render_trace_summary"]

SCHEMA_VERSION = 1

#: the host-time region taxonomy (see docs/hostscope.md)
REGIONS = ("event_heap", "dispatch", "app", "sched", "memory", "pvm",
           "export", "run")

#: one-line description per region, used by the renderer and the docs
REGION_HELP = {
    "event_heap": "event-heap pop + queue bookkeeping",
    "dispatch": "event-callback dispatch outside any tagged process",
    "app": "workload thread bodies (generator slices)",
    "sched": "thread scheduling: spawn/fork-join/sync-word bookkeeping",
    "memory": "memory-access / coherence resolution processes",
    "pvm": "PVM message handling (buffers, mailbox insert/match)",
    "export": "trace/metrics export",
    "run": "everything else on the profiled path (planning, assembly)",
}

_NULL_CTX = nullcontext()


class _Region:
    """Re-entrant ``with``-shim over :meth:`HostScope.enter`/``exit``."""

    __slots__ = ("_hs", "_name")

    def __init__(self, hs: "HostScope", name: str):
        self._hs = hs
        self._name = name

    def __enter__(self):
        self._hs.enter(self._name)
        return self._hs

    def __exit__(self, *exc):
        self._hs.exit()
        return False


class HostScope:
    """Region-stack host-time profiler with throughput counters.

    ``detail=True`` (default) times every region transition with
    ``perf_counter_ns``; ``detail=False`` keeps only the counters.
    One instance may observe any number of simulators/machines (an
    experiment's repeats all fold into the same totals).
    """

    def __init__(self, config=None, detail: bool = True):
        self.config = config
        self.detail = detail
        # region accounting (detail mode)
        self._self_ns: Dict[str, int] = {}
        self._cum_ns: Dict[str, int] = {}
        self._enters: Dict[str, int] = {}
        self._active: Dict[str, int] = {}
        self._stack: List[tuple] = []
        self._mark = 0
        self._t_start: Optional[int] = None
        self._t_stop: Optional[int] = None
        # counters (kept in both modes)
        self.events = 0          #: events dispatched (heap pops)
        self.pushes = 0          #: heap pushes
        self.depth_sum = 0       #: sum of heap depth sampled at each pop
        self.max_depth = 0       #: peak heap depth (after a push)
        self.sim_ns = 0.0        #: simulated nanoseconds advanced
        self.processes = 0       #: simulated processes created
        self.simulators = 0      #: Simulator instances that adopted us

    # -- wiring ----------------------------------------------------------
    def adopt_config(self, config) -> None:
        """Learn the machine config (for cycles/sec) from the first Machine."""
        if self.config is None:
            self.config = config

    @property
    def clock_ns(self) -> float:
        return self.config.clock_ns if self.config is not None else 10.0

    # -- region stack (hot path when detail) ------------------------------
    def enter(self, name: str) -> None:
        now = perf_counter_ns()
        stack = self._stack
        if stack:
            top = stack[-1][0]
            self._self_ns[top] = self._self_ns.get(top, 0) \
                + (now - self._mark)
        self._enters[name] = self._enters.get(name, 0) + 1
        self._active[name] = self._active.get(name, 0) + 1
        stack.append((name, now))
        self._mark = now

    def exit(self) -> None:
        stack = self._stack
        if not stack:
            return
        now = perf_counter_ns()
        name, t0 = stack.pop()
        self._self_ns[name] = self._self_ns.get(name, 0) \
            + (now - self._mark)
        remaining = self._active.get(name, 1) - 1
        self._active[name] = remaining
        if remaining == 0:
            # cumulative time counts only the outermost instance of a
            # region, so recursion does not double-count
            self._cum_ns[name] = self._cum_ns.get(name, 0) + (now - t0)
        self._mark = now

    def region(self, name: str) -> _Region:
        """``with hs.region("pvm"): ...`` — a balanced enter/exit pair."""
        return _Region(self, name)

    # -- event-loop counters (hot path in both modes) ---------------------
    def note_push(self, depth: int) -> None:
        """Called by the simulator after each heap push."""
        self.pushes += 1
        if depth > self.max_depth:
            self.max_depth = depth

    # -- wall clock -------------------------------------------------------
    def start(self) -> None:
        self._t_start = perf_counter_ns()
        self._mark = self._t_start

    def stop(self) -> None:
        self._t_stop = perf_counter_ns()

    @contextmanager
    def profile(self, root: str = "run"):
        """Wrap the profiled extent: starts the wall clock and opens the
        ``run`` root region so region self-times partition wall time."""
        self.start()
        self.enter(root)
        try:
            yield self
        finally:
            self.exit()
            self.stop()

    @property
    def wall_ns(self) -> int:
        if self._t_start is None:
            # never profiled: the attributed time is all we know about
            return sum(self._self_ns.values())
        stop = (self._t_stop if self._t_stop is not None
                else perf_counter_ns())
        return stop - self._t_start

    @property
    def wall_s(self) -> float:
        return self.wall_ns / 1e9

    # -- derived ----------------------------------------------------------
    @property
    def sim_cycles(self) -> float:
        return self.sim_ns / self.clock_ns

    @property
    def coverage(self) -> float:
        """Fraction of measured wall-time attributed to some region."""
        wall = self.wall_ns
        if wall <= 0:
            return 1.0
        return min(sum(self._self_ns.values()) / wall, 1.0)

    @property
    def mean_depth(self) -> float:
        return self.depth_sum / self.events if self.events else 0.0

    # -- reporting ---------------------------------------------------------
    def to_dict(self, top: int = 10) -> Dict:
        wall_s = self.wall_s
        regions = {}
        order = [r for r in REGIONS if r in self._self_ns] \
            + [r for r in self._self_ns if r not in REGIONS]
        for name in order:
            self_ns = self._self_ns.get(name, 0)
            regions[name] = {
                "self_s": round(self_ns / 1e9, 6),
                "cumulative_s": round(self._cum_ns.get(name, 0) / 1e9, 6),
                "enters": self._enters.get(name, 0),
                "share": round(self_ns / max(self.wall_ns, 1), 4),
            }
        doc = {
            "schema_version": SCHEMA_VERSION,
            "detail": self.detail,
            "clock_ns": self.clock_ns,
            "wall_s": round(wall_s, 6),
            "regions": regions,
            "coverage": round(self.coverage, 4),
            "throughput": {
                "sim_ns": round(self.sim_ns, 1),
                "sim_mcycles": round(self.sim_cycles / 1e6, 4),
                "events": self.events,
                "sim_mcycles_per_s": round(
                    self.sim_cycles / 1e6 / wall_s, 4) if wall_s > 0 else 0.0,
                "events_per_s": round(
                    self.events / wall_s, 1) if wall_s > 0 else 0.0,
            },
            "event_heap": {
                "pushes": self.pushes,
                "pops": self.events,
                "max_depth": self.max_depth,
                "mean_depth": round(self.mean_depth, 2),
            },
            "processes": self.processes,
            "simulators": self.simulators,
        }
        return doc

    def render(self, title: str = "hostscope", top: int = 10,
               width: int = 36) -> str:
        doc = self.to_dict(top=top)
        parts = [f"== {title} =="]
        if not self.detail:
            parts.append("(light mode: counters only, no region timing)")
        regions = doc["regions"]
        if regions:
            rt = Table(
                f"host-time attribution (wall {doc['wall_s']:.3f} s, "
                f"coverage {doc['coverage']:.1%})",
                ["region", "self s", "cum s", "enters", "share", ""])
            ranked = sorted(regions.items(),
                            key=lambda kv: -kv[1]["self_s"])[:top]
            for name, row in ranked:
                bar = "#" * max(int(round(row["share"] * width)),
                                1 if row["self_s"] > 0 else 0)
                rt.add_row(name, f"{row['self_s']:.4f}",
                           f"{row['cumulative_s']:.4f}", row["enters"],
                           f"{row['share']:.1%}", bar)
            parts.append(rt.render())
        if self.events:
            tp = doc["throughput"]
            heap = doc["event_heap"]
            tt = Table("simulator throughput (host-clock)",
                       ["metric", "value"])
            tt.add_row("simulated Mcycles", f"{tp['sim_mcycles']:.3f}")
            tt.add_row("events dispatched", tp["events"])
            tt.add_row("sim Mcycles / host s", f"{tp['sim_mcycles_per_s']:.3f}")
            tt.add_row("events / host s", f"{tp['events_per_s']:.0f}")
            tt.add_row("heap pushes", heap["pushes"])
            tt.add_row("heap max depth", heap["max_depth"])
            tt.add_row("heap mean depth", f"{heap['mean_depth']:.1f}")
            tt.add_row("processes created", doc["processes"])
            tt.add_row("simulators", doc["simulators"])
            parts.append(tt.render())
        else:
            parts.append(
                "no simulator activity was recorded (analytic model-level "
                "experiment); host time above is the analytic model and "
                "report assembly itself")
        return "\n\n".join(parts)


# Ambient installation (hostscope stack of repro.core.ambient):
# simulators built inside the block adopt the installed profiler.
active_hostscope = _ambient.HOSTSCOPE.active
use_hostscope = _ambient.HOSTSCOPE.use


def host_region(hs: Optional[HostScope], name: str):
    """A ``with``-context attributing the block's host time to ``name``.

    Returns a shared null context when ``hs`` is None or in light mode,
    so library code can bracket pure-Python sections unconditionally.
    """
    if hs is None or not hs.detail:
        return _NULL_CTX
    return _Region(hs, name)


# -- trace-based summaries --------------------------------------------------

def hostscope_from_trace(events: List[Dict]) -> Dict:
    """A coarse event-census from a saved ``--trace`` file.

    A Chrome trace records *simulated* time, not host time — host-time
    attribution needs a live run (``python -m repro hostscope <exp>``).
    This summary still answers "what would the profiler see": event
    counts by phase and category, span names, and the simulated span.
    """
    by_phase: Dict[str, int] = {}
    by_cat: Dict[str, int] = {}
    t_min, t_max = None, None
    for ev in events:
        ph = str(ev.get("ph", "?"))
        by_phase[ph] = by_phase.get(ph, 0) + 1
        cat = str(ev.get("cat", "?"))
        by_cat[cat] = by_cat.get(cat, 0) + 1
        ts = ev.get("ts")
        if isinstance(ts, (int, float)):
            t_min = ts if t_min is None else min(t_min, ts)
            t_max = ts if t_max is None else max(t_max, ts)
    return {
        "schema_version": SCHEMA_VERSION,
        "source": "trace",
        "events": len(events),
        "events_by_phase": dict(sorted(by_phase.items())),
        "events_by_category": dict(sorted(by_cat.items())),
        "simulated_span_us": (round(t_max - t_min, 3)
                              if t_min is not None else 0.0),
    }


def render_trace_summary(doc: Dict, title: str = "hostscope") -> str:
    """Human tables for a :func:`hostscope_from_trace` document."""
    parts = [f"== hostscope (from trace): {title} =="]
    ct = Table("trace event census",
               ["category", "events"])
    for cat, n in sorted(doc["events_by_category"].items(),
                         key=lambda kv: -kv[1]):
        ct.add_row(cat, n)
    ct.add_row("TOTAL", doc["events"])
    parts.append(ct.render())
    parts.append(f"simulated span: {doc['simulated_span_us']:.1f} us "
                 f"({doc['events']} trace events)")
    parts.append("note: a trace records simulated time; host-time "
                 "attribution and throughput need a live run "
                 "(python -m repro hostscope <experiment>)")
    return "\n\n".join(parts)
