"""Structured event tracing for the simulator (the ``repro.obs`` bus).

The machine model, thread runtime, PVM layer, and performance model all
emit through a :class:`Tracer`.  Two families of records exist:

* **legacy counters** (:meth:`Tracer.emit`) — cheap category counts with
  optional :class:`TraceRecord` capture, used by the coherence machinery
  (cache misses, ring transfers, invalidations, ...);
* **structured events** (:meth:`begin` / :meth:`end` / :meth:`instant` /
  :meth:`complete` / :meth:`counter`) — Chrome-trace-shaped events with
  thread/CPU/hypernode attribution, exportable to Perfetto via
  :mod:`repro.obs.export`.

Instrumentation-overhead contract (paper §4 analogue)
-----------------------------------------------------
Emitting through a :class:`Tracer` never advances simulated time: spans
and counters are bookkeeping on the side of the event loop, so a run
traced with ``enabled=True`` takes *exactly* the same number of
simulated nanoseconds as an untraced run (asserted by
``tests/obs/test_spans.py``).  The only simulated-time intrusion comes
from explicit clock reads (``ThreadEnv.timestamp``), which cost
``timer_overhead_cycles`` each and are counted under the
``"timer.read"`` category so reports can correct for them, exactly as
the paper subtracts timestamp cost from its measurements.

Host-time fast path (``counting``)
----------------------------------
By default a disabled tracer still counts every :meth:`emit` so that
``count()`` works without recording (the hpm counters are "always on" on
the real machine too).  Constructing with ``counting=False`` while
disabled rebinds :meth:`emit` to a true no-op — zero dict work per
event — at the documented price that ``count()`` then returns 0 for
everything.  This is the knob for hot batch runs that want the machine
model at full host speed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..core import ambient as _ambient

__all__ = ["TraceRecord", "TraceEvent", "Tracer", "active_tracer",
           "use_tracer"]


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence: ``(time_ns, category, payload)``."""

    time: float
    category: str
    payload: Tuple = ()


@dataclass
class TraceEvent:
    """One structured event, shaped like a Chrome trace-event record.

    ``ph`` is the Chrome phase letter: ``B``/``E`` span begin/end, ``X``
    complete (carries ``dur``), ``i`` instant, ``C`` counter sample.
    Times are simulated **nanoseconds** (the exporter converts to the
    microseconds Chrome expects).  ``pid`` is the hypernode, ``tid`` the
    CPU (or simulated thread) the event is attributed to.
    """

    name: str
    cat: str
    ph: str
    ts: float
    pid: int = 0
    tid: int = 0
    dur: float = 0.0
    args: Dict = field(default_factory=dict)


class Tracer:
    """Collects counters, :class:`TraceRecord`, and :class:`TraceEvent`."""

    def __init__(self, enabled: bool = False,
                 categories: Optional[Iterable[str]] = None,
                 counting: bool = True):
        self.enabled = enabled
        self.counting = counting
        self.categories = frozenset(categories) if categories else None
        self.records: List[TraceRecord] = []
        self.events: List[TraceEvent] = []
        self._counters: Dict[str, int] = {}
        # (pid, tid) -> stack of (name, begin_ts, counter snapshot)
        self._open_spans: Dict[Tuple[int, int], List[tuple]] = {}
        if not counting and not enabled:
            # Zero-cost fast path: one attribute lookup + no-op call per
            # emit, no dict work.  count() is documented to return 0.
            self.emit = self._emit_noop  # type: ignore[method-assign]

    # -- legacy counter interface -----------------------------------------
    def _emit_noop(self, time: float, category: str, *payload) -> None:
        """Fast path bound over :meth:`emit` when fully disabled."""

    def emit(self, time: float, category: str, *payload) -> None:
        """Record an occurrence (cheap no-op when disabled)."""
        if self.counting:
            self._counters[category] = self._counters.get(category, 0) + 1
        if not self.enabled:
            return
        if self.categories is not None and category not in self.categories:
            return
        self.records.append(TraceRecord(time, category, payload))

    def count(self, category: str) -> int:
        """Occurrences of ``category``.

        Counted even when recording is disabled, *unless* the tracer was
        built with ``counting=False`` (the zero-cost fast path), in
        which case this is always 0.
        """
        return self._counters.get(category, 0)

    @property
    def counters(self) -> Dict[str, int]:
        return dict(self._counters)

    def select(self, category: str) -> List[TraceRecord]:
        """All recorded records of one category (requires ``enabled``)."""
        return [r for r in self.records if r.category == category]

    # -- structured span interface -----------------------------------------
    def begin(self, ts: float, name: str, cat: str = "app", *,
              pid: int = 0, tid: int = 0, args: Optional[Dict] = None) -> None:
        """Open a span on track ``(pid, tid)``; snapshots the counters.

        The matching :meth:`end` attributes the counter *delta* over the
        span to it — the automatic per-phase ``hpm``-style attribution
        the paper performed by bracketing regions with counter reads.
        """
        if not self.enabled:
            return
        stack = self._open_spans.setdefault((pid, tid), [])
        stack.append((name, ts, dict(self._counters)))
        self.events.append(TraceEvent(name, cat, "B", ts, pid, tid,
                                      args=dict(args) if args else {}))

    def end(self, ts: float, name: str, cat: str = "app", *,
            pid: int = 0, tid: int = 0, args: Optional[Dict] = None) -> None:
        """Close the innermost open span named ``name`` on ``(pid, tid)``."""
        if not self.enabled:
            return
        out: Dict = dict(args) if args else {}
        stack = self._open_spans.get((pid, tid))
        if stack and stack[-1][0] == name:
            _name, t0, snapshot = stack.pop()
            delta = {k: v - snapshot.get(k, 0)
                     for k, v in self._counters.items()
                     if v != snapshot.get(k, 0)}
            out["dur_ns"] = ts - t0
            if delta:
                out["counters"] = delta
        self.events.append(TraceEvent(name, cat, "E", ts, pid, tid, args=out))

    @contextmanager
    def span(self, clock, name: str, cat: str = "app", *,
             pid: int = 0, tid: int = 0, args: Optional[Dict] = None):
        """Context manager over :meth:`begin`/:meth:`end`.

        ``clock`` is a zero-argument callable returning the current
        simulated time (pass ``lambda: sim.now``); it is read at entry
        and exit so the span brackets whatever ran inside.
        """
        self.begin(clock(), name, cat, pid=pid, tid=tid, args=args)
        try:
            yield self
        finally:
            self.end(clock(), name, cat, pid=pid, tid=tid)

    def instant(self, ts: float, name: str, cat: str = "app", *,
                pid: int = 0, tid: int = 0,
                args: Optional[Dict] = None) -> None:
        """A zero-duration marker (barrier arrival, message post, ...)."""
        if not self.enabled:
            return
        self.events.append(TraceEvent(name, cat, "i", ts, pid, tid,
                                      args=dict(args) if args else {}))

    def complete(self, ts: float, dur: float, name: str, cat: str = "app", *,
                 pid: int = 0, tid: int = 0,
                 args: Optional[Dict] = None) -> None:
        """A span with a known duration (analytic perfmodel phases)."""
        if not self.enabled:
            return
        self.events.append(TraceEvent(name, cat, "X", ts, pid, tid, dur=dur,
                                      args=dict(args) if args else {}))

    def counter(self, ts: float, name: str, values: Dict[str, float], *,
                pid: int = 0) -> None:
        """A counter-track sample (renders as a stacked chart in Perfetto)."""
        if not self.enabled:
            return
        self.events.append(TraceEvent(name, "counter", "C", ts, pid, 0,
                                      args=dict(values)))

    # -- span queries -------------------------------------------------------
    def spans(self, name: Optional[str] = None) -> List[TraceEvent]:
        """Closed (``E``) and complete (``X``) span events, optionally by name."""
        return [e for e in self.events if e.ph in ("E", "X")
                and (name is None or e.name == name)]

    def clear(self) -> None:
        self.records.clear()
        self.events.clear()
        self._counters.clear()
        self._open_spans.clear()


# Ambient tracer: a Machine built inside ``with use_tracer(t):`` (without
# an explicit ``tracer=``) adopts ``t``, so a whole experiment -- however
# many machines it builds -- funnels into one event stream.
active_tracer = _ambient.TRACER.active
use_tracer = _ambient.TRACER.use
