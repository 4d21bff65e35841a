"""Discrete-event simulation kernel.

The kernel is a classic event-heap simulator in the style of SimPy, reduced
to exactly what the SPP-1000 machine model needs: events, timeouts,
generator-based processes, and condition events (``all_of`` / ``any_of``).

Simulated time is a ``float`` measured in **nanoseconds** throughout this
project (the SPP-1000 has a 10 ns clock, so one CPU cycle = 10.0).

Typical use::

    sim = Simulator()

    def worker(sim, out):
        yield sim.timeout(25.0)
        out.append(sim.now)

    out = []
    sim.process(worker(sim, out))
    sim.run()
    assert out == [25.0]
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Callable, Generator, Iterable, Optional

from ..core import ambient
from .errors import (
    DeadlockError,
    EventAlreadyTriggered,
    SimulationError,
)

__all__ = ["Event", "Timeout", "Condition", "Simulator"]

_UNSET = object()


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *untriggered*; calling :meth:`succeed` or :meth:`fail`
    triggers it and schedules its callbacks to run at the current simulation
    time.  Processes wait on events by ``yield``-ing them.
    """

    __slots__ = ("sim", "callbacks", "defused", "_value", "_ok")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: callables invoked with this event once it has been processed
        self.callbacks: Optional[list] = []
        #: set True by a waiter that handled this event's failure itself
        self.defused = False
        self._value = _UNSET
        self._ok: Optional[bool] = None

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not _UNSET

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event has left the queue)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self):
        """The success value or failure exception carried by the event."""
        if self._value is _UNSET:
            raise SimulationError("event has not been triggered yet")
        return self._value

    # -- triggering ----------------------------------------------------
    # An event is pushed exactly once: triggering an already-triggered
    # event raises, and a Timeout is triggered (and pushed) at creation.
    def succeed(self, value=None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._value is not _UNSET:
            raise EventAlreadyTriggered(repr(self))
        self._ok = True
        self._value = value
        sim = self.sim
        queue = sim._queue
        heappush(queue, (sim._now, next(sim._seq), self))
        if sim.hostscope is not None:
            sim.hostscope.note_push(len(queue))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception thrown into waiting processes."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _UNSET:
            raise EventAlreadyTriggered(repr(self))
        self._ok = False
        self._value = exception
        sim = self.sim
        queue = sim._queue
        heappush(queue, (sim._now, next(sim._seq), self))
        if sim.hostscope is not None:
            sim.hostscope.note_push(len(queue))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that succeeds ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value=None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self.defused = False
        self.delay = delay
        self._ok = True
        self._value = value
        queue = sim._queue
        heappush(queue, (sim._now + delay, next(sim._seq), self))
        if sim.hostscope is not None:
            sim.hostscope.note_push(len(queue))


class Condition(Event):
    """An event that triggers when a predicate over child events holds.

    Used through :meth:`Simulator.all_of` / :meth:`Simulator.any_of`.  The
    value of a condition is a dict mapping each *triggered* child event to
    its value.
    """

    __slots__ = ("_events", "_need", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event], need: int):
        super().__init__(sim)
        self._events = tuple(events)
        for ev in self._events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from simulators")
        self._need = min(need, len(self._events))
        self._count = 0
        if not self._events or self._need <= 0:
            self.succeed({})
            return
        for ev in self._events:
            if ev.processed:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defused = True  # suppress "unhandled failure" semantics
            self.fail(event.value)
            return
        self._count += 1
        if self._count >= self._need:
            self.succeed(
                {ev: ev.value for ev in self._events if ev.triggered and ev.ok}
            )


class Simulator:
    """The event loop: an event heap ordered by (time, sequence)."""

    def __init__(self):
        self._now = 0.0
        self._queue: list = []
        self._seq = itertools.count()
        #: optional :class:`~repro.sim.trace.Tracer` counting event
        #: dispatches under ``"sim.dispatch"``.  Left ``None`` by default
        #: so the hot loop pays nothing; the machine model attaches its
        #: tracer here when tracing is enabled.  Read once per
        #: :meth:`run` call, so attach it before running.
        self.tracer = None
        #: optional :class:`~repro.faults.watchdog.Watchdog` whose report
        #: enriches deadlock diagnostics; attached by the machine model
        #: when a fault plan configures one.
        self.watchdog = None
        #: live (unfinished) :class:`~repro.sim.process.Process` count,
        #: maintained by the processes themselves — deadlock context.
        self.alive_processes = 0
        #: optional :class:`~repro.obs.hostscope.HostScope` attributing
        #: *host* wall-time to simulator subsystems.  Adopted from the
        #: ambient ``use_hostscope`` scope at construction; ``None`` by
        #: default so the hot loop pays nothing.  Read once per
        #: :meth:`run` call, so attach it before running.
        self.hostscope = ambient.HOSTSCOPE.active()
        if self.hostscope is not None:
            self.hostscope.simulators += 1

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- event factories -------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value=None) -> Timeout:
        """Create an event that fires ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def all_of(self, events: Iterable[Event]) -> Condition:
        """An event that fires once *all* ``events`` have succeeded."""
        events = tuple(events)
        return Condition(self, events, need=len(events))

    def any_of(self, events: Iterable[Event]) -> Condition:
        """An event that fires once *any one* of ``events`` has succeeded."""
        return Condition(self, tuple(events), need=1)

    def process(self, generator: Generator, region: "str | None" = None):
        """Start a new :class:`~repro.sim.process.Process` from a generator.

        ``region`` names the :mod:`~repro.obs.hostscope` host-time region
        the process's generator slices are attributed to (default
        ``"app"``); it has no effect on simulated time.
        """
        return Process(self, generator, region=region)

    def schedule_callback(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` ns; returns the underlying event."""
        ev = self.timeout(delay)
        ev.callbacks.append(lambda _ev: fn())
        return ev

    # -- execution --------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event from the queue."""
        self._step_hooked(self.hostscope, self.tracer)

    def _step_hooked(self, hs, tracer) -> None:
        """Dispatch one event with host-time accounting (``hs``) and/or a
        ``"sim.dispatch"`` count (``tracer``); either may be ``None``."""
        detail = hs is not None and hs.detail
        queue = self._queue
        if hs is not None:
            hs.events += 1
            hs.depth_sum += len(queue)
        if detail:
            hs.enter("event_heap")
            time, _seq, event = heappop(queue)
            hs.exit()
        else:
            time, _seq, event = heappop(queue)
        if time < self._now - 1e-12:
            raise SimulationError("event scheduled in the past")
        if hs is not None and time > self._now:
            hs.sim_ns += time - self._now
        self._now = time
        if tracer is not None:
            tracer.emit(time, "sim.dispatch")
        callbacks, event.callbacks = event.callbacks, None
        if detail:
            hs.enter("dispatch")
            try:
                for callback in callbacks:
                    callback(event)
            finally:
                hs.exit()
        else:
            for callback in callbacks:
                callback(event)
        if not event._ok and not event.defused:
            raise event._value

    def run(self, until: "float | Event | None" = None):
        """Run the event loop.

        ``until`` may be ``None`` (drain the queue), a time (run up to and
        including that instant), or an :class:`Event` (run until it has been
        processed, returning its value; raises :class:`DeadlockError` if the
        queue drains first).

        The ``hostscope`` and ``tracer`` hooks are read once, here: one
        attached while the loop runs takes effect at the next call.
        """
        horizon = float("inf")
        if isinstance(until, Event):
            sentinel = until
        else:
            # A never-triggered event: its callbacks never become None.
            sentinel = Event(self)
            if until is not None:
                horizon = float(until)
                if horizon < self._now:
                    raise ValueError("cannot run backwards in time")
        queue = self._queue
        hs, tracer = self.hostscope, self.tracer
        hooked = hs is not None or tracer is not None
        while sentinel.callbacks is not None and queue \
                and queue[0][0] <= horizon:
            if hooked:
                self._step_hooked(hs, tracer)
                continue
            time, _seq, event = heappop(queue)
            if time < self._now - 1e-12:
                raise SimulationError("event scheduled in the past")
            self._now = time
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event.defused:
                # A failed event nobody waited on: surface the error
                # loudly rather than silently dropping it.
                raise event._value
        if sentinel is until:
            if sentinel.callbacks is not None:
                raise DeadlockError(
                    "event queue drained before target event triggered",
                    now=self._now, pending=self.alive_processes,
                    report=(self.watchdog.report(self._now)
                            if self.watchdog is not None else None))
            if sentinel._ok:
                return sentinel._value
            raise sentinel._value
        if until is not None:
            self._now = max(self._now, horizon)
        return None


# Process subclasses Event, so it is imported once Event and Simulator exist.
from .process import Process  # noqa: E402
