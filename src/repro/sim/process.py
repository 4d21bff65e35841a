"""Generator-based simulated processes.

A process wraps a Python generator.  The generator ``yield``s
:class:`~repro.sim.engine.Event` objects; the process sleeps until each
yielded event triggers, then resumes with the event's value (or has the
event's exception thrown into it).  A :class:`Process` is itself an event
that succeeds with the generator's return value, so processes can wait on
each other::

    def child(sim):
        yield sim.timeout(10.0)
        return 42

    def parent(sim):
        value = yield sim.process(child(sim))
        assert value == 42
"""

from __future__ import annotations

from heapq import heappush
from typing import Generator

from .engine import _UNSET, Event, Simulator
from .errors import Interrupt, SimulationError

__all__ = ["Process"]


class Process(Event):
    """A running simulated activity; also an event for its completion."""

    __slots__ = ("_generator", "_target", "name", "region")

    def __init__(self, sim: Simulator, generator: Generator, name: str = "",
                 region: "str | None" = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process needs a generator, got {type(generator).__name__}; "
                "did you call the function instead of passing its generator?")
        self.sim = sim
        self.callbacks = []
        self.defused = False
        self._value = _UNSET
        self._ok = None
        sim.alive_processes += 1
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: hostscope region this process's generator slices bill to
        self.region = region or "app"
        hs = sim.hostscope
        if hs is not None:
            hs.processes += 1
        #: the event this process is currently waiting on (None when ready)
        self._target: Event | None = None
        # Kick-start at the current instant: an already-succeeded event
        # pushed straight onto the heap.
        start = Event(sim)
        start._ok = True
        start._value = None
        start.callbacks.append(self._resume)
        queue = sim._queue
        heappush(queue, (sim._now, next(sim._seq), start))
        if hs is not None:
            hs.note_push(len(queue))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def succeed(self, value=None) -> "Event":
        Event.succeed(self, value)
        self.sim.alive_processes -= 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        Event.fail(self, exception)
        self.sim.alive_processes -= 1
        return self

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process must currently be waiting on an event; the event itself
        stays pending (the process simply stops waiting for it).
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has already terminated")
        if self._target is None:
            raise SimulationError(f"{self!r} cannot be interrupted right now")
        target, self._target = self._target, None
        if target.callbacks is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        wakeup = Event(self.sim)
        wakeup.defused = True
        wakeup.callbacks.append(self._resume)
        wakeup.fail(Interrupt(cause))

    # -- internal -------------------------------------------------------
    def _resume(self, event: Event) -> None:
        # Host-time attribution: each generator slice bills to the
        # process's hostscope region.  Off path (no profiler): one None
        # check and a try/finally — the body stays inline, no extra call.
        # ``event`` has been processed, so its slots are read directly.
        sim = self.sim
        hs = sim.hostscope
        prof = hs is not None and hs.detail
        if prof:
            hs.enter(self.region)
        try:
            self._target = None
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event.defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return
            if not isinstance(next_event, Event):
                kind = type(next_event).__name__
                self._generator.close()
                self.fail(SimulationError(
                    f"process {self.name!r} yielded a non-event ({kind})"))
                return
            if next_event.sim is not sim:
                self._generator.close()
                self.fail(SimulationError(
                    f"process {self.name!r} yielded an event from another "
                    "simulator"))
                return
            if next_event.callbacks is None:
                # Already processed: resume immediately (at the current
                # instant) via a fresh proxy event so ordering stays FIFO.
                proxy = Event(sim)
                proxy.callbacks.append(self._resume)
                if next_event._ok:
                    proxy.succeed(next_event._value)
                else:
                    next_event.defused = True
                    proxy.defused = True
                    proxy.fail(next_event._value)
                self._target = proxy
            else:
                next_event.callbacks.append(self._resume)
                self._target = next_event
        finally:
            if prof:
                hs.exit()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"
