"""Ambient context stacks: hand one observer to every object an
experiment builds internally, without threading it through signatures.

An :class:`Ambient` is a push/pop stack.  ``with X.use(value):``
installs ``value`` for the dynamic extent of the block and
``X.active()`` returns the innermost installed value (or ``None``).
Pushing ``None`` masks an outer value -- an explicit "none here"
scope, which ``use_faults(None)`` relies on.

The stacks below are the process-wide observers.  Machines,
simulators and the performance model read them at construction, so
nothing here imports from the rest of the package (no import cycle).
The per-thread trace context (:mod:`repro.obs.tracectx`) is not one of
them: its stack is thread-local.
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = ["Ambient", "TRACER", "FAULTS", "MEMSCOPE", "CRITSCOPE",
           "HOSTSCOPE"]


class Ambient:
    """A stack of ambient values."""

    __slots__ = ("_stack",)

    def __init__(self):
        self._stack = []

    def active(self):
        """The innermost installed value, or ``None``."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def use(self, value):
        """Install ``value`` for the dynamic extent of the ``with``."""
        self._stack.append(value)
        try:
            yield value
        finally:
            self._stack.pop()


TRACER = Ambient()
FAULTS = Ambient()
MEMSCOPE = Ambient()
CRITSCOPE = Ambient()
HOSTSCOPE = Ambient()
