"""The worker pool: serial or multi-process execution of work units.

``--jobs 1`` (the default) computes units in the calling process, in
plan order, under whatever ambient contexts (tracer, fault plan) the
caller installed — byte-for-byte the legacy serial behaviour.

``--jobs N`` fans units out to ``N`` **supervised** worker processes.
Each worker is initialised with the run's fault plan and seed so
``--faults`` and ``--seed`` runs stay bit-identical to serial (unit
runners are pure functions of their parameters, the machine
configuration, and those two ambients).  Results merge into plan order
regardless of completion order, so output is deterministic.

Host-level fault tolerance (see :mod:`repro.exec.resilience`):

* **Crash containment** — a unit whose worker dies is retried with
  bounded exponential backoff (``ResiliencePolicy.max_retries`` pool
  attempts), in a replacement worker, then once in-process; only when
  every attempt fails is it *quarantined* and reported through
  :class:`~repro.exec.resilience.UnitExecutionError` — after the rest
  of the sweep has drained, with the original traceback, never a pool
  internals one.
* **Hung-worker detection** — workers heartbeat the start of every
  unit; with ``ResiliencePolicy.unit_timeout_s`` set, a worker that
  neither finishes nor fails in time is terminated, replaced, and its
  unit retried.
* **Graceful degradation** — when the pool keeps dying (replacement
  budget exhausted, queues stalled, pool fails to start) the remaining
  units are computed serially in this process, so a broken host never
  sinks a sweep that serial execution could finish.
* **Chaos injection** — a resolved :class:`~repro.exec.chaos.ChaosPlan`
  spec makes workers kill themselves, stall, or drop results at
  scripted units, deterministically, to prove all of the above in CI.

Host-time accounting: every computed unit gets a timing record in
``PoolStats.unit_timings`` splitting its wall time into ``run_s`` (the
simulation itself), ``queue_s`` (submit-to-start wait in the worker
queue) and ``return_s`` (result serialisation + round-trip back to the
caller).  Workers stamp ``time.monotonic()`` — comparable across
processes on Linux (CLOCK_MONOTONIC is system-wide), unlike
``perf_counter`` which may not be.  Differences are clamped at zero in
case a platform breaks that assumption.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional

from ..faults import use_faults
from .events import make_event
from .resilience import (
    ResiliencePolicy,
    ResilienceStats,
    UnitExecutionError,
    UnitFailure,
)
from .units import WorkUnit, run_unit

__all__ = ["WorkerPool", "PoolStats"]

#: exit code of a chaos-scripted worker kill (distinguishable in logs)
_CHAOS_EXIT = 43

#: supervisor poll tick, host seconds
_TICK_S = 0.02


class PoolStats:
    """Accounting for one :meth:`WorkerPool.map_units` call."""

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.executed = 0            #: units computed (anywhere)
        self.in_workers = 0          #: units computed in worker processes
        self.retried_in_process = 0  #: worker failures retried serially
        #: seconds spent starting worker processes and submitting units
        self.spawn_s = 0.0
        #: one record per computed unit: ``{key, where, run_s, queue_s,
        #: return_s, overhead_s}`` (see module docstring)
        self.unit_timings: List[Dict] = []
        #: retry/timeout/quarantine/chaos counters for this call
        self.resilience = ResilienceStats()

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "jobs": self.jobs, "executed": self.executed,
            "in_workers": self.in_workers,
            "retried_in_process": self.retried_in_process,
            "spawn_s": round(self.spawn_s, 6)}
        if self.resilience.any():
            out["resilience"] = self.resilience.to_dict()
        return out


# -- worker-process side ----------------------------------------------------

def _seed_worker(seed: int) -> None:
    import random

    random.seed(seed)
    try:
        import numpy

        numpy.random.seed(seed)
    except ImportError:  # pragma: no cover - numpy is a core dependency
        pass


class _ChaosDropReturn(Exception):
    """Chaos: the unit computed fine but its result was dropped on the
    return path (a lost pipe write); retried like any worker failure."""


def _worker_main(task_q, result_q, config, fault_plan, seed,
                 chaos_spec: Dict[str, List[Dict]]) -> None:
    """One worker process: drain tasks until the ``None`` sentinel.

    Every message is written to ``result_q`` (a SimpleQueue) *in the
    worker's own thread*, so a ``start`` heartbeat is on the wire
    before the unit computes — even a chaos ``kill_worker`` that
    ``os._exit``-s mid-unit leaves the supervisor knowing exactly which
    unit died where.
    """
    try:  # spawn start method: re-populate the unit-planner registry
        from .. import experiments  # noqa: F401
    except Exception:  # pragma: no cover - synthetic registries in tests
        pass

    if seed is not None:
        _seed_worker(seed)
    pid = os.getpid()
    while True:
        task = task_q.get()
        if task is None:
            return
        experiment_id, key, params, attempt = task
        result_q.put(("start", pid, key, attempt, time.monotonic()))
        faults = [f for f in chaos_spec.get(key, ())
                  if attempt in f["attempts"]]
        fired: List[str] = []  # chaos kinds that actually fired
        try:
            for fault in faults:
                if fault["kind"] == "kill_worker":
                    # die hard, like an OOM kill: no cleanup, no goodbye
                    os._exit(_CHAOS_EXIT)
                elif fault["kind"] == "delay_unit":
                    fired.append("delay_unit")
                    time.sleep(fault["seconds"])
            t0 = time.monotonic()
            with (nullcontext() if fault_plan is None
                  else use_faults(fault_plan)):
                value = run_unit(experiment_id, params, config)
            t1 = time.monotonic()
            if any(f["kind"] == "drop_return" for f in faults):
                fired.append("drop_return")
                raise _ChaosDropReturn(
                    f"chaos: result of unit {key!r} dropped on the "
                    "return path")
            result_q.put(("done", pid, key, attempt, value, t0, t1,
                          fired))
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            raise
        except BaseException as exc:
            result_q.put(("fail", pid, key, attempt, repr(exc),
                          traceback.format_exc(), fired))


# -- caller side ------------------------------------------------------------

class _UnitTask:
    """Supervisor-side state of one unit's journey through the pool."""

    __slots__ = ("unit", "attempt", "submitted_t", "exhausted_error",
                 "exhausted_tb")

    def __init__(self, unit: WorkUnit):
        self.unit = unit
        self.attempt = 0
        self.submitted_t = 0.0
        self.exhausted_error: Optional[str] = None
        self.exhausted_tb: str = ""


class WorkerPool:
    """Executes work units with ``jobs`` worker processes (1 = serial)."""

    def __init__(self, jobs: int = 1,
                 policy: Optional[ResiliencePolicy] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.policy = policy if policy is not None else ResiliencePolicy()

    def map_units(self, units: List[WorkUnit], config, *,
                  fault_plan=None, seed: Optional[int] = None,
                  stats: Optional[PoolStats] = None,
                  on_unit: Optional[Callable[[WorkUnit, object], None]] = None,
                  on_progress: Optional[Callable[[WorkUnit, Dict],
                                                 None]] = None,
                  on_event: Optional[Callable[[Dict], None]] = None,
                  on_complete: Optional[Callable[[WorkUnit, object],
                                                 None]] = None,
                  chaos_spec: Optional[Dict[str, List[Dict]]] = None,
                  ) -> Dict[str, object]:
        """Compute every unit; returns ``{unit.key: value}`` in plan order.

        ``on_unit(unit, value)`` fires once per completed unit, in plan
        order (the cache/checkpoint write hook).  ``on_progress(unit,
        timing)`` fires as each unit *completes* — out of plan order
        under ``--jobs N`` — with that unit's host-timing record; it is
        the live-telemetry hook and must not mutate results.
        ``on_complete(unit, value)`` also fires at completion time,
        *with* the value — the crash-safe journal hook.  ``on_event``
        receives resilience telemetry records (``retry``,
        ``hung_worker``, ``quarantine``, ``serial_fallback``).

        Units that exhaust every attempt (see
        :class:`~repro.exec.resilience.ResiliencePolicy`) are
        quarantined: the rest of the sweep completes first — and the
        hooks fire for it — then :class:`UnitExecutionError` is raised
        naming each poisoned unit with its original traceback.
        """
        stats = stats if stats is not None else PoolStats(self.jobs)
        chaos_spec = chaos_spec or {}
        if self.jobs == 1 or len(units) <= 1:
            values = self._run_serial(units, config, fault_plan, stats,
                                      on_progress, on_event, on_complete,
                                      chaos_spec)
        else:
            values = self._run_parallel(units, config, fault_plan, seed,
                                        stats, on_progress, on_event,
                                        on_complete, chaos_spec)
        ordered = {u.key: values[u.key] for u in units if u.key in values}
        if on_unit is not None:
            for unit in units:
                if unit.key in ordered:
                    on_unit(unit, ordered[unit.key])
        if stats.resilience.quarantined:
            raise self._quarantine_error(units, stats)
        return ordered

    def _quarantine_error(self, units, stats: PoolStats):
        failures = stats.resilience.quarantined
        experiment_id = units[0].experiment_id if units else "?"
        error = UnitExecutionError(experiment_id, failures,
                                   completed=stats.executed)
        # chain the real exception when an in-process attempt kept it
        for failure in failures:
            if failure.exception is not None:
                error.__cause__ = failure.exception
                break
        return error

    # -- serial path ----------------------------------------------------

    def _run_serial(self, units, config, fault_plan, stats,
                    on_progress=None, on_event=None, on_complete=None,
                    chaos_spec=None) -> Dict[str, object]:
        ctx = (nullcontext() if fault_plan is None
               else use_faults(fault_plan))
        chaos_spec = chaos_spec or {}
        values: Dict[str, object] = {}
        with ctx:
            for unit in units:
                outcome = self._attempt_in_process(
                    unit, config, stats, chaos_spec,
                    max_attempts=self.policy.pool_attempts,
                    on_event=on_event, where="local")
                if isinstance(outcome, UnitFailure):
                    stats.resilience.quarantined.append(outcome)
                    if on_event is not None:
                        on_event(make_event(
                            "quarantine", key=unit.key,
                            attempts=outcome.attempts,
                            error=outcome.error))
                    continue
                value, timing = outcome
                values[unit.key] = value
                stats.executed += 1
                stats.unit_timings.append(timing)
                if on_complete is not None:
                    on_complete(unit, value)
                if on_progress is not None:
                    on_progress(unit, timing)
        return values

    def _attempt_in_process(self, unit, config, stats, chaos_spec, *,
                            max_attempts: int, on_event=None,
                            first_attempt: int = 1, prior_error: str = "",
                            where: str = "local"):
        """Try one unit in this process, honouring retries and chaos.

        Returns ``(value, timing)`` on success or a :class:`UnitFailure`
        once every attempt is spent.  ``KeyboardInterrupt`` always
        propagates immediately — a user's ^C is never "retried".
        """
        policy = self.policy
        last_exc: Optional[BaseException] = None
        attempt = first_attempt
        while attempt <= max_attempts:
            backoff = policy.backoff_for(attempt)
            if backoff > 0:
                time.sleep(backoff)
            faults = [f for f in chaos_spec.get(unit.key, ())
                      if attempt in f["attempts"]
                      and f["kind"] in ("delay_unit", "drop_return")]
            try:
                for fault in faults:
                    if fault["kind"] == "delay_unit":
                        stats.resilience.count_chaos("delay_unit")
                        time.sleep(fault["seconds"])
                t0 = time.monotonic()
                value = run_unit(unit.experiment_id, unit.params, config)
                t1 = time.monotonic()
                if any(f["kind"] == "drop_return" for f in faults):
                    stats.resilience.count_chaos("drop_return")
                    raise _ChaosDropReturn(
                        f"chaos: result of unit {unit.key!r} dropped on "
                        "the return path")
                timing = {"key": unit.key, "where": where,
                          "run_s": round(t1 - t0, 6),
                          "queue_s": 0.0, "return_s": 0.0,
                          "overhead_s": 0.0}
                return value, timing
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                last_exc = exc
                if attempt < max_attempts:
                    stats.resilience.retries += 1
                    if on_event is not None:
                        on_event(make_event(
                            "retry", key=unit.key,
                            attempt=attempt + 1,
                            max_attempts=max_attempts,
                            where="local", error=repr(exc),
                            backoff_s=policy.backoff_for(attempt + 1)))
                attempt += 1
        error = repr(last_exc) if last_exc is not None else prior_error
        tb = ("".join(traceback.format_exception(
                  type(last_exc), last_exc, last_exc.__traceback__))
              if last_exc is not None else "")
        return UnitFailure(
            key=unit.key, experiment_id=unit.experiment_id,
            attempts=max_attempts, error=error, traceback=tb,
            exception=last_exc)

    # -- parallel path --------------------------------------------------

    def _run_parallel(self, units, config, fault_plan, seed, stats,
                      on_progress=None, on_event=None, on_complete=None,
                      chaos_spec=None) -> Dict[str, object]:
        import multiprocessing as mp

        chaos_spec = chaos_spec or {}
        policy = self.policy
        method = ("fork" if "fork" in mp.get_all_start_methods()
                  else "spawn")
        context = mp.get_context(method)
        values: Dict[str, object] = {}
        exhausted: Dict[str, _UnitTask] = {}  # pool gave up; serial next
        unresolved: Dict[str, _UnitTask] = {}  # pool collapsed under them
        tasks = {u.key: _UnitTask(u) for u in units}

        try:
            self._supervise(context, units, tasks, config, fault_plan,
                            seed, stats, values, exhausted, unresolved,
                            chaos_spec, on_progress, on_event, on_complete)
        except (UnitExecutionError, KeyboardInterrupt):
            raise
        except Exception:
            # The pool itself failed to start or collapsed in a way the
            # supervisor could not contain; everything still missing
            # degrades to the serial path below.
            for key, task in tasks.items():
                if key not in values and key not in exhausted:
                    unresolved[key] = task

        # Units the pool never resolved (collapse/stall): full serial
        # treatment, retries included.
        for key, task in unresolved.items():
            if key in values:
                continue
            stats.retried_in_process += 1
            stats.resilience.serial_fallbacks += 1
            if on_event is not None:
                on_event(make_event("serial_fallback", key=key,
                                    reason="pool unavailable"))
            outcome = self._attempt_in_process(
                task.unit, config, stats, chaos_spec,
                max_attempts=policy.pool_attempts, on_event=on_event)
            self._accept_serial_outcome(task, outcome, stats, values,
                                        on_event, on_complete, on_progress)

        # Units that exhausted their pool attempts: one last in-process
        # chance — a unit that only fails inside workers still completes.
        for key, task in exhausted.items():
            if key in values:
                continue
            stats.retried_in_process += 1
            stats.resilience.retries += 1
            stats.resilience.serial_fallbacks += 1
            if on_event is not None:
                on_event(make_event(
                    "retry", key=key, attempt=task.attempt + 1,
                    max_attempts=policy.pool_attempts + 1,
                    where="local", error=task.exhausted_error,
                    backoff_s=0.0))
            outcome = self._attempt_in_process(
                task.unit, config, stats, chaos_spec,
                max_attempts=task.attempt + 1,
                first_attempt=task.attempt + 1,
                prior_error=task.exhausted_error or "", on_event=on_event)
            if isinstance(outcome, UnitFailure) and not outcome.traceback:
                # in-process attempt raised nothing new; report the
                # worker-side story
                outcome.error = task.exhausted_error or outcome.error
                outcome.traceback = task.exhausted_tb
            self._accept_serial_outcome(task, outcome, stats, values,
                                        on_event, on_complete, on_progress)
        return values

    def _accept_serial_outcome(self, task, outcome, stats, values,
                               on_event, on_complete, on_progress):
        if isinstance(outcome, UnitFailure):
            stats.resilience.quarantined.append(outcome)
            if on_event is not None:
                on_event(make_event(
                    "quarantine", key=task.unit.key,
                    attempts=outcome.attempts, error=outcome.error))
            return
        value, timing = outcome
        values[task.unit.key] = value
        stats.executed += 1
        stats.unit_timings.append(timing)
        if on_complete is not None:
            on_complete(task.unit, value)
        if on_progress is not None:
            on_progress(task.unit, timing)

    def _supervise(self, context, units, tasks, config, fault_plan, seed,
                   stats, values, exhausted, unresolved, chaos_spec,
                   on_progress, on_event, on_complete) -> None:
        """The supervisor loop: feed tasks, drain heartbeats/results,
        detect hangs and deaths, retry with backoff, replace workers."""
        policy = self.policy
        n_workers = min(self.jobs, len(units))
        budget = policy.replacement_budget(n_workers)
        task_q = context.Queue()
        result_q = context.SimpleQueue()
        workers: Dict[int, object] = {}
        in_flight: Dict[int, Dict] = {}  # pid -> {key, attempt, start_t}
        pending = deque((u.key, 1, 0.0) for u in units)
        sentinels_sent = 0

        def spawn(initial: bool = False) -> bool:
            if not initial:
                if stats.resilience.workers_replaced >= budget:
                    return False
                stats.resilience.workers_replaced += 1
            proc = context.Process(
                target=_worker_main,
                args=(task_q, result_q, config, fault_plan, seed,
                      chaos_spec),
                daemon=True)
            proc.start()
            workers[proc.pid] = proc
            return True

        def fail_attempt(key: str, attempt: int, error: str, tb: str,
                         now: float) -> None:
            task = tasks[key]
            if attempt < policy.pool_attempts:
                stats.resilience.retries += 1
                backoff = policy.backoff_for(attempt + 1)
                if on_event is not None:
                    on_event(make_event(
                        "retry", key=key, attempt=attempt + 1,
                        max_attempts=policy.pool_attempts + 1,
                        where="worker", error=error,
                        backoff_s=round(backoff, 3)))
                pending.append((key, attempt + 1, now + backoff))
            else:
                task.exhausted_error = error
                task.exhausted_tb = tb
                exhausted[key] = task

        def outstanding() -> int:
            return sum(1 for key in tasks
                       if key not in values and key not in exhausted)

        t_spawn = time.monotonic()
        try:
            for _ in range(n_workers):
                spawn(initial=True)
            stats.spawn_s = time.monotonic() - t_spawn
            last_activity = time.monotonic()
            while outstanding():
                now = time.monotonic()
                progressed = False

                # 1. feed every due task
                still_waiting = deque()
                while pending:
                    key, attempt, not_before = pending.popleft()
                    if key in values or key in exhausted:
                        continue
                    if not_before > now:
                        still_waiting.append((key, attempt, not_before))
                        continue
                    task = tasks[key]
                    task.attempt = attempt
                    task.submitted_t = now
                    unit = task.unit
                    task_q.put((unit.experiment_id, key, unit.params,
                                attempt))
                    progressed = True
                pending.extend(still_waiting)

                # 2. drain heartbeats and results
                while not result_q.empty():
                    msg = result_q.get()
                    progressed = True
                    last_activity = time.monotonic()
                    kind, pid, key, attempt = msg[:4]
                    if kind == "start":
                        in_flight[pid] = {"key": key, "attempt": attempt,
                                          "start_t": msg[4],
                                          "seen_t": time.monotonic()}
                    elif kind == "done":
                        _, _, _, _, value, t0, t1, fired = msg
                        for chaos_kind in fired:
                            stats.resilience.count_chaos(chaos_kind)
                        info = in_flight.pop(pid, None)
                        if key in values:
                            continue  # late duplicate after a retry won
                        recv_t = time.monotonic()
                        task = tasks[key]
                        run_s = max(t1 - t0, 0.0)
                        queue_s = max(t0 - task.submitted_t, 0.0)
                        roundtrip = max(recv_t - task.submitted_t, 0.0)
                        timing = {
                            "key": key, "where": "worker",
                            "run_s": round(run_s, 6),
                            "queue_s": round(queue_s, 6),
                            "return_s": round(max(recv_t - t1, 0.0), 6),
                            "overhead_s": round(
                                max(roundtrip - run_s, 0.0), 6),
                        }
                        values[key] = value
                        stats.executed += 1
                        stats.in_workers += 1
                        stats.unit_timings.append(timing)
                        if on_complete is not None:
                            on_complete(task.unit, value)
                        if on_progress is not None:
                            on_progress(task.unit, timing)
                    elif kind == "fail":
                        _, _, _, _, error, tb, fired = msg
                        for chaos_kind in fired:
                            stats.resilience.count_chaos(chaos_kind)
                        in_flight.pop(pid, None)
                        if key in values:
                            continue
                        fail_attempt(key, attempt, error, tb,
                                     time.monotonic())

                # 3. hung-worker detection: heartbeat said the unit
                # started, but no result within the timeout
                if policy.unit_timeout_s is not None:
                    for pid in list(in_flight):
                        info = in_flight[pid]
                        elapsed = now - info["seen_t"]
                        if elapsed <= policy.unit_timeout_s:
                            continue
                        proc = workers.pop(pid, None)
                        in_flight.pop(pid, None)
                        if proc is not None:
                            proc.terminate()
                            proc.join(timeout=5.0)
                        stats.resilience.timeouts += 1
                        stats.resilience.hung_workers_replaced += 1
                        if on_event is not None:
                            on_event(make_event(
                                "hung_worker", key=info["key"], pid=pid,
                                elapsed_s=round(elapsed, 3),
                                timeout_s=policy.unit_timeout_s))
                        fail_attempt(
                            info["key"], info["attempt"],
                            f"timed out after {elapsed:.1f}s "
                            f"(--unit-timeout {policy.unit_timeout_s}s)",
                            "", time.monotonic())
                        progressed = True
                        if not spawn():
                            raise _PoolCollapsed("replacement budget "
                                                 "exhausted")

                # 4. crashed-worker detection
                for pid in list(workers):
                    proc = workers[pid]
                    if proc.is_alive():
                        continue
                    workers.pop(pid)
                    proc.join()
                    info = in_flight.pop(pid, None)
                    if proc.exitcode == _CHAOS_EXIT:
                        stats.resilience.count_chaos("kill_worker")
                    if sentinels_sent and info is None:
                        continue  # normal exit during shutdown
                    progressed = True
                    if info is not None:
                        fail_attempt(
                            info["key"], info["attempt"],
                            f"worker (pid {pid}) died with exit code "
                            f"{proc.exitcode} while computing unit "
                            f"{info['key']!r}", "", time.monotonic())
                    if outstanding() and not spawn():
                        raise _PoolCollapsed("replacement budget "
                                             "exhausted")

                # 5. stall detection: tasks queued, nothing starting,
                # no heartbeat traffic — the queues are likely wedged
                if outstanding() and not progressed:
                    stall_after = max(
                        30.0,
                        2.0 * (policy.unit_timeout_s or 0.0))
                    quiet = time.monotonic() - last_activity
                    if not workers:
                        raise _PoolCollapsed("no live workers remain")
                    if not in_flight and quiet > stall_after:
                        raise _PoolCollapsed(
                            f"no worker activity for {quiet:.0f}s")
                    time.sleep(_TICK_S)
        except _PoolCollapsed:
            for key, task in tasks.items():
                if key not in values and key not in exhausted:
                    unresolved[key] = task
        finally:
            self._shutdown(task_q, workers, in_flight)

    @staticmethod
    def _shutdown(task_q, workers, in_flight) -> None:
        """Stop every worker: sentinels for the idle, SIGTERM for the
        busy, and never let cleanup mask the in-flight exception."""
        try:
            for _ in range(len(workers) + 1):
                try:
                    task_q.put_nowait(None)
                except Exception:
                    break
            deadline = time.monotonic() + 2.0
            for pid, proc in list(workers.items()):
                if pid in in_flight:
                    proc.terminate()
                proc.join(timeout=max(deadline - time.monotonic(), 0.1))
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
                if proc.is_alive():  # pragma: no cover - last resort
                    proc.kill()
                    proc.join(timeout=1.0)
            task_q.close()
        except Exception:  # pragma: no cover - cleanup must not mask
            pass


class _PoolCollapsed(Exception):
    """Internal: the pool cannot make progress; degrade to serial."""


