"""Per-layer tracing from outside the program.

:class:`Tracer` installs wrappers around public callables of each layer,
at the place callers look the name up: a module-level function is
replaced in every ``repro`` module namespace (and module-level dict)
that refers to it, a method is replaced on its class.  The program's
code is not modified.

Every wrapped call is a frame on one stack.  A frame's *self* time is
its duration minus the time of the frames nested in it, so per-layer
self times partition the traced time.  Coarse calls (``Simulator.run``,
``Machine(...)``, ``rectangle_mesh`` ...) are also kept as spans — name,
key, start, end, parent span, pass id, pid — in memory and written out
when the pass ends.  Hot calls (memory-op generators, PVM send/recv,
barrier waits, ``step_time_ns``) are only counted and timed, so the span
list stays small.

A callable that returns a generator is timed per resume: the wrapper
drives the original generator and times each ``send``/``throw``, so the
simulated time a process spends waiting between resumes is not counted
as host time.

Worker processes forked by the execution fabric inherit the wrappers.
Each worker starts from empty totals and writes them to
``<worker_dir>/worker-<pid>.json`` when it exits; :func:`merge` folds
such dumps together.
"""

from __future__ import annotations

import functools
import inspect
import json
import multiprocessing.util
import os
import sys
import types
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: keys recorded as counts and times only, never as spans
HOT_KEYS = frozenset({"machine.mem_op", "runtime.fork", "runtime.barrier_wait",
                      "pvm.send", "pvm.recv", "perfmodel.step"})


class Tracer:
    """Wrappers, a frame stack and per-key totals for one traced pass."""

    def __init__(self, worker_dir: str, config=None):
        from repro.obs.hostscope import HostScope

        #: stamped on every span; the caller sets it per sweep
        self.pass_id = ""
        self.worker_dir = worker_dir
        self.owner_pid = os.getpid()
        #: counters only: simulator events, processes, simulated time
        self.hostscope = HostScope(config, detail=False)
        self._exit_hooked = False
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.counts: Dict[str, int] = defaultdict(int)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.cache: Dict[str, int] = defaultdict(int)
        self.spans: List[list] = []
        self._stack: List[list] = []     # frames: [key, child_s, span_id]
        self._machines: list = []        # built since the last harvest
        hs = self.hostscope
        hs.events = hs.processes = hs.simulators = hs.pushes = 0
        hs.sim_ns = 0.0

    # -- frames -----------------------------------------------------------
    def _enter(self, key: str, name: Optional[str]) -> float:
        stack = self._stack
        span_id = stack[-1][2] if stack else None
        if name is not None:
            self.spans.append([len(self.spans), span_id, name, key, 0.0, 0.0,
                               self.pass_id, os.getpid()])
            span_id = len(self.spans) - 1
        stack.append([key, 0.0, span_id])
        t0 = perf_counter()
        if name is not None:
            self.spans[span_id][4] = t0
        return t0

    def _exit(self, t0: float, spanned: bool) -> None:
        t1 = perf_counter()
        dur = t1 - t0
        key, child_s, span_id = self._stack.pop()
        self.self_s[key] += dur - child_s
        if spanned:
            self.spans[span_id][5] = t1
        if self._stack:
            self._stack[-1][1] += dur
            if any(frame[0] == key for frame in self._stack):
                return  # nested in itself: the outer frame counts it
        self.incl_s[key] += dur

    # -- wrappers -----------------------------------------------------------
    def _wrap(self, fn: Callable, key: str, name, count=None, after=None):
        """``fn`` counted and timed under ``key``; ``name`` (a string or a
        callable of the arguments) names its span, None for no span."""
        tracer = self
        spanned = name is not None and key not in HOT_KEYS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key] += count(*args, **kwargs) if count else 1
            label = (name(*args, **kwargs) if callable(name) else name) \
                if spanned else None
            t0 = tracer._enter(key, label)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(t0, spanned)
                if after is not None:
                    after(*args, **kwargs)
            if isinstance(out, types.GeneratorType):
                return tracer._timed_gen(out, key)
            return out
        return wrapper

    def _timed_gen(self, gen, key: str):
        """Drive ``gen``, timing each resume as one frame of ``key``."""
        enter, exit_ = self._enter, self._exit
        resume, arg = gen.send, None
        while True:
            t0 = enter(key, None)
            try:
                out = resume(arg)
            except StopIteration as stop:
                return stop.value
            finally:
                exit_(t0, False)
            try:
                arg = yield out
                resume = gen.send
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in: forward to gen
                resume, arg = gen.throw, exc

    def _replace(self, fn: Callable, wrapper: Callable) -> None:
        """Point every ``repro`` module reference to ``fn`` at ``wrapper``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is fn:
                    namespace[attr] = wrapper
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is fn:
                            value[k] = wrapper

    def patch_function(self, fn: Callable, key: str, name=None,
                       after=None) -> None:
        self._replace(fn, self._wrap(fn, key, name or fn.__qualname__,
                                     after=after))

    def patch_method(self, cls: type, attr: str, key: str,
                     count=None, after=None) -> None:
        fn = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(fn, key, f"{cls.__name__}.{attr}",
                                      count, after))

    # -- the program's layers ----------------------------------------------
    def install(self):
        """Wrap every layer's entry points; returns a traced
        :func:`repro.exec.execute`."""
        import repro.experiments as experiments
        from repro.apps.fem import mesh as fem_mesh
        from repro.apps.fem import workload as fem_workload
        from repro.apps.nbody import workload as nbody_workload
        from repro.apps.pic import workload as pic_workload
        from repro.apps.ppm import workload as ppm_workload
        from repro.exec import execute, units
        from repro.machine.system import Machine
        from repro.perfmodel.model import PerformanceModel
        from repro.pvm.system import PvmTask
        from repro.runtime.barrier import Barrier
        from repro.runtime.runtime import Runtime, ThreadEnv
        from repro.sim.engine import Simulator

        self.patch_method(Simulator, "run", "sim.run")
        self.patch_method(Machine, "__init__", "machine.build",
                          after=lambda machine, *a, **k:
                          self._machines.append(machine))
        for op in ("_load", "_store", "_fetch_add", "_block", "_spin_until"):
            self.patch_method(Machine, op, "machine.mem_op")
        self.patch_method(Runtime, "run", "runtime.run")
        self.patch_method(ThreadEnv, "fork_join", "runtime.fork",
                          count=lambda env, n_threads, *a, **k: n_threads)
        self.patch_method(ThreadEnv, "spawn_async", "runtime.fork")
        self.patch_method(Barrier, "wait", "runtime.barrier_wait")
        self.patch_method(PvmTask, "send", "pvm.send", after=self._note_bytes)
        self.patch_method(PvmTask, "recv", "pvm.recv")
        self.patch_method(PerformanceModel, "run", "perfmodel.run")
        self.patch_method(PerformanceModel, "step_time_ns", "perfmodel.step")

        self.patch_function(fem_mesh.rectangle_mesh, "apps.mesh")
        for module in (fem_workload, pic_workload, nbody_workload,
                       ppm_workload):
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value) and (
                        attr.startswith("problem_")
                        or attr.endswith("_problem")):
                    self.patch_function(value, "apps.problem")
                elif inspect.isclass(value) and attr.endswith("Workload"):
                    for meth in [m for m in vars(value)
                                 if m == "__init__" or m.startswith("run")]:
                        self.patch_method(value, meth, "apps.workload")

        self.patch_function(units.run_unit, "experiments.unit",
                            name=lambda experiment_id, *a, **k:
                            f"unit {experiment_id}",
                            after=self._unit_done)
        get_experiment = experiments.get_experiment

        @functools.wraps(get_experiment)
        def traced_get_experiment(experiment_id):
            return self._wrap(get_experiment(experiment_id),
                              "experiments.assemble",
                              f"assemble {experiment_id}",
                              after=lambda *a, **k: self.harvest())
        self._replace(get_experiment, traced_get_experiment)
        return self._wrap(execute, "exec.execute",
                          lambda experiment_id, *a, **k:
                          f"execute {experiment_id}")

    def _note_bytes(self, task, dest_tid, payload, nbytes, *a, **k) -> None:
        self.counts["pvm.bytes"] += nbytes

    def _unit_done(self, *args, **kwargs) -> None:
        self.harvest()
        if os.getpid() != self.owner_pid and not self._exit_hooked:
            # a forked pool worker: write its totals when it exits
            self._exit_hooked = True
            multiprocessing.util.Finalize(None, self._write_worker,
                                          exitpriority=100)

    def harvest(self) -> None:
        """Fold the cache counters of machines built since the last call."""
        for machine in self._machines:
            for name, value in machine.cache_stats().items():
                self.cache[name] += value
        self._machines.clear()

    # -- output -----------------------------------------------------------
    def dump(self) -> Dict:
        self.harvest()
        hs = self.hostscope
        return {"counts": dict(self.counts), "incl_s": dict(self.incl_s),
                "self_s": dict(self.self_s), "cache": dict(self.cache),
                "sim": {"events": hs.events, "processes": hs.processes,
                        "cycles": hs.sim_cycles},
                "spans": self.spans}

    def _write_worker(self) -> None:
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)


def merge(dumps: List[Dict]) -> Dict:
    """Sum several :meth:`Tracer.dump` results (parent and workers)."""
    out: Dict = {"counts": defaultdict(int), "incl_s": defaultdict(float),
                 "self_s": defaultdict(float), "cache": defaultdict(int),
                 "sim": defaultdict(int), "spans": []}
    for dump in dumps:
        for part in ("counts", "incl_s", "self_s", "cache", "sim"):
            for key, value in dump[part].items():
                out[part][key] += value
        out["spans"].extend(dump["spans"])
    return {k: (dict(v) if isinstance(v, defaultdict) else v)
            for k, v in out.items()}
