"""The profiler registry: one entry per scope (memscope, critscope,
hostscope).

Every profiler reaches the same entry points -- the ``python -m repro
<scope> <experiment>`` verb (or ``--trace PATH``), the ``--<scope>``
flag of an observed run, the ``<scope>`` block of a metrics manifest,
and the job server's telemetry kinds.  The CLI, the server and
:func:`repro.obs.metrics.build_manifest` all iterate :data:`SCOPES`, so
a profiler's quirks live in its entry and nowhere else:

* memscope: ``--memscope-sample``, and the verb's placement-probe
  fallback when no cycle-level machine ran;
* critscope: ``--what-if`` projections, and no block at all when no
  simulated threads ran;
* hostscope: installing it also opens the ``run`` root region
  (:meth:`~repro.obs.hostscope.HostScope.profile`).

Entries import their profiler module on first use, so loading the
registry costs nothing on runs that observe nothing.
"""

from __future__ import annotations

import importlib
import sys
from typing import Dict, List, Optional

from ..core import ambient

__all__ = ["Scope", "SCOPES"]


def _opt(args, name: str, default):
    """``args.name``, or ``default`` without CLI arguments (the server)."""
    return default if args is None else getattr(args, name)


class Scope:
    """How one profiler is built, installed, reported and read back."""

    name = ""
    #: the profiler class in ``repro.obs.<name>``
    profiler = ""
    #: the stack of :mod:`repro.core.ambient` the profiler installs on
    ambient: ambient.Ambient
    #: experiment suggested by the verb's usage message
    example = ""
    #: one line for the verb listings
    summary = ""
    #: the verb's description in ``python -m repro --help``
    verb_help = ""
    #: ``--<name>`` flag help
    flag_help = ""

    @property
    def module(self):
        return importlib.import_module(f"repro.obs.{self.name}")

    def add_flags(self, parser) -> None:
        parser.add_argument(f"--{self.name}", action="store_true",
                            help=self.flag_help)

    def prepare(self, args) -> bool:
        """Check the scope's options; False after printing why."""
        return True

    def create(self, config, args=None):
        return getattr(self.module, self.profiler)(config)

    def enter(self, stack, scope) -> None:
        """Install ``scope`` for the extent of the ``ExitStack``."""
        stack.enter_context(self.ambient.use(scope))

    def after_verb(self, scope, config) -> None:
        """Verb-only follow-up once the experiment has run."""

    def empty(self, scope) -> bool:
        """True when the run gave the profiler nothing to report (then
        the entry also defines ``empty_message(exp_id)`` for the verb)."""
        return False

    def report_kwargs(self, args) -> Dict:
        return {"top": _opt(args, "top", 10)}

    def block(self, scope, args=None) -> Optional[Dict]:
        """The manifest / telemetry block, or None when empty."""
        if self.empty(scope):
            return None
        return scope.to_dict(**self.report_kwargs(args))

    def render(self, scope, exp_id: str, args) -> str:
        return scope.render(title=f"{self.name}: {exp_id}",
                            **self.report_kwargs(args))

    def from_trace(self, events: List[Dict]) -> Dict:
        return getattr(self.module, f"{self.name}_from_trace")(events)

    def render_trace(self, doc: Dict, title: str) -> str:
        return self.module.render_trace_summary(doc, title=title)


class _MemScope(Scope):
    name = "memscope"
    profiler = "MemScope"
    ambient = ambient.MEMSCOPE
    example = "fig6"
    summary = "memory-system profile of an experiment"
    verb_help = ("memory-system profile: miss classes, hop counts, ring "
                 "occupancy, hot pages")
    flag_help = ("attach the memory-system profiler to the run: print the "
                 "miss-class/occupancy profile and fold a 'memscope' block "
                 "into --metrics manifests")

    def add_flags(self, parser) -> None:
        super().add_flags(parser)
        parser.add_argument(
            "--memscope-sample", type=int, default=1, metavar="N",
            help="profile 1-in-N accesses for the per-page heat map "
                 "(aggregate miss/hit counters stay exact; default: 1 = "
                 "every access)")

    def create(self, config, args=None):
        return self.module.MemScope(
            config, sample=_opt(args, "memscope_sample", 1))

    def after_verb(self, scope, config) -> None:
        if scope.machine_accesses == 0:
            # Model-level experiment: the analytic perfmodel attributed
            # its miss populations (the 'model' block) but no cycle-level
            # machine ran.  Probe the machine's actual page placement
            # under this config so the miss-class breakdown reflects
            # real GCB/SCI paths.
            self.module.placement_probe(config, scope)


class _CritScope(Scope):
    name = "critscope"
    profiler = "CritScope"
    ambient = ambient.CRITSCOPE
    example = "fig3"
    summary = "wait-state / critical-path analysis of an experiment"
    verb_help = ("wait-state and critical-path analysis with what-if "
                 "speedup projections")
    flag_help = ("attach the critical-path analyzer to the run: print the "
                 "per-thread wait-state attribution, critical path and "
                 "what-if projections, and fold a 'critscope' block into "
                 "--metrics manifests")

    def prepare(self, args) -> bool:
        """Parse repeated ``--what-if CAT=FACTOR`` into ``[(cat,
        factor)]`` in place; False (after one actionable stderr line) on
        the first malformed spec."""
        from .critscope import CATEGORIES, WHAT_IF_PARAMS

        scalable = ", ".join(sorted(WHAT_IF_PARAMS)) + ", compute, memory"
        out = []
        for spec in args.what_if or []:
            cat, sep, factor_s = spec.partition("=")
            if not sep:
                print(f"--what-if expects CATEGORY=FACTOR (got {spec!r}); "
                      f"e.g. --what-if barrier_release=2", file=sys.stderr)
                return False
            try:
                factor = float(factor_s)
            except ValueError:
                print(f"--what-if factor must be a number (got "
                      f"{factor_s!r} in {spec!r})", file=sys.stderr)
                return False
            if factor <= 0:
                print(f"--what-if factor must be > 0 (got {factor_s} in "
                      f"{spec!r}); 2 means 'twice as fast'",
                      file=sys.stderr)
                return False
            if cat not in CATEGORIES or cat == "idle":
                print(f"--what-if category {cat!r} is not projectable; "
                      f"choose one of: {scalable}", file=sys.stderr)
                return False
            out.append((cat, factor))
        args.what_if = out
        return True

    def empty(self, scope) -> bool:
        return not any(run.threads for run in scope.runs)

    def empty_message(self, exp_id: str) -> str:
        return (f"experiment {exp_id!r} ran no cycle-level machine (it is "
                "an analytic model-level experiment); critscope needs "
                "simulated threads to attribute — try fig2, fig3, fig4, "
                "or a PVM experiment")

    def report_kwargs(self, args) -> Dict:
        return {"top": _opt(args, "top", 10),
                "what_if": _opt(args, "what_if", None) or None}

    def render(self, scope, exp_id: str, args) -> str:
        if self.empty(scope):
            return (f"[critscope {exp_id}] no cycle-level machine ran "
                    "(analytic model-level experiment); nothing to "
                    "attribute")
        return super().render(scope, exp_id, args)


class _HostScope(Scope):
    name = "hostscope"
    profiler = "HostScope"
    ambient = ambient.HOSTSCOPE
    example = "fig2"
    summary = "host-time self-profile of an experiment"
    verb_help = ("host-time self-profile: wall-clock attribution per "
                 "simulator subsystem plus cycles/s and events/s "
                 "throughput")
    flag_help = ("attach the host-time self-profiler to the run: print the "
                 "per-subsystem wall-clock attribution and throughput "
                 "report, and fold a 'hostscope' block into --metrics "
                 "manifests")

    def enter(self, stack, scope) -> None:
        super().enter(stack, scope)
        stack.enter_context(scope.profile())


#: every profiler, in flag / manifest order
SCOPES: Dict[str, Scope] = {
    s.name: s for s in (_MemScope(), _CritScope(), _HostScope())}
