"""The phase-level execution model.

Given an application's per-thread :class:`~repro.perfmodel.phase.Phase`
records and a :class:`~repro.perfmodel.phase.TeamSpec`, compute the
simulated-machine execution time of each step:

* pipeline time — ``max(flops x flop_cycles, words x mem_port_cycles)``
  (the PA-7100 issues one data access and one flop per cycle, paper §2.6);
* cache-miss stalls — traffic is converted to misses through a
  working-set spill ramp (resident below ``cache_ramp_lo x 1 MB``, fully
  spilled above ``cache_ramp_hi``); streaming misses overlap
  (``stream_overlap`` outstanding), random (gather/scatter/tree-walk)
  misses pay the full latency; each miss costs the local or the ~8x
  remote latency according to the phase's :class:`LocalityMix`;
* contention — bank/crossbar pressure from threads sharing a hypernode,
  ring pressure from threads generating remote traffic;
* messages — analytic PVM costs (:func:`pvm_oneway_ns`);
* barriers — :func:`barrier_ns` per step;
* OS interference — a machine-full team shares its CPUs with the
  operating system (the §6 complaint), stretching the critical path by
  ``os_daemon_load``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core import ambient
from ..core.config import MachineConfig
from ..core.metrics import mflops as _mflops
from .comm import barrier_ns, pvm_oneway_ns, remote_miss_cycles
from .phase import Access, Phase, StepWork, TeamSpec

__all__ = ["PerformanceModel", "RunResult"]

_WORD = 8


@dataclass(frozen=True)
class RunResult:
    """Modelled execution of a workload."""

    time_ns: float
    flops: float
    n_threads: int

    @property
    def mflops(self) -> float:
        return _mflops(self.flops, self.time_ns) if self.flops else 0.0


class PerformanceModel:
    """Executes phase records against one machine configuration."""

    def __init__(self, config: MachineConfig):
        config.validate()
        self.config = config
        #: analytic timeline cursor for trace emission: successive steps
        #: modelled by this instance lay out end-to-end on the trace
        self._trace_clock = 0.0

    # -- cache behaviour ---------------------------------------------------
    def spill_fraction(self, working_set_bytes: float,
                       access: Access) -> float:
        """Fraction of a phase's traffic that misses the 1 MB data cache.

        Random access halves the effective cache (direct-mapped conflict
        misses on irregular index streams).
        """
        cfg = self.config
        cache = cfg.dcache_bytes
        if access is Access.RANDOM:
            cache *= 0.5
        lo, hi = cfg.cache_ramp_lo * cache, cfg.cache_ramp_hi * cache
        if working_set_bytes <= lo:
            return 0.0
        if working_set_bytes >= hi:
            return 1.0
        return (working_set_bytes - lo) / (hi - lo)

    # -- per-phase time ------------------------------------------------------
    def phase_time_ns(self, phase: Phase, team: TeamSpec, tid: int) -> float:
        b = self.phase_breakdown(phase, team, tid)
        return b["pipe_ns"] + b["stall_ns"] + b["msg_ns"]

    def phase_breakdown(self, phase: Phase, team: TeamSpec,
                        tid: int) -> dict:
        """Where a phase's modelled time goes: pipeline, stalls, messages.

        Returns ``{"pipe_ns", "stall_ns", "msg_ns"}`` — the stall
        breakdown the CXpa/hpm workflow of §6 exposes, attached verbatim
        to the trace events the model emits.
        """
        cfg = self.config
        words = phase.traffic_bytes / _WORD
        pipe_cycles = max(phase.flops * cfg.flop_cycles,
                          words * cfg.mem_port_cycles)

        prof = self._miss_profile(phase, team, tid)
        stall_cycles = prof["misses"] * (
            prof["local_share"] * prof["local_cost"] * prof["bank_factor"]
            + prof["remote_share"] * prof["remote_cost"]
            * prof["ring_factor"] * prof["bank_factor"])

        msg_ns = sum(
            # a one-way transfer's cost spans sender and receiver; charge
            # half to each side so a send+recv pair sums to one transfer
            0.5 * pvm_oneway_ns(cfg, msg.nbytes, msg.remote)
            for msg in phase.messages)
        return {"pipe_ns": cfg.cycles(pipe_cycles),
                "stall_ns": cfg.cycles(stall_cycles),
                "msg_ns": msg_ns}

    def _miss_profile(self, phase: Phase, team: TeamSpec, tid: int) -> dict:
        """The modelled miss population of one phase for one thread.

        Shared by :meth:`phase_breakdown` (which prices it) and the
        memscope model attribution (which counts it): miss count, the
        local/remote split after GCB reuse, per-miss costs and the
        contention factors.
        """
        cfg = self.config
        words = phase.traffic_bytes / _WORD
        spill = self.spill_fraction(phase.working_set_bytes, phase.access)
        miss_share = max(spill, cfg.cold_miss_fraction)
        if phase.access is Access.STREAM:
            # one miss per line, overlapped
            misses = (phase.traffic_bytes / cfg.line_bytes) * miss_share
            local_cost = cfg.miss_local_cycles / cfg.stream_overlap
            remote_cost = remote_miss_cycles(cfg) / cfg.stream_overlap
        else:
            # irregular accesses miss at up to random_miss_cap per word
            # (line-level spatial locality bounds the rate); full latency,
            # no overlap
            misses = words * miss_share * cfg.random_miss_cap
            local_cost = cfg.miss_local_cycles
            remote_cost = remote_miss_cycles(cfg)

        my_hn = team.hypernode_of_thread(tid)
        local_threads = team.threads_on_hypernode(my_hn)
        bank_factor = 1.0 + cfg.bank_contention * (local_threads - 1)
        remote_sources = max(0, team.n_threads - team.threads_on_hypernode(
            team.hypernodes[0])) if team.n_hypernodes_used > 1 else 0
        ring_factor = 1.0 + cfg.ring_contention * max(
            0.0, remote_sources / cfg.n_rings - 1.0)

        mix = phase.locality
        # remote traffic that the global cache buffer retains between
        # steps is served at local-miss cost (paper §2.5)
        remote_share = mix.remote * (1.0 - phase.remote_reuse)
        local_share = mix.private + mix.node + mix.remote * phase.remote_reuse
        return {"misses": misses, "local_cost": local_cost,
                "remote_cost": remote_cost, "bank_factor": bank_factor,
                "ring_factor": ring_factor, "local_share": local_share,
                "remote_share": remote_share}

    # -- per-step and full-run time --------------------------------------------
    def step_time_ns(self, step: StepWork, team: TeamSpec) -> float:
        if step.n_threads != team.n_threads:
            raise ValueError(
                f"step describes {step.n_threads} threads, team has "
                f"{team.n_threads}")
        cfg = self.config
        per_thread = [
            sum(self.phase_time_ns(p, team, tid) for p in phases)
            for tid, phases in enumerate(step.thread_phases)
        ]
        critical = max(per_thread) if per_thread else 0.0
        bar_ns = step.barriers * barrier_ns(
            cfg, team.n_threads, team.n_hypernodes_used)
        critical += bar_ns
        if team.n_threads >= cfg.n_cpus:
            # machine full: application threads timeshare with the OS
            critical *= 1.0 + cfg.os_daemon_load
        tracer = ambient.TRACER.active()
        if tracer is not None and tracer.enabled:
            self._emit_step_trace(tracer, step, team, per_thread, bar_ns,
                                  critical)
        ms = ambient.MEMSCOPE.active()
        if ms is not None:
            # model-attributed miss profile: how many misses each phase
            # generates and how they split local vs remote (the same
            # split phase_breakdown prices into stall time)
            for tid, phases in enumerate(step.thread_phases):
                for phase in phases:
                    prof = self._miss_profile(phase, team, tid)
                    ms.model_phase(
                        phase.name, prof["misses"],
                        prof["misses"] * prof["local_share"],
                        prof["misses"] * prof["remote_share"])
        return critical

    def _emit_step_trace(self, tracer, step: StepWork, team: TeamSpec,
                         per_thread, bar_ns: float, critical: float) -> None:
        """Emit one modelled step as complete ('X') events, one track per
        CPU, with the pipe/stall/message breakdown in each event's args."""
        t0 = self._trace_clock
        cpus = team.cpus
        for tid, phases in enumerate(step.thread_phases):
            cursor = t0
            pid = team.hypernode_of_thread(tid)
            for phase in phases:
                parts = self.phase_breakdown(phase, team, tid)
                dur = parts["pipe_ns"] + parts["stall_ns"] + parts["msg_ns"]
                tracer.complete(cursor, dur, phase.name, "perfmodel",
                                pid=pid, tid=cpus[tid], args=parts)
                cursor += dur
        crit_tid = per_thread.index(max(per_thread)) if per_thread else 0
        tracer.complete(t0, critical, "step", "perfmodel",
                        pid=team.hypernode_of_thread(crit_tid),
                        tid=cpus[crit_tid],
                        args={"barrier_ns": bar_ns,
                              "n_threads": team.n_threads,
                              "critical_path_ns": critical})
        self._trace_clock = t0 + critical

    def run(self, steps: Sequence[StepWork], team: TeamSpec,
            repeat: int = 1) -> RunResult:
        """Model ``repeat`` iterations of the given step sequence."""
        if repeat < 1:
            raise ValueError("repeat must be >= 1")
        step_time = sum(self.step_time_ns(s, team) for s in steps)
        step_flops = sum(s.total_flops for s in steps)
        return RunResult(time_ns=step_time * repeat,
                         flops=step_flops * repeat,
                         n_threads=team.n_threads)
