"""The simulated SPP-1000: processors, caches, memory, and coherence.

:class:`Machine` wires together every component of §2 of the paper and
exposes the operations that programs running *on* the machine use:

* ``load`` / ``store`` — coherent cached accesses (word granularity for
  values, line granularity for coherence);
* ``fetch_add`` — uncached atomic read-modify-write, the primitive behind
  the runtime's counting semaphores;
* ``read_block`` / ``write_block`` — pipelined bulk transfers (PVM copies);
* ``spin_until`` — spin-waiting on a cached variable, modelled by
  subscription to the line's next invalidation (this is how the paper's
  barrier release works, §4.2);
* ``compute`` — burn CPU cycles;
* ``alloc`` — obtain memory of one of the five §3.2 classes.

All of these return simulation :class:`~repro.sim.process.Process` objects
(or events) to be ``yield``-ed from a simulated thread.

Coherence protocol summary (two levels, as in the paper):

* Within a hypernode, a directory entry per line tracks which local CPUs
  hold copies; writes invalidate the other local sharers one directory
  operation at a time.
* Across hypernodes, a line shared beyond its home carries an SCI
  doubly-linked list of sharing hypernodes; a remote fetch attaches the
  fetching hypernode at the head and deposits the line in that
  hypernode's *global cache buffer* (GCB), so subsequent misses from the
  same hypernode are satisfied locally.  A write purges the list, paying
  one ring traversal + agent visit per sharing hypernode.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core import ambient
from ..core.config import MachineConfig, spp1000
from ..faults.plan import FaultPlan
from ..sim import Event, Simulator, Tracer
from . import sci as sci_mod
from .address import AddressSpace, HomeLocation, MemClass, Region
from .cache import DirectMappedCache
from .directory import HypernodeDirectory
from .interconnect import Interconnect
from .memory import MemorySubsystem
from .sci import SCIDirectory
from .tlb import TLB
from .topology import Topology

__all__ = ["Machine"]

_WORD = 8  # value-store granularity (64-bit words)


class Machine:
    """A fully wired simulated SPP-1000."""

    def __init__(self, config: Optional[MachineConfig] = None,
                 sim: Optional[Simulator] = None,
                 tracer: Optional[Tracer] = None,
                 faults: Optional[FaultPlan] = None):
        self.config = config or spp1000()
        self.config.validate()
        self.sim = sim or Simulator()
        # No explicit tracer: adopt the ambient one (``use_tracer``) so a
        # CLI-level ``--trace`` reaches machines built deep inside
        # experiment code; otherwise a quiet default.
        self.tracer = tracer or ambient.TRACER.active() or Tracer()
        if self.tracer.enabled:
            self.sim.tracer = self.tracer
        self.topology = Topology(self.config)
        self.space = AddressSpace(self.config)
        self.caches: List[DirectMappedCache] = [
            DirectMappedCache(self.config) for _ in range(self.config.n_cpus)
        ]
        self.tlbs: List[TLB] = [
            TLB(self.config) for _ in range(self.config.n_cpus)
        ]
        self.directories: List[HypernodeDirectory] = [
            HypernodeDirectory(hn) for hn in range(self.config.n_hypernodes)
        ]
        self.sci = SCIDirectory()
        self.net = Interconnect(self.sim, self.config)
        self.mem = MemorySubsystem(self.sim, self.config)
        self._values: Dict[int, object] = {}
        # line -> {cpu: wake event} for spin-waiters
        self._spin_waiters: Dict[int, Dict[int, Event]] = {}
        # Memory-system profiler: adopt the ambient instance
        # (``use_memscope``) and wire it into every component that emits
        # into it.  Without one, every emission point in the machine,
        # caches, directories, banks, rings and SCI lists pays exactly
        # one ``is None`` check — the zero-cost contract.
        ms = self.memscope = ambient.MEMSCOPE.active()
        if ms is not None:
            ms.attach(self)
            for cpu, cache in enumerate(self.caches):
                cache.cpu = cpu
            for part in (*self.caches, *self.directories, self.sci,
                         *self.mem.banks, *self.net.rings,
                         *self.net.crossbars):
                part.memscope = ms
        # Critical-path analyzer: adopt the ambient instance
        # (``use_critscope``) and open this machine's run recorder; the
        # runtime/pvm layers read ``machine.critscope`` and pay one
        # ``is None`` check per emission point when it is off.
        cs = ambient.CRITSCOPE.active()
        self.critscope = cs.new_run(self) if cs is not None else None
        # Host-time profiler: the simulator adopted the ambient scope at
        # construction; teach it this machine's clock so it can convert
        # simulated ns to cycles for the throughput report.
        if self.sim.hostscope is not None:
            self.sim.hostscope.adopt_config(self.config)
        # Fault injection: like the tracer, adopt the ambient plan
        # (``use_faults``) when no explicit one is given.  Without a plan
        # both attributes stay None and every operation pays exactly one
        # ``is None`` check — the zero-cost contract.
        self.faults = None
        self.watchdog = None
        plan = faults if faults is not None else ambient.FAULTS.active()
        if plan is not None:
            from ..faults.state import FaultState
            from ..faults.watchdog import Watchdog

            self.faults = FaultState(self, plan)
            self.net.faults = self.faults
            if plan.watchdog is not None:
                self.watchdog = Watchdog(
                    self.sim,
                    interval_ns=plan.watchdog.interval_us * 1000.0,
                    timeout_ns=plan.watchdog.timeout_us * 1000.0)
                self.sim.watchdog = self.watchdog
                self.watchdog.install()

    # ------------------------------------------------------------------
    # memory allocation
    # ------------------------------------------------------------------
    def alloc(self, size: int, mclass: MemClass = MemClass.NEAR_SHARED, *,
              home_hypernode: Optional[int] = None,
              home_fu: Optional[int] = None,
              block_bytes: Optional[int] = None,
              label: str = "") -> Region:
        """Allocate memory of a §3.2 class; see :meth:`AddressSpace.alloc`."""
        if mclass is MemClass.NEAR_SHARED and home_hypernode is None:
            home_hypernode = 0
        return self.space.alloc(size, mclass, home_hypernode=home_hypernode,
                                home_fu=home_fu, block_bytes=block_bytes,
                                label=label)

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def line_of(self, addr: int) -> int:
        return addr - (addr % self.config.line_bytes)

    def peek(self, addr: int):
        """Read a word's value without simulating an access (for tests)."""
        return self._values.get(addr - addr % _WORD)

    def poke(self, addr: int, value) -> None:
        """Set a word's value without simulating an access (initialisation)."""
        self._values[addr - addr % _WORD] = value

    def compute(self, cpu: int, cycles: float):
        """Event: the CPU computes for ``cycles`` clock cycles."""
        if self.faults is not None:
            blocked = self.faults.gate(cpu)
            if blocked is not None:
                return blocked  # a failed CPU never finishes computing
        return self.sim.timeout(self.config.cycles(cycles))

    def _gate(self, cpu: int, target_hn: Optional[int] = None):
        """Generator: halt forever if ``cpu`` (or the target memory's
        hypernode) has failed; yields nothing on the healthy path."""
        if self.faults is not None:
            blocked = self.faults.gate(cpu, target_hn)
            if blocked is not None:
                yield blocked

    def timestamp(self, cpu: int):
        """Process: take one timestamp; returns the (post-read) sim time.

        Costs ``timer_overhead_cycles``, mirroring the intrusion the
        paper's methodology corrects for.
        """
        def _go():
            yield self.sim.timeout(
                self.config.cycles(self.config.timer_overhead_cycles))
            # Counted so reports can correct for timer intrusion (§4):
            # total overhead = count("timer.read") * timer_overhead_ns.
            self.tracer.emit(self.sim.now, "timer.read", cpu)
            return self.sim.now
        return self.sim.process(_go(), region="memory")

    def _home(self, line: int, accessor_hn: int) -> HomeLocation:
        return self.space.home_of(line, accessor_hn)

    def _translate(self, cpu: int, addr: int):
        """Generator: TLB lookup, charging the software handler on a miss."""
        if not self.tlbs[cpu].access(addr):
            yield self.sim.timeout(
                self.config.cycles(self.config.tlb_miss_cycles))
            self.tracer.emit(self.sim.now, "tlb.miss")

    # ------------------------------------------------------------------
    # fetch paths (internal generators)
    # ------------------------------------------------------------------
    def _local_path(self, hn: int, home_fu: int, home_bank: int, lines: int = 1):
        """Crossbar + bank + fill within hypernode ``hn``."""
        cfg = self.config
        yield self.sim.timeout(cfg.cycles(cfg.issue_cycles))
        yield self.net.crossbar(hn).traverse(home_fu)
        yield self.mem.bank(HomeLocation(hn, home_fu, home_bank)).service(lines)
        yield self.sim.timeout(cfg.cycles(cfg.fill_cycles))

    def _remote_path(self, my_hn: int, home: HomeLocation, attach: bool):
        """Full SCI path to another hypernode's memory and back."""
        cfg = self.config
        yield self.sim.timeout(cfg.cycles(cfg.issue_cycles))
        # hop to the local FU that fronts this line's ring
        yield self.net.crossbar(my_hn).traverse(home.fu)
        yield self.sim.timeout(cfg.cycles(cfg.agent_cycles))
        yield self.net.transfer(home.ring, my_hn, home.hypernode)
        yield self.sim.timeout(cfg.cycles(cfg.agent_cycles))
        yield self.net.crossbar(home.hypernode).traverse(home.fu)
        yield self.mem.bank(home).service()
        if attach:
            yield self.sim.timeout(cfg.cycles(cfg.sci_update_cycles))
        yield self.net.transfer(home.ring, home.hypernode, my_hn)
        yield self.sim.timeout(cfg.cycles(cfg.fill_cycles))
        self.tracer.emit(self.sim.now, "ring.round_trip", home.ring)

    def _fetch_line(self, cpu: int, line: int, loc, home: HomeLocation):
        """Bring ``line`` into ``cpu``'s cache (shared); charges full cost."""
        cfg = self.config
        my_hn = loc.hypernode
        my_dir = self.directories[my_hn]
        ms = self.memscope
        t_fetch = self.sim.now if ms is not None else 0.0
        if home.hypernode != my_hn:
            yield from self._gate(cpu, home.hypernode)
        if home.hypernode == my_hn:
            yield self.sim.timeout(cfg.cycles(cfg.dir_lookup_cycles))
            ent = my_dir.entry(line)
            if ent.dirty and ent.sharers and cpu not in ent.sharers:
                # A local CPU owns it modified: one extra bank visit models
                # the writeback/downgrade before our copy is supplied.
                yield self.mem.bank(home).service()
                ent.dirty = False
            yield from self._local_path(my_hn, home.fu, home.bank)
            self.tracer.emit(self.sim.now, "load.miss.local")
            if ms is not None:
                ms.miss(cpu, line, "local", home, 0,
                        self.sim.now - t_fetch, self.sim.now)
        else:
            yield self.sim.timeout(cfg.cycles(cfg.gcb_lookup_cycles))
            if my_dir.gcb_holds(line):
                # Satisfied by this hypernode's global cache buffer, which
                # physically sits in the memory of the FU on the line's ring.
                yield from self._local_path(my_hn, home.fu, home.bank)
                self.tracer.emit(self.sim.now, "load.miss.gcb")
                if ms is not None:
                    ms.miss(cpu, line, "gcb", home, 0,
                            self.sim.now - t_fetch, self.sim.now)
            else:
                sci_list = self.sci.list_for(line, home.hypernode)
                yield from self._remote_path(my_hn, home,
                                             attach=my_hn not in sci_list)
                # Re-check after the ring round trip: a sibling CPU of this
                # hypernode may have attached while our fetch was in flight.
                if my_hn not in sci_list:
                    sci_list.attach(my_hn)
                my_dir.gcb_insert(line)
                self.tracer.emit(self.sim.now, "load.miss.remote")
                if ms is not None:
                    # outbound ring distance on the unidirectional SCI ring
                    hops = (home.hypernode - my_hn) % cfg.n_hypernodes
                    ms.miss(cpu, line, "remote", home, hops,
                            self.sim.now - t_fetch, self.sim.now)
        victim = self.caches[cpu].insert(line)
        if victim is not None:
            victim_entry = my_dir.peek(victim)
            if victim_entry.dirty and victim_entry.sharers == {cpu}:
                # sole modified owner evicted: write the line back
                victim_home = self._home(victim, my_hn)
                if victim_home.hypernode == my_hn:
                    yield self.mem.bank(victim_home).service()
                else:
                    # dirty remote line drains through the agent/ring
                    yield self.sim.timeout(
                        cfg.cycles(cfg.agent_cycles))
                    yield self.net.transfer(victim_home.ring,
                                            my_hn, victim_home.hypernode)
                self.tracer.emit(self.sim.now, "cache.writeback")
            my_dir.remove_sharer(victim, cpu)
        my_dir.add_sharer(line, cpu)

    # ------------------------------------------------------------------
    # loads and stores
    # ------------------------------------------------------------------
    def load(self, cpu: int, addr: int):
        """Process: coherent load; returns the word's value."""
        return self.sim.process(self._load(cpu, addr), region="memory")

    def _load(self, cpu: int, addr: int):
        cfg = self.config
        line = self.line_of(addr)
        loc = self.topology.locate(cpu)
        yield from self._gate(cpu)
        yield self.sim.timeout(cfg.clock_ns)  # the access itself (1 cycle)
        yield from self._translate(cpu, addr)
        if self.caches[cpu].access(line):
            self.tracer.emit(self.sim.now, "load.hit")
        else:
            home = self._home(line, loc.hypernode)
            yield from self._fetch_line(cpu, line, loc, home)
        return self._values.get(addr - addr % _WORD)

    def store(self, cpu: int, addr: int, value):
        """Process: coherent store; completes when all copies are invalid."""
        return self.sim.process(self._store(cpu, addr, value), region="memory")

    def _store(self, cpu: int, addr: int, value):
        cfg = self.config
        line = self.line_of(addr)
        loc = self.topology.locate(cpu)
        my_hn = loc.hypernode
        my_dir = self.directories[my_hn]
        home = self._home(line, my_hn)
        yield from self._gate(cpu)
        yield self.sim.timeout(cfg.clock_ns)
        yield from self._translate(cpu, addr)
        hit = self.caches[cpu].access(line)
        if self.memscope is not None:
            # writer/word observation for the sharing-churn detector
            self.memscope.store(cpu, line, (addr % cfg.line_bytes) // _WORD)
        ent = my_dir.entry(line)
        exclusive = (hit and ent.dirty and ent.sharers == {cpu}
                     and not self._shared_beyond(line, home, my_hn))
        if exclusive:
            self.tracer.emit(self.sim.now, "store.hit.exclusive")
            self._values[addr - addr % _WORD] = value
        else:
            if not hit:
                yield from self._fetch_line(cpu, line, loc, home)
            # Commit the value at ownership acquisition, *before* walking
            # the invalidation chain: a spinner woken mid-walk must re-read
            # the new value, or it would re-subscribe and sleep forever.
            self._values[addr - addr % _WORD] = value
            yield from self._invalidate_others(cpu, line, loc, home)
            my_dir.entry(line).dirty = True
        # Spinners not reached by an invalidation (same-CPU waiters, or
        # waiters whose copy was evicted earlier) still observe the new
        # value on their next poll; wake them now.
        self._wake_all_spinners(line)

    def _shared_beyond(self, line: int, home: HomeLocation, my_hn: int) -> bool:
        """Any copy outside ``my_hn``'s caches?"""
        if home.hypernode != my_hn and len(
                self.sci.list_for(line, home.hypernode)) > 1:
            return True
        if home.hypernode == my_hn:
            return len(self.sci.list_for(line, home.hypernode)) > 0
        # line homed remotely: home's own CPUs may cache it
        return bool(self.directories[home.hypernode].peek(line).sharers)

    def _invalidate_others(self, cpu: int, line: int, loc, home: HomeLocation):
        """Invalidate every other copy of ``line``, charging real traversals."""
        cfg = self.config
        my_hn = loc.hypernode
        my_dir = self.directories[my_hn]

        # 1. other CPUs in my own hypernode, one directory op each
        for other in my_dir.local_sharers(line, excluding=cpu):
            yield self.sim.timeout(cfg.cycles(cfg.dir_inval_cycles))
            self.caches[other].invalidate(line)
            my_dir.remove_sharer(line, other)
            self._wake_spinner(line, other)
            self.tracer.emit(self.sim.now, "store.inval.local")

        # 2. other hypernodes along the SCI list
        sci_list = self.sci.list_for(line, home.hypernode)
        targets = [hn for hn in sci_list.walk() if hn != my_hn]
        home_has_copies = (home.hypernode != my_hn and bool(
            self.directories[home.hypernode].peek(line).sharers))
        if home_has_copies and home.hypernode not in targets:
            targets.append(home.hypernode)
        if targets:
            cursor = my_hn
            if home.hypernode != my_hn:
                # reach the home directory first to start the purge
                yield self.sim.timeout(cfg.cycles(cfg.agent_cycles))
                yield self.net.transfer(home.ring, my_hn, home.hypernode)
                cursor = home.hypernode
            for hn in targets:
                yield self.net.transfer(home.ring, cursor, hn)
                yield self.sim.timeout(
                    cfg.cycles(cfg.agent_cycles + cfg.sci_update_cycles))
                cursor = hn
                node_dir = self.directories[hn]
                node_dir.gcb_drop(line)
                for other in node_dir.clear_line(line):
                    yield self.sim.timeout(cfg.cycles(cfg.dir_inval_cycles))
                    self.caches[other].invalidate(line)
                    self._wake_spinner(line, other)
                self.tracer.emit(self.sim.now, "store.inval.remote", hn)
            if cursor != my_hn:
                yield self.net.transfer(home.ring, cursor, my_hn)
            # rebuild the sharing list: only the writer remains
            for hn in list(sci_list.walk()):
                sci_list.detach(hn)
                if sci_mod.SCI_CHECK:
                    sci_list.check_invariants()
            if my_hn != home.hypernode and my_hn not in sci_list:
                sci_list.attach(my_hn)
            if sci_mod.SCI_CHECK:
                sci_list.check_invariants()

    # ------------------------------------------------------------------
    # uncached atomics (counting semaphores)
    # ------------------------------------------------------------------
    def fetch_add(self, cpu: int, addr: int, delta=1):
        """Process: uncached atomic fetch-and-add at the word's home bank."""
        return self.sim.process(self._fetch_add(cpu, addr, delta), region="memory")

    def _fetch_add(self, cpu: int, addr: int, delta):
        cfg = self.config
        loc = self.topology.locate(cpu)
        yield from self._gate(cpu)
        yield from self._translate(cpu, addr)
        line = self.line_of(addr)
        home = self._home(line, loc.hypernode)
        if home.hypernode != loc.hypernode:
            yield from self._gate(cpu, home.hypernode)
        if home.hypernode == loc.hypernode:
            overhead = max(0, cfg.uncached_local_cycles - cfg.bank_cycles)
            yield self.sim.timeout(cfg.cycles(overhead))
            yield self.mem.bank(home).service()
            self.tracer.emit(self.sim.now, "atomic.local")
        else:
            yield from self._remote_path(loc.hypernode, home, attach=False)
            self.tracer.emit(self.sim.now, "atomic.remote")
        word = addr - addr % _WORD
        old = self._values.get(word, 0)
        self._values[word] = old + delta
        return old

    # ------------------------------------------------------------------
    # bulk transfers
    # ------------------------------------------------------------------
    def read_block(self, cpu: int, addr: int, nbytes: int):
        """Process: pipelined sequential read of ``nbytes`` starting at addr."""
        return self.sim.process(self._block(cpu, addr, nbytes, "read"),
                                region="memory")

    def write_block(self, cpu: int, addr: int, nbytes: int):
        """Process: pipelined sequential write of ``nbytes``."""
        return self.sim.process(self._block(cpu, addr, nbytes, "write"),
                                region="memory")

    def _block(self, cpu: int, addr: int, nbytes: int, kind: str):
        if nbytes <= 0:
            raise ValueError("block size must be positive")
        cfg = self.config
        loc = self.topology.locate(cpu)
        yield from self._gate(cpu)
        first_line = self.line_of(addr)
        last_line = self.line_of(addr + nbytes - 1)
        nlines = (last_line - first_line) // cfg.line_bytes + 1
        home = self._home(first_line, loc.hypernode)
        remote = home.hypernode != loc.hypernode
        # leading line pays the full latency
        if kind == "read":
            yield from self._load(cpu, addr)
        else:
            yield from self._store(cpu, addr, None)
        # every page the block crosses is translated once
        first_page = addr // cfg.page_bytes
        last_page = (addr + nbytes - 1) // cfg.page_bytes
        for page in range(first_page + 1, last_page + 1):
            yield from self._translate(cpu, page * cfg.page_bytes)
        if nlines > 1:
            per_line = cfg.stream_line_cycles * (
                cfg.remote_stream_factor if remote else 1)
            stream_ns = cfg.cycles(per_line * (nlines - 1))
            # The bank streams in page mode: it is held for the pipelined
            # duration, not the random-access per-line latency.
            yield self.mem.bank(home).occupy(stream_ns, lines=nlines - 1)
        self.tracer.emit(self.sim.now, f"block.{kind}", nlines,
                         "remote" if remote else "local")

    # ------------------------------------------------------------------
    # spin waiting
    # ------------------------------------------------------------------
    def spin_until(self, cpu: int, addr: int,
                   predicate: Callable[[object], bool],
                   info: Optional[str] = None):
        """Process: spin on a cached word until ``predicate(value)`` holds.

        While the value is cached and unchanged the CPU spins at cache
        speed (costing nothing further in simulation); it is re-activated
        by the coherence invalidation the eventual writer sends, then pays
        ``spin_wakeup_cycles`` plus the re-read miss.

        ``info`` names what is being waited on (e.g. which barrier) for
        the watchdog's stall report.
        """
        return self.sim.process(self._spin_until(cpu, addr, predicate, info),
                                region="memory")

    def _spin_until(self, cpu, addr, predicate, info=None):
        cfg = self.config
        line = self.line_of(addr)
        while True:
            value = yield from self._load(cpu, addr)
            if predicate(value):
                return value
            waiters = self._spin_waiters.setdefault(line, {})
            ev = waiters.get(cpu)
            if ev is None or ev.triggered:
                ev = self.sim.event()
                waiters[cpu] = ev
            if self.watchdog is not None:
                token = self.watchdog.block(
                    f"cpu {cpu}", "spin", info or f"word {addr:#x}")
                try:
                    yield ev
                finally:
                    self.watchdog.clear(token)
            else:
                yield ev
            yield self.sim.timeout(cfg.cycles(cfg.spin_wakeup_cycles))

    def _wake_spinner(self, line: int, cpu: int) -> None:
        waiters = self._spin_waiters.get(line)
        if waiters:
            ev = waiters.pop(cpu, None)
            if ev is not None and not ev.triggered:
                ev.succeed()

    def _wake_all_spinners(self, line: int) -> None:
        waiters = self._spin_waiters.pop(line, None)
        if waiters:
            for ev in waiters.values():
                if not ev.triggered:
                    ev.succeed()

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, int]:
        """Aggregate hit/miss/eviction/invalidation counters over all CPUs."""
        totals = {"hits": 0, "misses": 0, "evictions": 0, "invalidations": 0}
        for cache in self.caches:
            totals["hits"] += cache.hits
            totals["misses"] += cache.misses
            totals["evictions"] += cache.evictions
            totals["invalidations"] += cache.invalidations
        return totals

    def check_coherence_invariants(self) -> None:
        """Assert cross-structure consistency (used by property tests).

        * every cached line is registered in its hypernode's directory;
        * every directory sharer actually caches the line;
        * SCI lists are well-formed and agree with GCB contents.
        """
        for cpu, cache in enumerate(self.caches):
            hn = self.topology.hypernode_of(cpu)
            directory = self.directories[hn]
            for line in cache._tags.values():
                if cpu not in directory.peek(line).sharers:
                    raise AssertionError(
                        f"cpu {cpu} caches {line:#x} but is not in the "
                        f"hypernode {hn} directory")
        for hn, directory in enumerate(self.directories):
            for line, ent in directory._entries.items():
                for cpu in ent.sharers:
                    if self.topology.hypernode_of(cpu) != hn:
                        raise AssertionError(
                            f"directory {hn} tracks foreign cpu {cpu}")
                    if not self.caches[cpu].contains(line):
                        raise AssertionError(
                            f"directory {hn} lists cpu {cpu} for {line:#x} "
                            "but the cache has no copy")
        for line, lst in self.sci._lists.items():
            lst.check_invariants()
            for hn in lst.walk():
                if not self.directories[hn].gcb_holds(line):
                    raise AssertionError(
                        f"hypernode {hn} is on the SCI list of {line:#x} "
                        "but its GCB has no copy")
