"""Memory-system profiler (the paper's §6 miss-class attribution story).

The paper credits every optimisation win to CXpa/hpm telling the authors
*which* addresses were hot and *which* class of miss was paying for them
— local, remote, hypernode crossings.  :class:`MemScope` is that
instrument for the simulated machine: when installed (via
:func:`use_memscope`, the same ambient-context idiom as
:func:`repro.sim.trace.use_tracer`), every coherence-relevant component
reports into it:

* per-access **miss classification** — cache hit / local miss / GCB hit
  (remote line already in this hypernode's global cache buffer) /
  SCI-remote miss with the ring hop count and observed latency;
* **directory and SCI state transitions**, plus a per-line
  invalidation/sharing-churn detector that flags ping-pong and
  false-sharing lines (alternating writers invalidating each other);
* per-ring and per-crossbar-port **occupancy timelines** (bucketed busy
  time, rendered as ASCII sparklines);
* a per-page / per-hypernode **hotspot heatmap**.

Zero-cost contract (same as the tracer and the fault layer): with no
profiler installed every emission point costs exactly one ``is None``
check, and an installed profiler never advances simulated time —
experiment results and simulated clocks are bit-identical with the
profiler on or off (asserted by tests).

Sampling: aggregate counters, occupancy and the churn detector are
always exact; ``sample=N`` keeps only every Nth per-page heat sample,
bounding detail memory on long runs.

Model-level experiments (the applications of Figs 6-8, driven by
:mod:`repro.perfmodel` rather than the simulated machine) contribute a
model-attributed miss profile per phase; for an address-level breakdown
the CLI additionally runs :func:`placement_probe`, a deterministic
far-shared sweep on a real machine with the configured hypernode count.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core import ambient as _ambient

__all__ = ["MemScope", "active_memscope", "use_memscope",
           "placement_probe", "memscope_from_trace"]

SCHEMA_VERSION = 1

#: ASCII intensity ramp for occupancy sparklines (space = idle).
_RAMP = " .:-=+*#@"


def _sparkline(buckets: Dict[int, float], bucket_ns: float,
               width: int = 48) -> str:
    """Busy-fraction-per-bucket rendered as one ASCII character each."""
    if not buckets:
        return ""
    last = max(buckets)
    xs = [min(1.0, buckets.get(i, 0.0) / bucket_ns) for i in range(last + 1)]
    if len(xs) > width:
        # resample: mean occupancy of each merged group of buckets
        group = -(-len(xs) // width)
        xs = [sum(xs[i:i + group]) / len(xs[i:i + group])
              for i in range(0, len(xs), group)]
    top = len(_RAMP) - 1
    return "".join(_RAMP[min(top, int(round(v * top)))] for v in xs)


class MemScope:
    """Aggregating sink for memory-system events of one or more machines.

    Components never call into a ``None`` profiler: the
    :class:`~repro.machine.system.Machine` constructor wires the ambient
    instance (if any) into every cache, directory, bank, ring, crossbar
    and SCI list, and each emission point guards with one ``is None``
    check.
    """

    def __init__(self, config=None, *, sample: int = 1,
                 bucket_ns: float = 50_000.0, churn_threshold: int = 4):
        self.config = config
        self.sample = max(1, int(sample))
        self.bucket_ns = float(bucket_ns)
        self.churn_threshold = int(churn_threshold)
        # -- miss classification (always exact) --
        self.hits = 0
        self.miss_local = 0
        self.miss_gcb = 0
        self.miss_remote = 0
        self.hop_counts: Dict[int, int] = {}       # ring distance -> misses
        self.hop_latency_ns: Dict[int, float] = {}  # ring distance -> total
        self.invalidations = 0
        # -- directory / SCI transitions (always exact) --
        self.dir_events: Dict[str, int] = {}
        self.sci_events: Dict[str, int] = {}
        # -- churn detector state, per line (always exact) --
        self._lines: Dict[int, Dict] = {}
        # -- hotspot heatmap (page heat decimated by ``sample``) --
        self._page_heat: Dict[int, int] = {}
        self._page_home: Dict[int, int] = {}
        self._hn_heat: Dict[int, int] = {}          # home hypernode -> serves
        self._decim = 0
        # -- occupancy timelines --
        self._rings: Dict[int, Dict] = {}
        self._xbars: Dict[tuple, Dict] = {}
        self._banks: Dict[tuple, Dict] = {}
        self._t_end = 0.0
        # -- model-attributed miss profile (perfmodel experiments) --
        self._model: Dict[str, Dict] = {}
        self.probe_used = False
        self.machines_attached = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, machine) -> None:
        """Adopt ``machine``'s config (if none yet) and count the hookup."""
        if self.config is None:
            self.config = machine.config
        self.machines_attached += 1

    @property
    def machine_accesses(self) -> int:
        """Total machine-observed accesses (hits + all miss classes)."""
        return (self.hits + self.miss_local + self.miss_gcb
                + self.miss_remote)

    # ------------------------------------------------------------------
    # emission points (called by the machine layers)
    # ------------------------------------------------------------------
    def _page_of(self, line: int) -> int:
        page_bytes = self.config.page_bytes if self.config is not None \
            else 4096
        return line // page_bytes

    def _heat(self, line: int, home_hn: Optional[int]) -> None:
        self._decim += 1
        if self.sample > 1 and self._decim % self.sample:
            return
        page = self._page_of(line)
        self._page_heat[page] = self._page_heat.get(page, 0) + 1
        if home_hn is not None:
            self._page_home[page] = home_hn

    def cache_hit(self, cpu: int, line: int) -> None:
        self.hits += 1
        self._heat(line, None)

    def miss(self, cpu: int, line: int, klass: str, home, hops: int,
             latency_ns: float, now: float) -> None:
        """One classified cache miss, after its fetch path completed.

        ``klass``: ``"local"`` (homed in the accessor's hypernode),
        ``"gcb"`` (remote line served from the local global cache
        buffer), or ``"remote"`` (full SCI round trip; ``hops`` is the
        outbound ring distance ``(home - mine) mod n_hypernodes``).
        ``latency_ns`` spans the fetch path only — cache-tag check and
        TLB handling are excluded, mirroring hpm's miss counters.
        """
        if klass == "local":
            self.miss_local += 1
        elif klass == "gcb":
            self.miss_gcb += 1
        else:
            self.miss_remote += 1
            self.hop_counts[hops] = self.hop_counts.get(hops, 0) + 1
            self.hop_latency_ns[hops] = \
                self.hop_latency_ns.get(hops, 0.0) + latency_ns
        self._hn_heat[home.hypernode] = \
            self._hn_heat.get(home.hypernode, 0) + 1
        self._heat(line, home.hypernode)
        if now > self._t_end:
            self._t_end = now

    def store(self, cpu: int, line: int, word: int) -> None:
        """One store's writer/word observation (feeds the churn detector)."""
        rec = self._lines.get(line)
        if rec is None:
            rec = self._lines[line] = {
                "writers": set(), "words": set(), "alternations": 0,
                "last_writer": None, "invalidations": 0,
            }
        rec["writers"].add(cpu)
        rec["words"].add(word)
        if rec["last_writer"] is not None and rec["last_writer"] != cpu:
            rec["alternations"] += 1
        rec["last_writer"] = cpu

    def cache_invalidated(self, cpu: int, line: int) -> None:
        self.invalidations += 1
        rec = self._lines.get(line)
        if rec is not None:
            rec["invalidations"] += 1

    def dir_event(self, hypernode: int, kind: str) -> None:
        self.dir_events[kind] = self.dir_events.get(kind, 0) + 1

    def sci_event(self, kind: str) -> None:
        self.sci_events[kind] = self.sci_events.get(kind, 0) + 1

    def _occupancy(self, table: Dict, key, start: float, dur: float) -> None:
        st = table.get(key)
        if st is None:
            st = table[key] = {"events": 0, "busy_ns": 0.0, "buckets": {}}
        st["events"] += 1
        st["busy_ns"] += dur
        buckets = st["buckets"]
        b0 = int(start // self.bucket_ns)
        b1 = int((start + dur) // self.bucket_ns)
        if b0 == b1:
            buckets[b0] = buckets.get(b0, 0.0) + dur
        else:
            for b in range(b0, b1 + 1):
                lo = max(start, b * self.bucket_ns)
                hi = min(start + dur, (b + 1) * self.bucket_ns)
                if hi > lo:
                    buckets[b] = buckets.get(b, 0.0) + (hi - lo)
        if start + dur > self._t_end:
            self._t_end = start + dur

    def ring_busy(self, ring_id: int, start: float, dur: float,
                  hops: int) -> None:
        self._occupancy(self._rings, ring_id, start, dur)

    def crossbar_busy(self, hypernode: int, port, start: float,
                      dur: float) -> None:
        self._occupancy(self._xbars, (hypernode, port), start, dur)

    def bank_busy(self, home, start: float, dur: float, lines: int) -> None:
        key = (home.hypernode, home.fu, home.bank)
        st = self._banks.get(key)
        if st is None:
            st = self._banks[key] = {"busy_ns": 0.0, "accesses": 0}
        st["busy_ns"] += dur
        st["accesses"] += lines
        if start + dur > self._t_end:
            self._t_end = start + dur

    def model_phase(self, name: str, misses: float, local: float,
                    remote: float) -> None:
        """One model-attributed phase (perfmodel, not machine-observed)."""
        rec = self._model.get(name)
        if rec is None:
            rec = self._model[name] = {"misses": 0.0, "local_misses": 0.0,
                                       "remote_misses": 0.0, "phases": 0}
        rec["misses"] += misses
        rec["local_misses"] += local
        rec["remote_misses"] += remote
        rec["phases"] += 1

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def flagged_lines(self, threshold: Optional[int] = None) -> List[Dict]:
        """Lines the churn detector flags, most-churned first.

        A line is flagged when at least two distinct CPUs wrote it, the
        writers alternated at least ``threshold`` times, and coherence
        invalidations were observed on it.  All writers hammering the
        *same* word is ``ping-pong`` (true sharing, e.g. a contended
        flag); distinct words is ``false-sharing`` (disjoint data that
        merely cohabits a 32-byte line).
        """
        th = self.churn_threshold if threshold is None else threshold
        out = []
        for line, rec in sorted(self._lines.items()):
            if (rec["alternations"] >= th and len(rec["writers"]) >= 2
                    and rec["invalidations"] > 0):
                out.append({
                    "line": line,
                    "kind": ("false-sharing" if len(rec["words"]) > 1
                             else "ping-pong"),
                    "writers": sorted(rec["writers"]),
                    "distinct_words": len(rec["words"]),
                    "alternations": rec["alternations"],
                    "invalidations": rec["invalidations"],
                })
        out.sort(key=lambda r: -r["alternations"])
        return out

    def _breakdown(self) -> Dict:
        misses = self.miss_local + self.miss_gcb + self.miss_remote
        total = self.hits + misses
        return {
            "total_accesses": total,
            "hits": self.hits,
            "miss_local": self.miss_local,
            "miss_gcb": self.miss_gcb,
            "miss_remote": self.miss_remote,
            "hit_rate": self.hits / total if total else 0.0,
            # fraction of *misses* that crossed hypernodes
            "remote_fraction": self.miss_remote / misses if misses else 0.0,
        }

    def to_dict(self, top: int = 10) -> Dict:
        """The ``memscope`` manifest block (and ``--json`` payload)."""
        span = self._t_end
        source = ("probe" if self.probe_used
                  else "machine" if self.machine_accesses
                  else "model" if self._model
                  else "empty")
        doc: Dict = {
            "schema_version": SCHEMA_VERSION,
            "source": source,
            "sample": self.sample,
            "n_hypernodes": (self.config.n_hypernodes
                             if self.config is not None else None),
            "breakdown": self._breakdown(),
            "hops": {
                str(d): {
                    "count": self.hop_counts[d],
                    "mean_latency_ns":
                        self.hop_latency_ns[d] / self.hop_counts[d],
                } for d in sorted(self.hop_counts)
            },
            "invalidations": self.invalidations,
            "directory": dict(sorted(self.dir_events.items())),
            "sci": dict(sorted(self.sci_events.items())),
            "churn": {
                "threshold": self.churn_threshold,
                "flagged": self.flagged_lines()[:top],
            },
            "rings": {
                str(r): {
                    "transfers": st["events"],
                    "busy_ns": st["busy_ns"],
                    "utilization": st["busy_ns"] / span if span else 0.0,
                } for r, st in sorted(self._rings.items())
            },
            "crossbar_ports": [
                {"hypernode": hn, "port": str(port),
                 "traversals": st["events"], "busy_ns": st["busy_ns"]}
                for (hn, port), st in sorted(
                    self._xbars.items(), key=lambda kv: -kv[1]["busy_ns"]
                )[:top]
            ],
            "banks": [
                {"hypernode": hn, "fu": fu, "bank": bank,
                 "accesses": st["accesses"], "busy_ns": st["busy_ns"]}
                for (hn, fu, bank), st in sorted(
                    self._banks.items(), key=lambda kv: -kv[1]["busy_ns"]
                )[:top]
            ],
            "hot_pages": [
                {"page": page, "accesses": count,
                 "home_hypernode": self._page_home.get(page)}
                for page, count in sorted(
                    self._page_heat.items(), key=lambda kv: (-kv[1], kv[0])
                )[:top]
            ],
            "hypernode_heat": {
                str(hn): count for hn, count in sorted(self._hn_heat.items())
            },
        }
        if self._model:
            local = sum(r["local_misses"] for r in self._model.values())
            remote = sum(r["remote_misses"] for r in self._model.values())
            doc["model"] = {
                "phases": {name: dict(rec) for name, rec in
                           sorted(self._model.items())},
                "local_misses": local,
                "remote_misses": remote,
                "remote_fraction":
                    remote / (local + remote) if local + remote else 0.0,
            }
        return doc

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render(self, title: str = "memscope", top: int = 10) -> str:
        from ..core.tables import Table

        doc = self.to_dict(top=top)
        parts = [f"== {title} (source: {doc['source']}) =="]

        b = doc["breakdown"]
        classes = Table("miss-class breakdown",
                        ["class", "count", "share"])
        total = b["total_accesses"] or 1
        for label, key in (("cache hit", "hits"),
                           ("local miss", "miss_local"),
                           ("GCB hit (remote line)", "miss_gcb"),
                           ("SCI remote miss", "miss_remote")):
            classes.add_row(label, b[key], f"{b[key] / total:.1%}")
        classes.add_row("total", b["total_accesses"],
                        f"remote frac {b['remote_fraction']:.1%}")
        parts.append(classes.render())

        if doc["hops"]:
            hops = Table("SCI hop accounting",
                         ["ring distance", "misses", "mean latency us"])
            for d, row in doc["hops"].items():
                hops.add_row(d, row["count"],
                             f"{row['mean_latency_ns'] / 1e3:.2f}")
            parts.append(hops.render())

        if doc["rings"]:
            rings = Table("ring occupancy",
                          ["ring", "transfers", "busy us", "util",
                           "timeline"])
            for r in sorted(self._rings):
                st = self._rings[r]
                rings.add_row(
                    r, st["events"], f"{st['busy_ns'] / 1e3:.1f}",
                    f"{doc['rings'][str(r)]['utilization']:.1%}",
                    _sparkline(st["buckets"], self.bucket_ns))
            parts.append(rings.render())

        if doc["hot_pages"]:
            pages = Table(f"top-{top} hot pages",
                          ["page", "home hn", "accesses"])
            for row in doc["hot_pages"]:
                home = row["home_hypernode"]
                pages.add_row(f"{row['page']:#x}",
                              "?" if home is None else home,
                              row["accesses"])
            parts.append(pages.render())

        flagged = doc["churn"]["flagged"]
        if flagged:
            churn = Table("sharing-churn detector",
                          ["line", "kind", "writers", "alternations",
                           "invalidations"])
            for row in flagged:
                churn.add_row(f"{row['line']:#x}", row["kind"],
                              ",".join(map(str, row["writers"])),
                              row["alternations"], row["invalidations"])
            parts.append(churn.render())

        if "model" in doc:
            model = Table("model-attributed misses (perfmodel phases)",
                          ["phase", "misses", "local", "remote"])
            for name, rec in doc["model"]["phases"].items():
                model.add_row(name, f"{rec['misses']:.0f}",
                              f"{rec['local_misses']:.0f}",
                              f"{rec['remote_misses']:.0f}")
            model.add_row("TOTAL remote frac",
                          f"{doc['model']['remote_fraction']:.1%}", "", "")
            parts.append(model.render())

        return "\n\n".join(parts)


# Ambient installation (memscope stack of repro.core.ambient):
# a Machine built inside the block adopts the installed profiler.
active_memscope = _ambient.MEMSCOPE.active
use_memscope = _ambient.MEMSCOPE.use


# ---------------------------------------------------------------------------
# the placement probe
# ---------------------------------------------------------------------------

def placement_probe(config, memscope: Optional[MemScope] = None,
                    pages_per_hypernode: int = 4) -> MemScope:
    """Deterministic far-shared sweep classifying misses on a real machine.

    Model-level experiments (Figs 6-8) never drive the simulated
    machine, so they produce no address-level miss stream.  This probe
    supplies one: a FAR_SHARED region spans
    ``n_hypernodes * pages_per_hypernode`` pages whose homes round-robin
    across hypernodes, and three passes from hypernode 0 exercise every
    miss class — first touch (local + remote misses at every ring
    distance), a sibling CPU's touch (local misses + GCB hits), and a
    re-touch (pure cache hits).  The remote fraction of the resulting
    breakdown grows with the hypernode count, which is exactly the
    locality cliff the paper's Fig 6-8 discussions attribute to
    far-shared data.
    """
    from ..machine import MemClass
    from ..machine.system import Machine

    ms = memscope if memscope is not None else MemScope(config)
    with use_memscope(ms):
        machine = Machine(config)
    npages = config.n_hypernodes * pages_per_hypernode
    region = machine.alloc(npages * config.page_bytes, MemClass.FAR_SHARED,
                           label="memscope probe")
    sibling = 1 if config.n_cpus > 1 else 0

    def prog():
        for cpu in (0, sibling, 0):
            for p in range(npages):
                yield machine.load(cpu, region.addr(p * config.page_bytes))

    machine.sim.run(until=machine.sim.process(prog()))
    ms.probe_used = True
    return ms


# ---------------------------------------------------------------------------
# trace-file summarisation (``python -m repro memscope --trace t.json``)
# ---------------------------------------------------------------------------

_TRACE_CLASSES = {"load.hit": "hits", "load.miss.local": "miss_local",
                  "load.miss.gcb": "miss_gcb",
                  "load.miss.remote": "miss_remote"}


def memscope_from_trace(events: List[Dict]) -> Dict:
    """A miss-class summary from a saved trace's machine-event instants.

    Captured traces carry the legacy coherence records as thread-scoped
    instants with ``cat == "machine"``; this rebuilds the breakdown
    table from them (occupancy and per-page detail are not recoverable
    from a trace — run ``memscope <experiment>`` live for those).
    """
    counts = {"hits": 0, "miss_local": 0, "miss_gcb": 0, "miss_remote": 0}
    invalidations = {"local": 0, "remote": 0}
    ring_round_trips: Dict[str, int] = {}
    for ev in events:
        if ev.get("cat") != "machine":
            continue
        name = ev.get("name", "")
        if name in _TRACE_CLASSES:
            counts[_TRACE_CLASSES[name]] += 1
        elif name == "store.inval.local":
            invalidations["local"] += 1
        elif name == "store.inval.remote":
            invalidations["remote"] += 1
        elif name == "ring.round_trip":
            payload = ev.get("args", {}).get("payload", [None])
            ring = str(payload[0]) if payload else "?"
            ring_round_trips[ring] = ring_round_trips.get(ring, 0) + 1
    misses = (counts["miss_local"] + counts["miss_gcb"]
              + counts["miss_remote"])
    total = counts["hits"] + misses
    return {
        "schema_version": SCHEMA_VERSION,
        "source": "trace",
        "breakdown": {
            "total_accesses": total,
            **counts,
            "hit_rate": counts["hits"] / total if total else 0.0,
            "remote_fraction":
                counts["miss_remote"] / misses if misses else 0.0,
        },
        "invalidations": invalidations,
        "ring_round_trips": ring_round_trips,
    }


def render_trace_summary(doc: Dict, title: str = "memscope") -> str:
    """Human rendering of :func:`memscope_from_trace` output."""
    from ..core.tables import Table

    b = doc["breakdown"]
    table = Table(f"{title}: miss-class breakdown (from trace)",
                  ["class", "count"])
    for label, key in (("cache hit", "hits"), ("local miss", "miss_local"),
                       ("GCB hit (remote line)", "miss_gcb"),
                       ("SCI remote miss", "miss_remote")):
        table.add_row(label, b[key])
    table.add_row("remote fraction", f"{b['remote_fraction']:.1%}")
    parts = [table.render()]
    if doc["ring_round_trips"]:
        rings = Table("ring round trips", ["ring", "count"])
        for ring, count in sorted(doc["ring_round_trips"].items()):
            rings.add_row(ring, count)
        parts.append(rings.render())
    return "\n\n".join(parts)
