"""The asyncio job server: multiplexed sweeps with streaming telemetry.

One :class:`ReproServer` owns a TCP listener, a priority job queue, and
a small pool of job workers.  Each accepted connection is a
:class:`ClientConnection` that can submit any number of jobs; the
server runs them through the existing execution fabric
(:func:`repro.exec.execute` — planner, supervised pool,
content-addressed cache, journal-grade event records) and streams every
telemetry record back to the submitting client as it happens.  Because
jobs go through the same fabric as the one-shot CLI, results are
bit-identical to ``python -m repro <exp>`` and a warm cache answers a
repeat submission without re-simulating anything.

Scheduling and fairness:

* **Priority queue** — ``submit`` carries an integer ``priority``
  (higher runs earlier); ties run in submission order.
* **Rate limits** — per-connection token bucket; a rejected ``submit``
  gets an ``error`` with ``error="rate_limited"``, a ``retry_after_s``
  hint, and one actionable line.
* **Backpressure** — every connection's outbound buffer is bounded.  A
  slow consumer never grows server memory: once the buffer is full,
  per-unit progress records *coalesce* (the newest record for the job
  replaces the previous one, carrying a ``coalesced`` count) and
  terminal messages (results, errors) evict progress records instead of
  queueing behind them.  TCP backpressure (``drain()``) throttles the
  writer underneath.
* **Cancellation** — queued jobs cancel instantly; running fabric jobs
  cancel at the next unit boundary (the progress hook raises
  :class:`JobCancelled`, which the pool machinery never swallows).
* **Graceful drain** — ``shutdown(drain=True)`` stops accepting,
  finishes every queued and running job, delivers the results, sends
  ``bye`` and closes.
* **Observability** — every lifecycle transition feeds a
  :class:`~repro.obs.registry.MetricsRegistry` (read it via the
  ``stats`` protocol verb, the optional ``--metrics-port`` Prometheus
  endpoint, or ``python -m repro top``); each job carries an
  end-to-end :class:`~repro.obs.tracectx.TraceContext` whose ID rides
  ``accepted``/``event``/``result`` messages and every unit progress
  record; ``--log`` writes one structured JSON line per lifecycle
  event with ``trace_id``/``job_id`` on job lines.

Thread model: the asyncio loop owns all protocol I/O; jobs execute in a
small thread pool (the fabric's ``--jobs N`` worker *processes* hang
off those threads exactly as they do off the CLI).  The only
thread-to-loop traffic is ``call_soon_threadsafe`` with one telemetry
record at a time.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core import spp1000
from ..core.canon import canonical
from ..exec import (
    ResultCache,
    UnitExecutionError,
    code_fingerprint,
    default_cache_root,
    execute,
    has_units,
    unit_count,
)
from ..obs.registry import MetricsRegistry
from ..obs.scopes import SCOPES
from ..obs.tracectx import TraceContext, use_tracectx
from ..sim.trace import Tracer, use_tracer
from .log import NullLog
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    SERVER_NAME,
    ProtocolError,
    decode,
    encode,
    validate_message,
)

__all__ = ["ReproServer", "ServerThread", "JobCancelled", "JobSpec",
           "TokenBucket"]


class JobCancelled(BaseException):
    """Raised inside a job's execution thread to abort it mid-sweep.

    Deliberately a ``BaseException``: the worker pool retries on
    ``Exception`` and degrades to serial on pool-level ``Exception``s,
    and a user's cancel must never be "retried" — this propagates
    through both paths exactly like ``KeyboardInterrupt`` does.
    """


@dataclass
class JobSpec:
    """What one ``submit`` asked for."""

    experiment: str
    quick: bool = False
    jobs: int = 1
    seed: Optional[int] = None
    hypernodes: int = 2
    priority: int = 0
    telemetry: Tuple[str, ...] = ()
    tag: Optional[str] = None
    #: the submit message's ``trace`` field (``{"trace_id": ...}``),
    #: normally minted by the SDK; None mints a server-side ID
    trace: Optional[Dict] = None


#: profilers a job may request, plus ``trace`` (a Chrome trace block)
_TELEMETRY_KINDS = (*SCOPES, "trace")


@dataclass
class Job:
    """Server-side lifecycle of one submitted job."""

    id: str
    spec: JobSpec
    client: Optional["ClientConnection"]
    seq: int
    status: str = "queued"  # queued | running | done | failed | cancelled
    enqueued_t: float = field(default_factory=time.monotonic)
    enqueued_epoch: float = field(default_factory=time.time)

    def __post_init__(self):
        import threading

        #: set by cancel(); polled by the execution thread's progress hook
        self.cancel_event = threading.Event()
        #: the job's end-to-end trace context (client ID if supplied)
        self.ctx = TraceContext.from_wire(self.spec.trace, origin="server")
        self.ctx.job_id = self.id
        #: last seen sweep progress ``{"done": n, "total": m}`` (stats)
        self.progress: Optional[Dict] = None
        #: wall seconds from acceptance to terminal status
        self.wall_s: Optional[float] = None


class TokenBucket:
    """Per-connection submit rate limiter (capacity + sustained refill)."""

    def __init__(self, rate_per_s: float, burst: int):
        self.rate = max(rate_per_s, 1e-9)
        self.burst = max(burst, 1)
        self.tokens = float(self.burst)
        self._last = time.monotonic()

    def take(self) -> Tuple[bool, float]:
        """``(True, 0.0)`` and spend one token, or ``(False, retry_s)``."""
        now = time.monotonic()
        self.tokens = min(self.burst,
                          self.tokens + (now - self._last) * self.rate)
        self._last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self.tokens) / self.rate


class ClientConnection:
    """One connected client: reader loop state + bounded outbound buffer."""

    _ids = 0

    def __init__(self, server: "ReproServer", reader, writer):
        ClientConnection._ids += 1
        self.name = f"c{ClientConnection._ids}"
        self.server = server
        self.reader = reader
        self.writer = writer
        self.bucket = TokenBucket(server.rate_per_s, server.burst)
        self.closed = False
        self.coalesced = 0      #: progress records merged/evicted
        self.max_buffered = 0   #: high-water mark of the outbound buffer
        self._buffer: deque = deque()
        self._limit = server.send_buffer
        self._wakeup = asyncio.Event()
        self._writer_task: Optional[asyncio.Task] = None

    # -- outbound ------------------------------------------------------

    @staticmethod
    def _is_progress(message: Dict) -> bool:
        return (message.get("kind") == "event"
                and isinstance(message.get("record"), dict)
                and message["record"].get("event") == "unit")

    def _coalesce(self) -> None:
        """Count one merged/dropped progress record (here + registry)."""
        self.coalesced += 1
        # getattr: unit tests drive ClientConnection with a bare
        # SimpleNamespace in place of a full ReproServer
        metric = getattr(self.server, "m_coalesced", None)
        if metric is not None:
            metric.inc()

    def push(self, message: Dict, *, critical: bool = False) -> None:
        """Enqueue one outbound message under the bounded-buffer policy.

        Progress (``unit``) records coalesce once the buffer is full;
        ``critical`` messages (terminal per job, or protocol-level)
        evict a progress record to make room.  The buffer therefore
        never grows with sweep length — only with the handful of
        terminal messages concurrent jobs can produce.
        """
        if self.closed:
            return
        if len(self._buffer) >= self._limit:
            if not critical and self._is_progress(message):
                job_id = message.get("job")
                for i in range(len(self._buffer) - 1, -1, -1):
                    prior = self._buffer[i]
                    if (self._is_progress(prior)
                            and prior.get("job") == job_id):
                        merged = dict(message)
                        merged["coalesced"] = (prior.get("coalesced", 0)
                                               + 1)
                        self._buffer[i] = merged
                        self._coalesce()
                        self._wakeup.set()
                        return
                self._coalesce()  # nothing to merge into: drop
                return
            for i, prior in enumerate(self._buffer):
                if self._is_progress(prior):
                    del self._buffer[i]
                    self._coalesce()
                    break
        self._buffer.append(message)
        self.max_buffered = max(self.max_buffered, len(self._buffer))
        self._wakeup.set()

    def start_writer(self) -> None:
        self._writer_task = asyncio.get_running_loop().create_task(
            self._write_loop())

    async def _write_loop(self) -> None:
        try:
            while True:
                while not self._buffer:
                    self._wakeup.clear()
                    await self._wakeup.wait()
                message = self._buffer.popleft()
                self.writer.write(encode(message))
                await self.writer.drain()
        except (ConnectionError, asyncio.CancelledError, OSError):
            self.closed = True

    async def flush(self, timeout: float = 5.0) -> None:
        """Best-effort: wait until the outbound buffer has drained."""
        deadline = time.monotonic() + timeout
        while self._buffer and not self.closed:
            if time.monotonic() > deadline:
                break
            await asyncio.sleep(0.01)

    async def close(self) -> None:
        self.closed = True
        if self._writer_task is not None:
            self._writer_task.cancel()
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class ReproServer:
    """The simulation-as-a-service front door (see module docstring)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 workers: int = 2, cache_dir: Optional[str] = None,
                 no_cache: bool = False, rate_per_s: float = 10.0,
                 burst: int = 20, max_queue: int = 128,
                 send_buffer: int = 256,
                 metrics_port: Optional[int] = None,
                 ledger_path: Optional[str] = None, log=None):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.host = host
        self.port = port
        self.workers = workers
        self.cache_dir = cache_dir
        self.no_cache = no_cache
        self.rate_per_s = rate_per_s
        self.burst = burst
        self.max_queue = max_queue
        self.send_buffer = send_buffer
        self.metrics_port = metrics_port
        self.ledger_path = ledger_path
        self._ledger_counts = {"records": 0, "skipped": 0}
        self.log = log if log is not None else NullLog()
        self.draining = False
        self.jobs: Dict[str, Job] = {}
        self.connections: set = set()
        self._queue: Optional[asyncio.PriorityQueue] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._worker_tasks: List[asyncio.Task] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._seq = 0
        self._catalog: Optional[Dict[str, Dict]] = None
        self._started_t = time.monotonic()
        self._metrics_endpoint = None
        self._register_metrics()
        import threading

        #: serialises telemetry-observed jobs: the ambient scope
        #: contexts are process-global, so only one observed job runs
        #: at a time (plain jobs are unaffected)
        self._telemetry_lock = threading.Lock()

    def _register_metrics(self) -> None:
        """Create the registry and pre-register every server series, so
        a scrape of an idle server already shows the full schema."""
        m = self.metrics = MetricsRegistry()
        self.m_submitted = m.counter(
            "repro_jobs_submitted_total",
            "Jobs accepted onto the queue", ("experiment",))
        self.m_completed = m.counter(
            "repro_jobs_completed_total",
            "Jobs reaching a terminal status", ("experiment", "status"))
        self.m_rejected = m.counter(
            "repro_requests_rejected_total",
            "Requests refused before queueing (rate_limited, "
            "queue_full, draining, ...)", ("reason",))
        self.m_queue_depth = m.gauge(
            "repro_queue_depth", "Jobs waiting in the priority queue")
        self.m_running = m.gauge(
            "repro_jobs_running", "Jobs currently executing")
        self.m_connections = m.gauge(
            "repro_connections", "Open client connections")
        self.m_coalesced = m.counter(
            "repro_progress_coalesced_total",
            "Progress records merged or dropped by send-buffer "
            "backpressure")
        self.m_latency = m.histogram(
            "repro_job_latency_seconds",
            "Wall seconds from acceptance to terminal status",
            ("experiment",))
        # fabric counters, folded from each job's ExecutionReport
        self.m_cache_hits = m.counter(
            "repro_cache_hits_total", "Fabric result-cache hits")
        self.m_cache_misses = m.counter(
            "repro_cache_misses_total", "Fabric result-cache misses")
        self.m_units_computed = m.counter(
            "repro_units_computed_total", "Work units simulated")
        self.m_unit_retries = m.counter(
            "repro_unit_retries_total", "Unit attempts after the first")
        self.m_unit_timeouts = m.counter(
            "repro_unit_timeouts_total", "Unit attempts killed by timeout")
        self.m_workers_replaced = m.counter(
            "repro_workers_replaced_total",
            "Pool workers replaced (crash or hang)")
        self.m_quarantined = m.counter(
            "repro_units_quarantined_total",
            "Units quarantined after exhausting retries")
        self.m_serial_fallbacks = m.counter(
            "repro_serial_fallbacks_total",
            "Units degraded to in-process execution")
        # longitudinal ledger visibility (only moves with --ledger):
        # record count and skipped-line count of the attached ledger
        self.m_ledger_records = m.gauge(
            "repro_ledger_records",
            "Intact records in the attached performance ledger")
        self.m_ledger_skipped = m.gauge(
            "repro_ledger_skipped_lines",
            "Corrupt/torn lines skipped reading the attached ledger")

    def _fold_report(self, execution: Dict) -> None:
        """Add one finished job's ExecutionReport onto the lifetime
        counters (the per-run → service-lifetime bridge)."""
        self.m_cache_hits.inc(execution.get("cache_hits", 0) or 0)
        self.m_cache_misses.inc(execution.get("cache_misses", 0) or 0)
        self.m_units_computed.inc(execution.get("computed", 0) or 0)
        resilience = execution.get("resilience") or {}
        self.m_unit_retries.inc(resilience.get("retries", 0) or 0)
        self.m_unit_timeouts.inc(resilience.get("timeouts", 0) or 0)
        self.m_workers_replaced.inc(
            resilience.get("workers_replaced", 0) or 0)
        self.m_quarantined.inc(
            len(resilience.get("quarantined_units") or ()))
        self.m_serial_fallbacks.inc(
            resilience.get("serial_fallbacks", 0) or 0)

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind, start workers, return ``(host, port)`` actually bound."""
        from .. import experiments  # noqa: F401 -- populate registries

        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.PriorityQueue()
        self._executor = ThreadPoolExecutor(
            max_workers=max(self.workers, 1),
            thread_name_prefix="repro-job")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_LINE_BYTES)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self._started_t = time.monotonic()
        if self.metrics_port is not None:
            from .metricshttp import MetricsEndpoint

            self._metrics_endpoint = MetricsEndpoint(
                self.metrics, self.host, self.metrics_port,
                health=lambda: not self.draining)
            _, self.metrics_port = self._metrics_endpoint.start()
        if self.ledger_path:
            self._refresh_ledger_gauges()
        for _ in range(self.workers):
            self.add_worker()
        self.log.emit("listening", host=self.host, port=self.port,
                      workers=self.workers,
                      metrics_port=self.metrics_port)
        return self.host, self.port

    def _refresh_ledger_gauges(self) -> None:
        """Re-read the attached ledger; expose its record and skipped
        counts on ``/metrics`` (and the ``stats`` ledger block)."""
        from ..obs.ledger import Ledger

        records, skipped = Ledger(self.ledger_path).read()
        self._ledger_counts = {"records": len(records),
                               "skipped": skipped}
        self.m_ledger_records.set(len(records))
        self.m_ledger_skipped.set(skipped)

    def _append_ledger_record(self) -> None:
        """Fold this server lifetime (job-latency series per experiment,
        fabric counters) into one ledger record — called at drain, so a
        served session leaves the same longitudinal trace a bench run
        does.  Best-effort: a ledger failure never blocks shutdown."""
        from ..obs.ledger import Ledger, record_from_server_stats

        try:
            record = record_from_server_stats(self.stats())
            Ledger(self.ledger_path).append(record)
            self._refresh_ledger_gauges()
            self.log.emit("ledger_record", path=self.ledger_path,
                          sha256=record["sha256"][:12])
        except Exception as exc:  # noqa: BLE001 - shutdown must proceed
            self.log.emit("ledger_error", path=self.ledger_path,
                          error=str(exc))

    def add_worker(self) -> None:
        """Start one more job-worker task (tests use this to sequence)."""
        self._worker_tasks.append(
            asyncio.get_running_loop().create_task(self._worker()))

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop accepting; optionally finish all accepted jobs first."""
        self.draining = True
        self.log.emit("drain" if drain else "stop",
                      queued=self._queue.qsize() if self._queue else 0)
        if self._server is not None:
            self._server.close()
        if drain and self._queue is not None:
            await self._queue.join()
        for task in self._worker_tasks:
            task.cancel()
        for task in self._worker_tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        reason = "drain" if drain else "stop"
        for conn in list(self.connections):
            conn.push({"kind": "bye", "reason": reason}, critical=True)
            await conn.flush()
            await conn.close()
        if self._server is not None:
            await self._server.wait_closed()
        if self._executor is not None:
            self._executor.shutdown(wait=False)
        if self._metrics_endpoint is not None:
            self._metrics_endpoint.stop()
            self._metrics_endpoint = None
        if self.ledger_path:
            self._append_ledger_record()
        self.log.emit("stopped", jobs=self.stats()["jobs"])

    # -- the catalog ---------------------------------------------------

    def catalog(self) -> Dict[str, Dict]:
        """Servable-experiment catalog: title, unit count, servability."""
        if self._catalog is None:
            from ..experiments import list_experiments

            config = spp1000()
            self._catalog = {
                exp_id: {
                    "title": title,
                    "units": unit_count(exp_id, config),
                    "servable_sweep": has_units(exp_id),
                }
                for exp_id, title in list_experiments().items()}
        return self._catalog

    # -- connection handling -------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        conn = ClientConnection(self, reader, writer)
        try:
            ok = await self._handshake(conn)
            if not ok:
                self.log.emit("handshake_failed", connection=conn.name)
                await conn.close()
                return
            conn.start_writer()
            self.connections.add(conn)
            self.m_connections.set(len(self.connections))
            self.log.emit("connect", connection=conn.name)
            await self._read_loop(conn)
        finally:
            self.connections.discard(conn)
            self.m_connections.set(len(self.connections))
            self.log.emit("disconnect", connection=conn.name,
                          coalesced=conn.coalesced or None)
            for job in self.jobs.values():
                if job.client is conn:
                    job.client = None  # results of orphans are dropped
            await conn.close()

    async def _handshake(self, conn: ClientConnection) -> bool:
        """First line must be a protocol-compatible ``hello``."""
        try:
            line = await conn.reader.readline()
        except (ValueError, ConnectionError):
            return False
        if not line:
            return False
        try:
            message = decode(line)
            validate_message(message, side="client")
        except ProtocolError as exc:
            conn.writer.write(encode({"kind": "error",
                                      "error": "bad_message",
                                      "detail": str(exc)}))
            return False
        if message["kind"] != "hello":
            conn.writer.write(encode({
                "kind": "error", "error": "bad_handshake",
                "detail": "first message must be 'hello' with a "
                          f"'protocol' field (got {message['kind']!r})"}))
            return False
        if message["protocol"] != PROTOCOL_VERSION:
            conn.writer.write(encode({
                "kind": "error", "error": "protocol_mismatch",
                "detail": f"server speaks protocol {PROTOCOL_VERSION}, "
                          f"client asked for {message['protocol']!r}; "
                          "upgrade the older side"}))
            return False
        conn.writer.write(encode({
            "kind": "welcome", "protocol": PROTOCOL_VERSION,
            "server": SERVER_NAME, "experiments": self.catalog()}))
        try:
            await conn.writer.drain()
        except (ConnectionError, OSError):
            return False
        return True

    async def _read_loop(self, conn: ClientConnection) -> None:
        while True:
            try:
                line = await conn.reader.readline()
            except ValueError:
                conn.push({"kind": "error", "error": "bad_message",
                           "detail": f"line exceeds {MAX_LINE_BYTES} "
                                     "bytes; split the request"},
                          critical=True)
                break
            except (ConnectionError, OSError):
                break
            if not line:
                break
            try:
                message = decode(line)
                kind = validate_message(message, side="client")
            except ProtocolError as exc:
                conn.push({"kind": "error", "error": "bad_message",
                           "detail": str(exc)}, critical=True)
                continue
            if kind == "ping":
                conn.push({"kind": "pong"}, critical=True)
            elif kind == "stats":
                conn.push({"kind": "stats", "stats": self.stats()},
                          critical=True)
            elif kind == "list":
                conn.push({"kind": "experiments",
                           "experiments": self.catalog()}, critical=True)
            elif kind == "submit":
                self._handle_submit(conn, message)
            elif kind == "cancel":
                self._handle_cancel(conn, message)
            elif kind == "hello":
                conn.push({"kind": "error", "error": "bad_message",
                           "detail": "duplicate 'hello'; the handshake "
                                     "already happened"}, critical=True)

    # -- submit / cancel -----------------------------------------------

    def _reject(self, conn: ClientConnection, error: str, detail: str,
                tag=None, **extra) -> None:
        message = {"kind": "error", "error": error, "detail": detail}
        if tag is not None:
            message["tag"] = tag
        message.update(extra)
        self.m_rejected.labels(reason=error).inc()
        self.log.emit("submit_rejected", connection=conn.name,
                      reason=error, tag=tag)
        conn.push(message, critical=True)

    def _handle_submit(self, conn: ClientConnection, message: Dict) -> None:
        tag = message.get("tag")
        if self.draining:
            self._reject(conn, "draining",
                         "server is draining for shutdown and accepts "
                         "no new jobs; retry after it restarts", tag)
            return
        allowed, retry_after = conn.bucket.take()
        if not allowed:
            self._reject(
                conn, "rate_limited",
                f"rate limit exceeded ({self.rate_per_s:g} submits/s, "
                f"burst {self.burst}); retry in {retry_after:.2f}s or "
                "batch points into fewer sweeps", tag,
                retry_after_s=round(retry_after, 3))
            return
        queued = sum(1 for j in self.jobs.values()
                     if j.status == "queued")
        if queued >= self.max_queue:
            self._reject(
                conn, "queue_full",
                f"job queue is full ({self.max_queue} queued); retry "
                "after some jobs finish", tag)
            return
        exp_id = message.get("experiment")
        catalog = self.catalog()
        if exp_id not in catalog:
            servable = ", ".join(e for e, row in catalog.items()
                                 if row["servable_sweep"])
            self._reject(
                conn, "unknown_experiment",
                f"unknown experiment {exp_id!r}; servable sweep "
                f"experiments: {servable}", tag)
            return
        try:
            spec = self._parse_spec(exp_id, message, tag)
        except ValueError as exc:
            self._reject(conn, "bad_submit", str(exc), tag)
            return
        self._seq += 1
        job = Job(id=f"j{self._seq:06d}", spec=spec, client=conn,
                  seq=self._seq)
        self.jobs[job.id] = job
        self._queue.put_nowait((-spec.priority, job.seq, job))
        self.m_submitted.labels(experiment=exp_id).inc()
        self.m_queue_depth.set(self._queue.qsize())
        self.log.emit("job_submitted", connection=conn.name,
                      job_id=job.id, trace_id=job.ctx.trace_id,
                      experiment=exp_id, priority=spec.priority,
                      quick=spec.quick or None, jobs=spec.jobs)
        conn.push({"kind": "accepted", "job": job.id, "tag": tag,
                   "experiment": exp_id, "priority": spec.priority,
                   "queued": queued + 1, "trace": job.ctx.to_wire()},
                  critical=True)

    @staticmethod
    def _parse_spec(exp_id: str, message: Dict, tag) -> JobSpec:
        jobs = message.get("jobs", 1)
        if not isinstance(jobs, int) or jobs < 1:
            raise ValueError(f"'jobs' must be an integer >= 1 (got "
                             f"{jobs!r}); 1 runs the sweep in-process")
        priority = message.get("priority", 0)
        if not isinstance(priority, int):
            raise ValueError(f"'priority' must be an integer (got "
                             f"{priority!r}); higher runs earlier")
        telemetry = tuple(message.get("telemetry") or ())
        unknown = [t for t in telemetry if t not in _TELEMETRY_KINDS]
        if unknown:
            raise ValueError(
                f"unknown telemetry scope(s) {', '.join(map(repr, unknown))}; "
                f"choose from: {', '.join(_TELEMETRY_KINDS)}")
        hypernodes = message.get("hypernodes", 2)
        if not isinstance(hypernodes, int) or hypernodes < 1:
            raise ValueError(f"'hypernodes' must be an integer >= 1 "
                             f"(got {hypernodes!r})")
        seed = message.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise ValueError(f"'seed' must be an integer or null (got "
                             f"{seed!r})")
        trace = message.get("trace")
        if trace is not None and not isinstance(trace, dict):
            raise ValueError(f"'trace' must be an object like "
                             f"{{'trace_id': ...}} or null (got "
                             f"{trace!r})")
        return JobSpec(experiment=exp_id,
                       quick=bool(message.get("quick", False)),
                       jobs=jobs, seed=seed, hypernodes=hypernodes,
                       priority=priority, telemetry=telemetry, tag=tag,
                       trace=trace)

    def _handle_cancel(self, conn: ClientConnection, message: Dict) -> None:
        job_id = message.get("job")
        job = self.jobs.get(job_id)
        if job is None or (job.client is not None
                           and job.client is not conn):
            self._reject(conn, "unknown_job",
                         f"no job {job_id!r} on this connection; jobs "
                         "are cancellable only by their submitter",
                         job=job_id)
            return
        if job.status == "queued":
            job.status = "cancelled"
            job.wall_s = round(time.monotonic() - job.enqueued_t, 4)
            self.m_completed.labels(experiment=job.spec.experiment,
                                    status="cancelled").inc()
            self.log.emit("job_cancelled", job_id=job.id,
                          trace_id=job.ctx.trace_id,
                          experiment=job.spec.experiment, where="queue")
            conn.push({"kind": "cancelled", "job": job.id,
                       "where": "queue", "trace": job.ctx.to_wire()},
                      critical=True)
        elif job.status == "running":
            job.cancel_event.set()  # the progress hook aborts the sweep
        else:
            self._reject(conn, "not_cancellable",
                         f"job {job_id} already finished "
                         f"({job.status}); nothing to cancel",
                         job=job_id)

    # -- job execution -------------------------------------------------

    async def _worker(self) -> None:
        while True:
            _, _, job = await self._queue.get()
            self.m_queue_depth.set(self._queue.qsize())
            try:
                if job.status == "cancelled":
                    continue
                job.status = "running"
                job.ctx.add_span("queued", job.enqueued_epoch,
                                 time.time(), cat="server.queue",
                                 priority=job.spec.priority)
                self.m_running.inc()
                self.log.emit("job_started", job_id=job.id,
                              trace_id=job.ctx.trace_id,
                              experiment=job.spec.experiment,
                              queue_s=round(time.monotonic()
                                            - job.enqueued_t, 3))
                bridge = _ProgressBridge(self, job)
                try:
                    outcome = await self._loop.run_in_executor(
                        self._executor, self._run_job_sync, job, bridge)
                finally:
                    self.m_running.dec()
                self._deliver(job, outcome)
            finally:
                self._queue.task_done()

    def _deliver(self, job: Job, outcome: Tuple) -> None:
        status, payload = outcome
        job.status = {"ok": "done", "failed": "failed",
                      "cancelled": "cancelled"}[status]
        job.wall_s = round(time.monotonic() - job.enqueued_t, 4)
        exp_id = job.spec.experiment
        self.m_completed.labels(experiment=exp_id,
                                status=job.status).inc()
        self.m_latency.labels(experiment=exp_id).observe(job.wall_s)
        if status == "ok" and isinstance(payload.get("execution"), dict):
            self._fold_report(payload["execution"])
        self.log.emit({"done": "job_done", "failed": "job_failed",
                       "cancelled": "job_cancelled"}[job.status],
                      job_id=job.id, trace_id=job.ctx.trace_id,
                      experiment=exp_id, wall_s=job.wall_s,
                      error=payload[0] if status == "failed" else None)
        conn = job.client
        if conn is None or conn.closed:
            return  # submitter went away; the cache still kept the work
        trace = job.ctx.to_wire()
        if status == "ok":
            message = {"kind": "result", "job": job.id, "trace": trace,
                       "host_spans": job.ctx.spans_to_wire()}
            message.update(payload)
            conn.push(message, critical=True)
        elif status == "cancelled":
            conn.push({"kind": "cancelled", "job": job.id,
                       "where": "running", "trace": trace},
                      critical=True)
        else:
            error, detail = payload
            conn.push({"kind": "error", "error": error, "detail": detail,
                       "job": job.id, "trace": trace}, critical=True)

    def _make_cache(self) -> Optional[ResultCache]:
        if self.no_cache:
            return None
        return ResultCache(self.cache_dir or default_cache_root(),
                           code_fingerprint())

    def _run_job_sync(self, job: Job, bridge: "_ProgressBridge") -> Tuple:
        """Execute one job in a worker thread; never raises."""
        spec = job.spec
        t0 = time.perf_counter()
        t0_epoch = time.time()
        try:
            if job.cancel_event.is_set():
                return ("cancelled", None)
            config = spp1000(n_hypernodes=spec.hypernodes)
            if has_units(spec.experiment):
                payload = self._run_fabric_job(job, config, bridge)
            else:
                payload = self._run_inprocess_job(job, config)
            payload["experiment"] = spec.experiment
            payload["tag"] = spec.tag
            payload["wall_s"] = round(time.perf_counter() - t0, 4)
            return ("ok", payload)
        except JobCancelled:
            return ("cancelled", None)
        except UnitExecutionError as exc:
            return ("failed", ("units_failed", str(exc)))
        except Exception as exc:  # job failures must not kill the worker
            return ("failed", ("job_failed",
                               f"{type(exc).__name__}: {exc}"))
        finally:
            job.ctx.add_span("run", t0_epoch, time.time(),
                             cat="server.job", experiment=spec.experiment)

    def _run_fabric_job(self, job: Job, config, bridge) -> Dict:
        from contextlib import ExitStack

        spec = job.spec
        cache = self._make_cache()
        blocks: Dict[str, Dict] = {}
        observed = bool(spec.telemetry)
        with ExitStack() as stack:
            stack.enter_context(use_tracectx(job.ctx))
            scopes = {}
            if observed:
                stack.enter_context(self._telemetry_lock)
                scopes = self._enter_scopes(stack, spec.telemetry, config)
            result, report = execute(
                spec.experiment, config, jobs=spec.jobs,
                quick=spec.quick, cache=cache, seed=spec.seed,
                observed=observed, progress=bridge)
            for name, scope in scopes.items():
                block = self._scope_block(name, scope, config)
                if block is not None:
                    blocks[name] = block
        payload = {
            "data": canonical(result.data),
            "execution": report.to_dict(),
            # the Chrome-trace block is payload-only: manifest() takes
            # the named profiler scopes, not arbitrary documents
            "manifest": result.manifest(
                config=config, execution=report.to_dict(),
                **{k: v for k, v in blocks.items() if k != "trace"}),
        }
        if blocks:
            payload["blocks"] = blocks
        return payload

    def _run_inprocess_job(self, job: Job, config) -> Dict:
        """A non-sweep ("simulate") experiment: no planner, no cache."""
        from ..experiments import run_experiment

        spec = job.spec
        result = run_experiment(spec.experiment, config=config,
                                quick=spec.quick)
        return {
            "data": canonical(result.data),
            "execution": {"experiment_id": spec.experiment,
                          "in_process": True},
            "manifest": result.manifest(config=config),
        }

    @staticmethod
    def _enter_scopes(stack, telemetry, config) -> Dict[str, object]:
        """Install the requested profilers (and the ``trace`` tracer)."""
        scopes: Dict[str, object] = {}
        for name in _TELEMETRY_KINDS:
            if name not in telemetry:
                continue
            if name == "trace":
                scope = Tracer(enabled=True)
                stack.enter_context(use_tracer(scope))
            else:
                scope = SCOPES[name].create(config)
                SCOPES[name].enter(stack, scope)
            scopes[name] = scope
        return scopes

    @staticmethod
    def _scope_block(name: str, scope, config=None) -> Optional[Dict]:
        if name == "trace":
            from ..obs.export import chrome_trace

            return chrome_trace(scope, config) if scope.events \
                or scope.records else None
        return SCOPES[name].block(scope)

    # -- stats ---------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Live counters (tests, the drain log, the ``stats`` protocol
        verb, and ``repro top`` all read these)."""
        by_status: Dict[str, int] = {}
        for job in self.jobs.values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        recent = []
        for job in list(self.jobs.values())[-20:]:
            row = {"id": job.id, "experiment": job.spec.experiment,
                   "status": job.status, "priority": job.spec.priority,
                   "trace_id": job.ctx.trace_id}
            if job.progress:
                row["done"] = job.progress.get("done")
                row["total"] = job.progress.get("total")
            if job.wall_s is not None:
                row["wall_s"] = job.wall_s
            recent.append(row)
        return {
            "jobs": dict(by_status),
            "connections": len(self.connections),
            "coalesced": sum(c.coalesced for c in self.connections),
            "max_buffered": max(
                (c.max_buffered for c in self.connections), default=0),
            "draining": self.draining,
            "workers": {"total": self.workers,
                        "busy": by_status.get("running", 0)},
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "uptime_s": round(time.monotonic() - self._started_t, 3),
            "recent_jobs": recent,
            "metrics": self.metrics.snapshot(),
            "ledger": ({"path": self.ledger_path,
                        **self._ledger_counts}
                       if self.ledger_path else None),
        }


class _ProgressBridge:
    """ProgressStream-compatible shim carrying fabric telemetry records
    from the execution thread into the asyncio loop (and enforcing
    cancellation at every unit boundary)."""

    def __init__(self, server: ReproServer, job: Job):
        self._server = server
        self._job = job
        self._loop = server._loop
        self._t0 = time.monotonic()

    def emit(self, record: Dict) -> None:
        if self._job.cancel_event.is_set():
            raise JobCancelled(self._job.id)
        payload = {"t_s": round(time.monotonic() - self._t0, 3)}
        payload.update(record)
        self._loop.call_soon_threadsafe(self._dispatch, payload)

    def close(self) -> None:  # ProgressStream API parity
        pass

    def _dispatch(self, payload: Dict) -> None:
        if payload.get("event") == "unit":
            self._job.progress = {"done": payload.get("done"),
                                  "total": payload.get("total")}
        conn = self._job.client
        if conn is not None and not conn.closed:
            conn.push({"kind": "event", "job": self._job.id,
                       "record": payload})


class ServerThread:
    """A :class:`ReproServer` on a background thread with its own loop.

    For synchronous callers — tests, notebooks, the SDK's examples —
    that want a live server in-process::

        with ServerThread(workers=1) as srv:
            client = repro.sdk.Client(srv.host, srv.port)
            ...

    ``call(coro)`` runs a coroutine on the server's loop and returns
    its result (used by tests to drive ``shutdown`` / ``add_worker``).
    """

    def __init__(self, **server_kwargs):
        self._kwargs = server_kwargs
        self.server: Optional[ReproServer] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = None
        self._started = None

    def start(self) -> "ServerThread":
        import threading

        self._started = threading.Event()
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("server thread failed to start in 30s")
        return self

    def _main(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def boot():
            self.server = ReproServer(**self._kwargs)
            self.host, self.port = await self.server.start()
            self._started.set()

        self._loop.run_until_complete(boot())
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    def call(self, coro, timeout: float = 60.0):
        """Run ``coro`` on the server loop; return its result."""
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout=timeout)

    def stop(self, *, drain: bool = True) -> None:
        if self._loop is None:
            return
        try:
            self.call(self.server.shutdown(drain=drain))
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop(drain=False)
