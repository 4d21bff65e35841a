"""SDK end-to-end tests: concurrency, bit-identity, warm cache,
cancellation, backpressure, and the asyncio client."""

import asyncio
import socket
import threading
import time

import pytest

from repro.core import spp1000
from repro.core.canon import canonical_json
from repro.exec import execute
from repro.exec.events import validate_event
from repro.sdk import (
    AsyncClient,
    Client,
    JobCancelledError,
)
from repro.server import ServerThread
from repro.server.protocol import PROTOCOL_VERSION, decode, encode

from .conftest import MANY_N


# -- the headline contract: N concurrent clients, bit-identical ----------


def _serial_reference(experiment, quick):
    """What the one-shot CLI would compute: execute() with no cache."""
    result, _report = execute(experiment, spp1000(), jobs=1, quick=quick)
    return canonical_json(result.data)


def test_eight_concurrent_clients_bit_identical(server):
    mix = [("_srv_fast", True), ("_srv_fast", False), ("fig3", True)]
    expected = {(exp, quick): _serial_reference(exp, quick)
                for exp, quick in set(mix)}
    outcomes = {}
    errors = []

    def one_client(idx):
        exp, quick = mix[idx % len(mix)]
        try:
            client = Client(server.host, server.port)
            job = client.submit(exp, quick=quick)
            seen = [record for record in job.events()]
            result = job.result()
            for record in seen:
                validate_event(record)  # shared schema on the wire
            outcomes[idx] = (exp, quick, canonical_json(result.data))
            client.close()
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append((idx, exc))

    threads = [threading.Thread(target=one_client, args=(i,))
               for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    assert not errors, errors
    assert len(outcomes) == 8
    for exp, quick, payload in outcomes.values():
        assert payload == expected[(exp, quick)]


# -- warm cache ----------------------------------------------------------


def test_warm_cache_resubmit_is_instant_and_identical(server):
    client = Client(server.host, server.port)
    cold = client.submit("_srv_slow").result()
    assert cold.execution["computed"] > 0
    warm = client.submit("_srv_slow").result()
    assert warm.execution["computed"] == 0        # nothing re-simulated
    assert warm.execution["cache_hits"] == cold.execution["computed"]
    assert canonical_json(warm.data) == canonical_json(cold.data)
    assert warm.wall_s * 10 <= cold.wall_s        # >= 10x faster
    client.close()


# -- streaming telemetry -------------------------------------------------


def test_event_stream_matches_progress_schema(server):
    client = Client(server.host, server.port)
    job = client.submit("_srv_fast", quick=True)
    kinds = []
    for record in job.events():
        kinds.append(validate_event(record))
        assert "t_s" in record
    result = job.result()
    assert kinds[0] == "start"
    assert kinds[-1] == "done"
    assert kinds.count("unit") + result.execution["cache_hits"] >= 6
    client.close()


def test_telemetry_blocks_ride_along(server):
    client = Client(server.host, server.port)
    result = client.submit("_srv_fast", quick=True,
                           telemetry=("hostscope",)).result()
    assert "hostscope" in result.blocks
    assert result.manifest is not None
    client.close()


# -- cancellation --------------------------------------------------------


def test_cancel_running_job_stops_at_unit_boundary(server):
    client = Client(server.host, server.port)
    job = client.submit("_srv_slow")
    events = job.events()
    next(events)              # start record: the sweep is running
    job.cancel()
    with pytest.raises(JobCancelledError, match="running"):
        job.result()
    # the connection and server stay healthy afterwards
    follow_up = client.submit("_srv_fast", quick=True).result()
    assert follow_up.data["vals"]
    client.close()


def test_cancel_queued_job_is_instant():
    srv = ServerThread(workers=0, no_cache=True).start()
    try:
        client = Client(srv.host, srv.port)
        job = client.submit("_srv_fast", quick=True)
        job.cancel()
        with pytest.raises(JobCancelledError, match="queue"):
            job.result()
        client.close()
    finally:
        srv.stop(drain=False)


# -- backpressure (integration) -----------------------------------------


def test_slow_consumer_is_coalesced_not_buffered():
    """A client that stops reading must not grow server memory: the
    outbound buffer stays bounded and progress records coalesce."""
    srv = ServerThread(workers=1, no_cache=True, send_buffer=8).start()
    try:
        sock = socket.create_connection((srv.host, srv.port),
                                        timeout=120)
        # a tiny receive window so the server's writer blocks early
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        fh = sock.makefile("rb")
        sock.sendall(encode({"kind": "hello",
                             "protocol": PROTOCOL_VERSION}))
        assert decode(fh.readline())["kind"] == "welcome"
        sock.sendall(encode({"kind": "submit",
                             "experiment": "_srv_many"}))
        # ... and now read NOTHING until the sweep has finished
        deadline = time.monotonic() + 180
        while time.monotonic() < deadline:
            stats = srv.call(_stats(srv))
            jobs = stats["jobs"]
            if jobs.get("done") or jobs.get("failed"):
                break
            time.sleep(0.05)
        stats = srv.call(_stats(srv))
        assert stats["jobs"].get("done") == 1, stats
        assert stats["max_buffered"] <= 8, stats
        assert stats["coalesced"] > 0, stats
        # the stalled client can still drain to the terminal result
        kinds = []
        while True:
            message = decode(fh.readline())
            kinds.append(message["kind"])
            if message["kind"] == "result":
                assert message["data"]["total"] == \
                    sum(range(MANY_N))
                break
        # far fewer than one event per unit made it through: the rest
        # were coalesced server-side (what reached the TCP buffers
        # before the writer blocked still arrives, hence "far fewer",
        # not "exactly the buffer bound")
        assert kinds.count("event") + stats["coalesced"] >= MANY_N
        assert kinds.count("event") < MANY_N // 2
        sock.close()
    finally:
        srv.stop(drain=False)


async def _stats_async(server):
    return server.stats()


def _stats(srv):
    return _stats_async(srv.server)


# -- asyncio client ------------------------------------------------------


def test_async_client_round_trip(server):
    async def go():
        client = await AsyncClient.connect(server.host, server.port)
        assert "fig3" in client.experiments
        job = await client.submit("_srv_fast", quick=True)
        kinds = []
        async for record in job.events():
            kinds.append(validate_event(record))
        result = await job.result()
        assert kinds[0] == "start" and kinds[-1] == "done"
        catalog = await client.list()
        assert catalog["_srv_fast"]["servable_sweep"] is True
        await client.ping()
        await client.close()
        return result

    result = asyncio.run(go())
    assert canonical_json(result.data) == _serial_reference(
        "_srv_fast", True)


def test_async_client_interleaves_two_jobs(server):
    async def go():
        client = await AsyncClient.connect(server.host, server.port)
        a = await client.submit("_srv_fast", quick=True)
        b = await client.submit("_srv_fast", quick=False)
        ra, rb = await asyncio.gather(a.result(), b.result())
        await client.close()
        return ra, rb

    ra, rb = asyncio.run(go())
    assert len(ra.data["vals"]) == 6
    assert len(rb.data["vals"]) == 12


def test_async_client_keeps_a_burst_queued_behind_accepted():
    """``accepted``, the job's events and its ``result`` arriving in one
    read all reach the job: the read loop dispatches buffered lines
    before ``submit`` resumes, so the job must be registered when its
    ``accepted`` reply is dispatched."""

    async def go():
        client = AsyncClient()
        client._reader = asyncio.StreamReader()

        class BurstWriter:
            """Answers a submit with the whole job in one buffer."""

            def write(self, data):
                tag = decode(data)["tag"]
                burst = [
                    {"kind": "accepted", "tag": tag, "job": "j1",
                     "experiment": "_srv_fast", "priority": 0,
                     "queued": 0},
                    {"kind": "event", "job": "j1",
                     "record": {"event": "start"}},
                    {"kind": "event", "job": "j1",
                     "record": {"event": "done"}},
                    {"kind": "result", "job": "j1",
                     "experiment": "_srv_fast", "data": {"vals": [1]},
                     "execution": {}, "wall_s": 0.0},
                ]
                client._reader.feed_data(
                    b"".join(encode(message) for message in burst))

            async def drain(self):
                pass

            def close(self):
                pass

            async def wait_closed(self):
                pass

        client._writer = BurstWriter()
        client._reader_task = asyncio.get_running_loop().create_task(
            client._read_loop())
        job = await client.submit("_srv_fast", quick=True)
        kinds = [record["event"] async for record in job.events()]
        result = await job.result()
        await client.close()
        return job, kinds, result

    job, kinds, result = asyncio.run(asyncio.wait_for(go(), timeout=10))
    assert job.id == "j1" and job.trace_id
    assert kinds == ["start", "done"]
    assert result.data == {"vals": [1]}
