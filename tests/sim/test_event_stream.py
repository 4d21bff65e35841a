"""Reproduction-tier pins on the event stream of the discrete-event
experiments.

Each experiment runs at ``--quick`` on the CLI's default machine.  The
exact number of dispatched events and started processes, and the
canonical-JSON SHA-256 of the result, are pinned.  An engine change that
reorders, adds or drops a single event fails here.  The digest is checked
both under a counters-only HostScope (the hooked dispatch path) and with
no hook attached (the inline path).
"""

import hashlib

import pytest

from repro.core import spp1000
from repro.core.canon import canonical_json
from repro.exec import execute
from repro.obs import HostScope, use_hostscope

#: experiment -> (events, processes, result digest)
PINS = {
    "fig2": (26742, 5916, "4f4c5c536c7f7db1c9234642dd685a886e8460059ed4792b"
                          "129d7ac4c0d99d23"),
    "fig3": (90418, 18832, "04b90559a645309d7ef315de4f1f07e7684e68572f5508"
                           "110f517b065ae6fe63"),
    "fig4": (26714, 4612, "995388f9aa963d8457875efd198fe3b93efd0a816f63dd81"
                          "8b50b44b74ca70ac"),
    "contention": (20950, 4476, "ab6d5b418fdb836712d2ca8c7fe9bf6a0279219b45"
                                "1e5df4aed62d651aa97011"),
    "degraded": (14978, 3170, "e80f17eab8bc42fcc9367e99d4c2e2352c9f0a4b8a20"
                              "d5faf65c58dcd80367c2"),
}


def _digest(data) -> str:
    return hashlib.sha256(canonical_json(data).encode("ascii")).hexdigest()


@pytest.mark.parametrize("experiment_id", sorted(PINS))
def test_event_stream_is_pinned(experiment_id):
    events, processes, digest = PINS[experiment_id]
    hs = HostScope(detail=False)
    with use_hostscope(hs):
        hooked, _ = execute(experiment_id, spp1000(2), jobs=1, quick=True)
    assert (hs.events, hs.processes) == (events, processes)
    assert hs.pushes == events          # every pushed event was dispatched
    assert _digest(hooked.data) == digest
    plain, _ = execute(experiment_id, spp1000(2), jobs=1, quick=True)
    assert _digest(plain.data) == digest
