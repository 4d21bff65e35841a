"""The benchmark's workloads: which experiments a pass runs, and how.

Every workload uses the CLI's default machine (``spp1000(n_hypernodes=2)``)
at full size and runs through :func:`repro.exec.execute`.  A *cold* pass
computes every unit into a fresh result cache; a *warm* pass re-runs the
same experiments from that cache, so every unit is a checksum-verified
lookup and the experiment only assembles its result.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple


class Workload(NamedTuple):
    name: str
    experiments: tuple
    jobs: int
    why: str


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "des", ("fig2", "fig3", "fig4", "contention", "degraded"), 1,
        "discrete-event simulator: fork-join and barrier spins beside bulk "
        "PVM copies over SCI, serial; apps and perfmodel do no work"),
    Workload(
        "model", ("fig6", "fig7", "fig8", "memclass", "scale128", "table1",
                  "table2"), 1,
        "analytic model experiments, serial: no simulator events, FEM "
        "mesh setup and perfmodel step evaluation carry the host time"),
    Workload(
        "fabric", ("fig4", "degraded", "fig6", "fig8", "table1", "table2"), 2,
        "execution fabric at jobs=2: cold sweep spawns, queues, returns and "
        "stores units; warm sweep looks them up and assembles"),
)}


def visit_order(workload: Workload, seed: int) -> List[str]:
    """The order in which a pass visits the workload's experiments."""
    order = list(workload.experiments)
    random.Random(seed).shuffle(order)
    return order
