"""Record the reference output digests every benchmark pass is checked
against.

For each experiment of any workload, runs it once serially through
:func:`repro.exec.execute` (no cache) and stores the SHA-256 of the
canonical JSON (:func:`repro.core.canon.canonical_json`) of its
``ExperimentResult.data`` and its planned unit count.  The simulator is
deterministic and the seed does not change results, so one recording
holds for every seed.  Re-record only when a change is meant to alter
results::

    python3 perfbench/record_reference.py [--out perfbench/reference.json]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

from repro.core import spp1000  # noqa: E402
from repro.exec import execute  # noqa: E402

from passrun import digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(HERE, "reference.json"))
    args = ap.parse_args()
    config = spp1000(n_hypernodes=2)
    ids = sorted({e for w in WORKLOADS.values() for e in w.experiments})
    experiments = {}
    for experiment_id in ids:
        result, report = execute(experiment_id, config, jobs=1, seed=0)
        experiments[experiment_id] = {"digest": digest(result.data),
                                      "units": report.units_planned}
        print(experiment_id, experiments[experiment_id], flush=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"config": "spp1000(n_hypernodes=2)",
                   "recorded_at": commit or None,
                   "experiments": experiments}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
