"""Tests of the benchmark itself (not part of the repository's tier-1 run).

    python3 -m pytest perfbench/test_perfbench.py

They use small experiment subsets so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")

#: per workload, a subset that still exercises every counted layer
SUBSETS = {"des": ["fig3", "fig4"], "model": ["fig7", "table2"],
           "fabric": ["fig4", "table1"]}

#: per-layer metrics that are exact counts and must repeat exactly
EXACT = ("sim.events", "sim.processes", "sim.mcycles", "machine.builds",
         "machine.mem_ops", "machine.cache_hits", "machine.cache_misses",
         "machine.invalidations", "runtime.runs", "runtime.threads",
         "runtime.barrier_waits", "pvm.sends", "pvm.recvs", "pvm.bytes",
         "perfmodel.runs", "perfmodel.step_evals", "apps.mesh_builds",
         "apps.problem_builds", "exec.units_computed_warm",
         "exec.cache_hit_rate")


def _round(workload, tmp_path, trace, tag=""):
    """One round of a workload subset: a cold sweep and one warm sweep."""
    work = tmp_path / f"{workload}-{trace}{tag}"
    work.mkdir()
    return run.run_round(WORKLOADS[workload], 7, str(work), REFERENCE,
                         warm_seconds=0.0, warm_sweeps=1,
                         trace_dir=str(work / "trace") if trace else None,
                         experiments=SUBSETS[workload])


def _layers(round_, workload):
    return run.per_layer(round_, run.end_to_end([round_], []),
                         WORKLOADS[workload].jobs)


@pytest.mark.parametrize("workload", sorted(SUBSETS))
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = _layers(_round(workload, tmp_path, True, "a"), workload)
    second = _layers(_round(workload, tmp_path, True, "b"), workload)
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name
    if workload == "des":
        assert first["sim.events"]["value"] > 0
        assert first["pvm.bytes"]["value"] > 0
    if workload == "model":
        assert first["apps.mesh_builds"]["value"] > 0
        assert first["perfmodel.step_evals"]["value"] > 0
        assert first["sim.events"]["value"] == 0
    assert first["exec.units_computed_warm"]["value"] == 0


@pytest.mark.parametrize("workload", ["des", "model"])
def test_digests_equal_with_and_without_wrappers(workload, tmp_path):
    plain = run.sweeps(_round(workload, tmp_path, False))
    traced = run.sweeps(_round(workload, tmp_path, True))
    assert len(plain) == len(traced) == 2
    for a, b in zip(plain, traced):
        for experiment_id in SUBSETS[workload]:
            row_a = a["experiments"][experiment_id]
            row_b = b["experiments"][experiment_id]
            assert row_a["error"] is None and row_b["error"] is None
            assert row_a["digest"] == row_b["digest"]


def test_benchmark_json_names_the_emitted_metrics(tmp_path):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    round_ = _round("fabric", tmp_path, True)
    e2e = run.end_to_end([round_], [])
    layers = run.per_layer(round_, e2e, 2)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    for m in spec["end_to_end"]:
        assert e2e[m["name"]]["unit"] == m["unit"]
    for m in spec["per_layer"]:
        assert layers[m["name"]]["unit"] == m["unit"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_self_times_partition_the_traced_pass(tmp_path):
    round_ = _round("des", tmp_path, True)
    self_total = sum(round_["trace"]["self_s"].values())
    swept = round_["cold"]["wall_s"] + round_["warm"][0]["wall_s"]
    assert self_total == pytest.approx(swept, rel=0.02)


def test_wrong_reference_digest_fails_the_run(tmp_path):
    with open(REFERENCE, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["experiments"]["fig4"]["digest"] = "0" * 64
    wrong = tmp_path / "reference.json"
    wrong.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "des",
         "--seed", "3", "--seconds", "1", "--trace", "0",
         "--reference", str(wrong)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    # fig4's 20 units fail in the cold and in every warm sweep
    assert result["failed"] > 0 and result["failed"] % 20 == 0
    assert 0 < result["failed"] / result["attempted"] < 1
    assert "FAILED cold fig4: output digest" in proc.stdout
    assert "FAILED warm fig4: output digest" in proc.stdout


def test_refuses_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "des", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "src/repro" in proc.stderr


def test_fabric_refused_when_jobs_exceed_usable_cores(monkeypatch, capsys):
    record = run.host_record()
    monkeypatch.setattr(run, "host_record",
                        lambda: dict(record, usable_cores=1))
    code = run.main(["--workload", "fabric", "--seed", "1", "--seconds", "1"])
    assert code == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert "jobs=2" in out.err
