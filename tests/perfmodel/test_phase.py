"""Tests for workload characterisation dataclasses."""

import pytest

from repro.core import spp1000
from repro.perfmodel import Access, LocalityMix, Msg, Phase, StepWork, TeamSpec
from repro.runtime import Placement
from repro.runtime.scheduler import assign, hypernodes_used


def test_locality_mix_must_sum_to_one():
    LocalityMix(0.5, 0.3, 0.2)  # fine
    with pytest.raises(ValueError):
        LocalityMix(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        LocalityMix(1.5, -0.5, 0.0)


def test_phase_rejects_negative_quantities():
    with pytest.raises(ValueError):
        Phase("x", flops=-1)
    with pytest.raises(ValueError):
        Phase("x", traffic_bytes=-1)


def test_msg_validation():
    Msg(64, remote=True)
    with pytest.raises(ValueError):
        Msg(0, remote=False)
    with pytest.raises(ValueError):
        Msg(64, remote=False, kind="broadcast")


def test_stepwork_totals():
    p = Phase("a", flops=100.0)
    step = StepWork([[p, p], [p]])
    assert step.n_threads == 2
    assert step.total_flops == 300.0


def test_teamspec_topology_queries():
    team = TeamSpec(spp1000(2), 4, Placement.UNIFORM)
    assert team.cpus == [0, 8, 1, 9]
    assert team.hypernodes == [0, 1]
    assert team.n_hypernodes_used == 2
    assert team.threads_on_hypernode(0) == 2
    assert team.hypernode_of_thread(1) == 1


def test_teamspec_high_locality_single_node():
    team = TeamSpec(spp1000(2), 8, Placement.HIGH_LOCALITY)
    assert team.n_hypernodes_used == 1
    assert team.threads_on_hypernode(0) == 8
    assert team.threads_on_hypernode(1) == 0


@pytest.mark.parametrize("placement", list(Placement))
@pytest.mark.parametrize("n_hypernodes", [1, 2, 16])
def test_teamspec_memoised_layout_matches_scheduler(n_hypernodes,
                                                    placement):
    """The memoised layout equals a fresh assign()/hypernodes_used()."""
    cfg = spp1000(n_hypernodes)
    per_hn = cfg.cpus_per_hypernode
    for n in sorted({1, 2, 3, 8, 9, cfg.n_cpus // 2, cfg.n_cpus}
                    & set(range(1, cfg.n_cpus + 1))):
        team = TeamSpec(cfg, n, placement)
        cpus = assign(cfg, n, placement)
        for _ in range(2):   # cached answers equal the first ones
            assert team.cpus == cpus and isinstance(team.cpus, list)
            assert team.hypernodes == hypernodes_used(cfg, cpus)
            assert team.n_hypernodes_used == len(team.hypernodes)
            for tid in range(n):
                assert team.hypernode_of_thread(tid) == cpus[tid] // per_hn
            for hn in range(cfg.n_hypernodes):
                assert team.threads_on_hypernode(hn) == sum(
                    1 for c in cpus if c // per_hn == hn)
    # hypernodes the team leaves idle hold no threads
    idle = TeamSpec(cfg, 1, placement)
    assert all(idle.threads_on_hypernode(hn) == 0
               for hn in range(1, cfg.n_hypernodes))


def test_teamspec_memoisation_keeps_value_semantics():
    a = TeamSpec(spp1000(2), 9, Placement.UNIFORM)
    b = TeamSpec(spp1000(2), 9, Placement.UNIFORM)
    assert a.cpus and a.hypernodes            # populate a's cache only
    assert a == b and hash(a) == hash(b)
    assert a != TeamSpec(spp1000(2), 9, Placement.HIGH_LOCALITY)
    with pytest.raises(AttributeError):
        a.n_threads = 3
