"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import (
    DeadlockError,
    Event,
    EventAlreadyTriggered,
    SimulationError,
    Simulator,
)


def test_time_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(42.0)
    sim.run()
    assert sim.now == 42.0


def test_timeout_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_run_until_time_stops_exactly():
    sim = Simulator()
    fired = []
    sim.schedule_callback(10.0, lambda: fired.append(10))
    sim.schedule_callback(30.0, lambda: fired.append(30))
    sim.run(until=20.0)
    assert fired == [10]
    assert sim.now == 20.0
    sim.run()
    assert fired == [10, 30]


def test_run_until_time_in_past_raises():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_events_at_same_time_fire_fifo():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.schedule_callback(7.0, lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter(sim, ev):
        value = yield ev
        got.append(value)

    sim.process(waiter(sim, ev))
    sim.schedule_callback(3.0, lambda: ev.succeed("payload"))
    sim.run()
    assert got == ["payload"]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        ev.succeed(2)
    with pytest.raises(EventAlreadyTriggered):
        ev.fail(RuntimeError("x"))


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_unhandled_failed_event_raises_from_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_defused_failed_event_is_silent():
    sim = Simulator()
    ev = sim.event()
    ev.defused = True
    ev.fail(RuntimeError("boom"))
    sim.run()  # no raise


def test_run_until_event_returns_value():
    sim = Simulator()

    def producer(sim):
        yield sim.timeout(9.0)
        return "done"

    proc = sim.process(producer(sim))
    assert sim.run(until=proc) == "done"
    assert sim.now == 9.0


def test_run_until_untriggerable_event_deadlocks():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(DeadlockError):
        sim.run(until=ev)


def test_all_of_waits_for_every_event():
    sim = Simulator()
    t1 = sim.timeout(5.0, value="a")
    t2 = sim.timeout(15.0, value="b")
    cond = sim.all_of([t1, t2])
    result = sim.run(until=cond)
    assert sim.now == 15.0
    assert set(result.values()) == {"a", "b"}


def test_any_of_fires_on_first_event():
    sim = Simulator()
    t1 = sim.timeout(5.0, value="fast")
    sim.timeout(500.0, value="slow")
    cond = sim.any_of([t1, sim.timeout(500.0)])
    result = sim.run(until=cond)
    assert sim.now == 5.0
    assert "fast" in result.values()


def test_all_of_empty_triggers_immediately():
    sim = Simulator()
    cond = sim.all_of([])
    assert cond.triggered


def test_condition_rejects_foreign_events():
    sim1, sim2 = Simulator(), Simulator()
    with pytest.raises(SimulationError):
        sim1.all_of([sim2.timeout(1.0)])


def test_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    assert sim.peek() == 4.0


def test_clock_is_monotonic_across_many_events():
    sim = Simulator()
    times = []
    for delay in [3.0, 1.0, 2.0, 1.0, 0.0]:
        sim.schedule_callback(delay, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert sim.now == 3.0


# -- the dispatch loop's edges ------------------------------------------

def test_hooks_attached_between_runs_take_effect_at_next_run():
    from repro.obs import HostScope
    from repro.sim import Tracer

    sim = Simulator()
    for delay in (1.0, 2.0, 3.0, 4.0, 5.0):
        sim.timeout(delay)
    hs, tracer = HostScope(detail=False), Tracer()

    def attach(_ev):
        # Attached while run() is looping: not seen until the next call.
        sim.hostscope, sim.tracer = hs, tracer

    sim.timeout(2.0).callbacks.append(attach)
    sim.run(until=3.0)
    assert hs.events == 0 and tracer.count("sim.dispatch") == 0
    sim.run()
    assert hs.events == 2 and tracer.count("sim.dispatch") == 2
    assert hs.sim_ns == 2.0          # clock advanced 3.0 -> 5.0 under it
    assert sim.now == 5.0


def test_step_reads_the_hooks_it_finds():
    from repro.obs import HostScope

    sim = Simulator()
    sim.timeout(1.0)
    sim.timeout(2.0)
    sim.step()
    sim.hostscope = HostScope(detail=False)
    sim.step()
    assert sim.hostscope.events == 1
    assert sim.now == 2.0


@pytest.mark.parametrize("mode", ["event", "time"])
def test_unhandled_failure_raises_from_until_modes(mode):
    sim = Simulator()
    target = sim.timeout(50.0)
    bad = sim.event()
    sim.schedule_callback(10.0, lambda: bad.fail(KeyError("lost")))
    with pytest.raises(KeyError, match="lost"):
        sim.run(until=target if mode == "event" else 20.0)
    assert sim.now == 10.0


def test_run_until_time_keeps_same_time_fifo_and_stops_at_horizon():
    sim = Simulator()
    order = []

    def spawn_at_horizon():
        order.append("a")
        # Scheduled *at* the horizon instant: still runs in this call.
        sim.schedule_callback(0.0, lambda: order.append("c"))

    sim.schedule_callback(20.0, spawn_at_horizon)
    sim.schedule_callback(20.0, lambda: order.append("b"))
    sim.schedule_callback(20.0 + 1e-9, lambda: order.append("late"))
    sim.run(until=20.0)
    assert order == ["a", "b", "c"]
    assert sim.now == 20.0
    assert sim.peek() == 20.0 + 1e-9
    sim.run(until=25.0)              # horizon past the queue: clock jumps
    assert order == ["a", "b", "c", "late"]
    assert sim.now == 25.0


def test_deadlock_error_carries_now_pending_and_watchdog_report():
    from repro.faults.watchdog import Watchdog

    sim = Simulator()
    sim.watchdog = Watchdog(sim)
    never = sim.event()

    def waiter(sim):
        yield sim.timeout(7.0)
        sim.watchdog.block("thread 3", "barrier", "gen 1")
        yield never

    sim.process(waiter(sim))
    sim.process(waiter(sim))
    with pytest.raises(DeadlockError) as ei:
        sim.run(until=never)
    err = ei.value
    assert err.now == 7.0
    assert err.pending == 2
    assert "2 blocked waiter(s)" in err.report
    assert err.report in str(err)
