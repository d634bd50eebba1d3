"""Unit tests for the discrete-event kernel."""

import gc
import weakref

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)
from repro.obs.profiler import KernelProfiler

NAN = float("nan")


def dispatch_sims():
    """One simulator per branch of the run loops' profiler check."""
    profiled = Simulator()
    KernelProfiler().install(profiled)
    return [Simulator(), profiled]


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(2.5)
        fired.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert fired == [2.5]
    assert sim.now == 2.5


def test_timeout_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)
    with pytest.raises(ValueError):
        sim.timeout(NAN)
    with pytest.raises(ValueError):
        sim.schedule_at(NAN, lambda: None)
    assert sim.peek() == float("inf")  # nothing reached the heap
    sim.timeout(float("inf"))  # an event that never fires is still valid


def test_timeout_carries_value():
    sim = Simulator()
    got = []

    def proc(sim):
        value = yield sim.timeout(1, value="payload")
        got.append(value)

    sim.process(proc(sim))
    sim.run()
    assert got == ["payload"]


def test_events_fire_in_time_order():
    sim = Simulator()
    log = []

    def proc(sim, name, delay):
        yield sim.timeout(delay)
        log.append(name)

    sim.process(proc(sim, "late", 10))
    sim.process(proc(sim, "early", 1))
    sim.process(proc(sim, "mid", 5))
    sim.run()
    assert log == ["early", "mid", "late"]


def test_same_time_ties_broken_by_scheduling_order():
    sim = Simulator()
    log = []

    def proc(sim, name):
        yield sim.timeout(3)
        log.append(name)

    for name in "abcd":
        sim.process(proc(sim, name))
    sim.run()
    assert log == list("abcd")


def test_run_until_stops_clock_at_until():
    def proc(sim):
        yield sim.timeout(100)

    for sim in dispatch_sims():
        sim.process(proc(sim))
        sim.run(until=30)
        assert sim.now == 30
        sim.run(until=200)
        assert sim.now == 200
        assert sim.profiler is None or sim.profiler.events_total == 3


def test_run_until_in_past_rejected():
    sim = Simulator()
    sim.run(until=10)
    with pytest.raises(ValueError):
        sim.run(until=5)
    with pytest.raises(ValueError):
        sim.run(until=NAN)
    assert sim.now == 10

    def proc(sim):
        yield sim.timeout(1)

    with pytest.raises(ValueError):
        sim.run_until_process(sim.process(proc(sim)), limit=NAN)


def test_process_return_value_visible_to_waiter():
    sim = Simulator()
    results = []

    def child(sim):
        yield sim.timeout(1)
        return 42

    def parent(sim):
        value = yield sim.process(child(sim))
        results.append(value)

    sim.process(parent(sim))
    sim.run()
    assert results == [42]


def test_waiting_on_already_finished_process():
    sim = Simulator()
    results = []

    def child(sim):
        yield sim.timeout(1)
        return "early"

    def parent(sim, child_proc):
        yield sim.timeout(10)
        value = yield child_proc  # child finished long ago
        results.append((sim.now, value))

    child_proc = sim.process(child(sim))
    sim.process(parent(sim, child_proc))
    sim.run()
    assert results == [(10.0, "early")]


def test_finished_process_freed_by_refcount():
    # A finished process must not sit in a reference cycle (its bound
    # resume callback would make one) — with the cyclic GC off, it dies
    # as soon as the last outside reference goes.
    sim = Simulator()
    seen = []
    child_refs = []

    def child(sim):
        yield sim.timeout(1)
        return "done"

    def parent(sim):
        child_proc = sim.process(child(sim))
        child_refs.append(weakref.ref(child_proc))
        seen.append((yield child_proc))

    proc = sim.process(parent(sim))
    gc.disable()
    try:
        sim.run()
        assert seen == ["done"]
        assert not proc.is_alive
        assert child_refs[0]() is None  # nobody outside held the child
        ref = weakref.ref(proc)
        del proc
        assert ref() is None
    finally:
        gc.enable()


def test_process_failure_propagates_to_waiter():
    sim = Simulator()
    caught = []

    def child(sim):
        yield sim.timeout(1)
        raise RuntimeError("boom")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(parent(sim))
    sim.run()
    assert caught == ["boom"]


def test_uncaught_process_failure_raises_when_strict():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1)
        raise ValueError("unhandled")

    sim.process(bad(sim))
    with pytest.raises(ValueError, match="unhandled"):
        sim.run()


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad(sim):
        yield 123

    sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_interrupt_resumes_with_cause():
    sim = Simulator()
    log = []

    def victim(sim):
        try:
            yield sim.timeout(100)
        except Interrupt as interrupt:
            log.append((sim.now, interrupt.cause))

    def attacker(sim, target):
        yield sim.timeout(5)
        target.interrupt(cause="crash")

    target = sim.process(victim(sim))
    sim.process(attacker(sim, target))
    sim.run()
    assert log == [(5.0, "crash")]


def test_interrupt_finished_process_is_error():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1)

    proc = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_process_can_continue():
    sim = Simulator()
    log = []

    def victim(sim):
        try:
            yield sim.timeout(100)
        except Interrupt:
            pass
        yield sim.timeout(2)
        log.append(sim.now)

    def attacker(sim, target):
        yield sim.timeout(5)
        target.interrupt()

    target = sim.process(victim(sim))
    sim.process(attacker(sim, target))
    sim.run()
    assert log == [7.0]


def test_event_succeed_and_value():
    sim = Simulator()
    event = sim.event()
    assert not event.triggered
    event.succeed("v")
    assert event.triggered
    assert event.value == "v"


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()
    with pytest.raises(SimulationError):
        event.fail(RuntimeError())


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not-an-exception")


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        _ = sim.event().value


def test_all_of_waits_for_all():
    sim = Simulator()
    done = []

    def proc(sim):
        t1 = sim.timeout(2, value="a")
        t2 = sim.timeout(5, value="b")
        results = yield sim.all_of([t1, t2])
        done.append((sim.now, sorted(results.values())))

    sim.process(proc(sim))
    sim.run()
    assert done == [(5.0, ["a", "b"])]


def test_any_of_fires_on_first():
    sim = Simulator()
    done = []

    def proc(sim):
        t1 = sim.timeout(2, value="fast")
        t2 = sim.timeout(5, value="slow")
        results = yield sim.any_of([t1, t2])
        done.append((sim.now, list(results.values())))

    sim.process(proc(sim))
    sim.run()
    assert done == [(2.0, ["fast"])]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    cond = AllOf(sim, [])
    assert cond.triggered


def test_all_of_fails_if_member_fails():
    sim = Simulator()
    caught = []

    def failer(sim):
        yield sim.timeout(1)
        raise RuntimeError("member failed")

    def waiter(sim, member):
        try:
            yield sim.all_of([member, sim.timeout(10)])
        except RuntimeError as exc:
            caught.append(str(exc))

    member = sim.process(failer(sim))
    sim.process(waiter(sim, member))
    sim.run()
    assert caught == ["member failed"]


def test_condition_rejects_foreign_events():
    sim1, sim2 = Simulator(), Simulator()
    with pytest.raises(SimulationError):
        AnyOf(sim1, [sim2.timeout(1)])


def test_run_until_process_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(3)
        return "result"

    p = sim.process(proc(sim))
    assert sim.run_until_process(p) == "result"
    assert sim.now == 3.0


def test_run_until_process_detects_deadlock():
    def stuck(sim):
        yield sim.event()  # never triggered

    for sim in dispatch_sims():
        p = sim.process(stuck(sim))
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_process(p)
        assert sim.profiler is None or sim.profiler.events_total == 1


def test_run_until_process_respects_limit():
    def slow(sim):
        yield sim.timeout(1000)

    for sim in dispatch_sims():
        p = sim.process(slow(sim))
        with pytest.raises(SimulationError, match="limit"):
            sim.run_until_process(p, limit=10)
        assert sim.profiler is None or sim.profiler.events_total == 1


def test_peek_and_step():
    sim = Simulator()
    sim.timeout(4)
    assert sim.peek() == 4
    sim.step()
    assert sim.now == 4
    assert sim.peek() == float("inf")
    with pytest.raises(SimulationError):
        sim.step()


def test_nested_process_chains():
    sim = Simulator()

    def nested(sim, depth):
        yield sim.timeout(1)
        if depth > 1:
            yield sim.process(nested(sim, depth - 1))
        return depth

    def chain(sim):
        value = yield sim.process(nested(sim, 5))
        assert value == 5

    sim.process(chain(sim))
    sim.run()
    assert sim.now == 5.0


def test_active_process_tracking():
    sim = Simulator()
    seen = []

    def proc(sim):
        seen.append(sim.active_process)
        yield sim.timeout(1)

    p = sim.process(proc(sim))
    sim.run()
    assert seen == [p]
    assert sim.active_process is None


def pinned_program(sim):
    """One fixed program over every kind of heap push; returns its log.

    Bootstraps, an interrupt whose direct wake-up goes stale, a yield on
    an already-processed event, ``call_soon``, ``schedule_at``, a failed
    event and a ``run(until=)`` leg.
    """
    log = []
    gate = sim.event()

    def sleeper(sim):
        done = sim.timeout(1.0, "slept")
        yield done
        gate.succeed("open")
        log.append(("again", (yield done), sim.now))  # processed: direct resume

    def interrupter(sim, target):
        yield gate
        target.interrupt("late")  # lands after target finishes: stale
        sim.call_soon(lambda: log.append(("soon", sim.now)))
        try:
            yield sim.any_of([sim.timeout(0.5), sim.event().fail(KeyError("k"))])
        except KeyError:
            log.append(("failed", sim.now))

    def waiter(sim):
        try:
            yield sim.timeout(5.0)
        except Interrupt as interrupt:
            log.append(("interrupted", interrupt.cause, sim.now))
        yield sim.all_of([sim.timeout(0.25), gate])
        log.append(("joined", sim.now))

    target = sim.process(sleeper(sim), name="sleeper")
    sim.process(interrupter(sim, target), name="interrupter")
    blocked = sim.process(waiter(sim), name="waiter")
    sim.schedule_at(0.5, lambda: blocked.interrupt("early"), priority=0)
    sim.run(until=1.0)
    log.append(("leg", sim.now))
    sim.schedule_at(1.5, lambda: log.append(("at", sim.now)))
    sim.run()
    return log


PINNED_LOG = [
    ("interrupted", "early", 0.5),
    ("again", "slept", 1.0),
    ("soon", 1.0),
    ("joined", 1.0),
    ("failed", 1.0),
    ("leg", 1.0),
    ("at", 1.5),
]
PINNED_EVENTS = 20
PINNED_SITES = {
    "resume:sleeper": 3,  # bootstrap, direct resume, stale interrupt
    "resume:interrupter": 1,
    "resume:waiter": 2,
    "call_soon:pinned_program.<locals>.<lambda>": 2,
    "call_soon:pinned_program.<locals>.interrupter.<locals>.<lambda>": 1,
    "Timeout->AllOf._check": 1,
    "Timeout->sleeper": 1,
    "Timeout->AnyOf._check": 1,
    "Timeout": 1,
    "Event->interrupter": 1,
    "Event->AnyOf._check": 1,
    "AllOf->waiter": 1,
    "AnyOf->interrupter": 1,
    "Process": 3,
}


@pytest.mark.parametrize("profiled", [False, True])
def test_pinned_program_keeps_its_heap_push_count(profiled):
    # events_scheduled is hashed into the federation digest
    # (ClusterShard.digest): a kernel change that adds or drops a heap
    # push fails here before any digest or perfbench reference moves.
    sim = Simulator()
    profiler = KernelProfiler().install(sim) if profiled else None
    assert pinned_program(sim) == PINNED_LOG
    assert sim.events_scheduled == PINNED_EVENTS
    assert sim.now == 5.0  # the interrupted waiter's timeout still fires
    if profiler is not None:
        # perfbench's layer split reads these site names.
        assert {site: stats.events for site, stats in profiler.sites.items()} == PINNED_SITES
