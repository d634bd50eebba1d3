"""Regression tests for stale wakeups and already-failed constituents.

An interrupted process is detached from the event it was waiting on, but
that event may still fire later.  If the process has *finished* by then,
the late firing must be dropped by ``_resume``'s early return — it must
not throw into (or send to) a closed generator.  Conditions built from
events that already failed must fail synchronously rather than hang.
"""

import pytest

from repro.sim.kernel import AllOf, AnyOf, Interrupt, Simulator


def test_event_firing_after_interrupted_waiter_finished_is_dropped():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter(sim):
        try:
            yield gate
            log.append("gate")
        except Interrupt:
            log.append("interrupted")
        # Finish immediately: by the time `gate` fires, this process is done.

    proc = sim.process(waiter(sim))

    def driver(sim):
        yield sim.timeout(1.0)
        proc.interrupt("shutdown")
        yield sim.timeout(1.0)
        # The waiter has finished; firing its old target must be a no-op.
        assert not proc.is_alive
        gate.succeed("late")
        yield sim.timeout(1.0)
        log.append("after-late-fire")

    sim.process(driver(sim))
    sim.run()
    assert log == ["interrupted", "after-late-fire"]
    assert proc.ok
    assert gate.processed  # fired and resolved, with no one resumed


def test_stale_wakeup_when_interrupted_waiter_moves_on():
    # Variant: the interrupted process keeps running and blocks on a NEW
    # event.  The OLD event firing must not resume it a second time.
    sim = Simulator()
    first = sim.event()
    second = sim.event()
    log = []

    def waiter(sim):
        try:
            yield first
            log.append("first")
        except Interrupt:
            log.append("interrupted")
        value = yield second
        log.append(value)

    proc = sim.process(waiter(sim))

    def driver(sim):
        yield sim.timeout(1.0)
        proc.interrupt()
        yield sim.timeout(1.0)
        first.succeed("stale")  # must NOT be delivered to the waiter
        yield sim.timeout(1.0)
        second.succeed("fresh")

    sim.process(driver(sim))
    sim.run()
    assert log == ["interrupted", "fresh"]
    assert proc.ok


def test_any_of_from_already_failed_event_fails_synchronously():
    sim = Simulator()
    failed = sim.event()
    failed.fail(RuntimeError("boom"))
    sim.run()  # process the failure
    assert failed.processed and not failed.ok

    condition = AnyOf(sim, [failed, sim.event()])
    # Triggered at construction time, before the kernel runs again.
    assert condition.triggered and not condition.ok
    with pytest.raises(RuntimeError, match="boom"):
        condition.value


def test_all_of_from_already_failed_event_fails_synchronously():
    sim = Simulator()
    failed = sim.event()
    failed.fail(ValueError("bad"))
    sim.run()
    assert failed.processed and not failed.ok

    condition = AllOf(sim, [sim.event(), failed])
    assert condition.triggered and not condition.ok
    with pytest.raises(ValueError, match="bad"):
        condition.value


def test_waiting_on_failed_condition_raises_in_process():
    sim = Simulator()
    failed = sim.event()
    failed.fail(RuntimeError("dead upstream"))
    sim.run()
    caught = []

    def waiter(sim):
        try:
            yield sim.any_of([failed, sim.timeout(10.0)])
        except RuntimeError as exc:
            # The failure arrives at t=0, not when the timeout fires.
            caught.append((sim.now, str(exc)))

    sim.process(waiter(sim))
    sim.run()
    assert caught == [(0.0, "dead upstream")]


def test_all_of_mixed_processed_successes_completes():
    sim = Simulator()
    done = sim.event()
    done.succeed("early")
    sim.run()
    assert done.processed

    pending = sim.timeout(2.0, value="late")
    condition = sim.all_of([done, pending])
    results = []

    def waiter(sim):
        value = yield condition
        results.append(value)

    sim.process(waiter(sim))
    sim.run()
    assert results == [{done: "early", pending: "late"}]
    assert sim.now == 2.0
