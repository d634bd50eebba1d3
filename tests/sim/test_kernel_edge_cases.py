"""Kernel edge cases: interrupt-while-queued semantics and condition
compositions."""

import pytest

from repro.sim import AllOf, AnyOf, Interrupt, Resource, Simulator


def test_interrupted_waiter_releases_queued_request_via_context_manager():
    """The documented pattern: a process interrupted while queued on a
    Resource must release its request (the with-block does it), so the
    slot is never leaked to a ghost."""
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    served = []

    def holder(sim):
        with resource.request() as req:
            yield req
            yield sim.timeout(10)

    def waiter(sim, name):
        try:
            with resource.request() as req:
                yield req
                served.append(name)
        except Interrupt:
            pass  # the with-block already cancelled the queued request

    sim.process(holder(sim))
    victim = sim.process(waiter(sim, "victim"))
    sim.process(waiter(sim, "survivor"))

    def attacker(sim):
        yield sim.timeout(1)
        victim.interrupt(cause="cancelled")

    sim.process(attacker(sim))
    sim.run()
    # The survivor got the slot after the holder; the victim never did.
    assert served == ["survivor"]
    assert resource.count == 0
    assert not resource.queue


def test_nested_conditions():
    sim = Simulator()
    done = []

    def proc(sim):
        fast = sim.timeout(1, value="fast")
        slow = sim.timeout(5, value="slow")
        either = AnyOf(sim, [fast, slow])
        gate = sim.timeout(2, value="gate")
        both = AllOf(sim, [either, gate])
        yield both
        done.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert done == [2.0]  # AnyOf fires at 1, gate at 2


def test_condition_over_already_fired_events():
    sim = Simulator()
    fired = sim.timeout(0)
    sim.run()  # fire it
    cond = AllOf(sim, [fired])
    assert cond.triggered


def test_interrupt_delivered_even_if_target_fires_same_instant():
    """An interrupt scheduled for the same instant as the awaited event
    must not crash the kernel; exactly one resumption wins."""
    sim = Simulator()
    outcome = []

    def victim(sim):
        try:
            yield sim.timeout(5)
            outcome.append("completed")
        except Interrupt:
            outcome.append("interrupted")

    target = sim.process(victim(sim))

    def attacker(sim):
        yield sim.timeout(5)
        if target.is_alive:
            target.interrupt()

    sim.process(attacker(sim))
    sim.run()
    assert len(outcome) == 1


def test_process_value_of_failed_process_reraises():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1)
        raise RuntimeError("inner")

    proc = sim.process(bad(sim))
    # Nobody waits on ``proc``, so its failure also escapes run().
    with pytest.raises(RuntimeError, match="inner"):
        sim.run()
    assert proc.triggered and not proc.ok
    with pytest.raises(RuntimeError, match="inner"):
        _ = proc.value
