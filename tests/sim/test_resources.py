"""Unit tests for Resource."""

import pytest

from repro.sim import Resource, Simulator
from repro.sim.kernel import SimulationError


# ---------------------------------------------------------------- Resource
def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_grants_up_to_capacity_immediately():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert res.count == 2


def test_resource_fifo_handoff():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(sim, name, hold):
        req = res.request()
        yield req
        order.append((sim.now, name))
        yield sim.timeout(hold)
        res.release(req)

    sim.process(user(sim, "a", 3))
    sim.process(user(sim, "b", 2))
    sim.process(user(sim, "c", 1))
    sim.run()
    assert order == [(0.0, "a"), (3.0, "b"), (5.0, "c")]


def test_resource_release_cancels_queued_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    held = res.request()
    queued = res.request()
    assert not queued.triggered
    res.release(queued)  # cancel while still queued
    res.release(held)
    assert res.count == 0


def test_resource_release_unknown_request_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    foreign = Resource(sim, capacity=1).request()
    with pytest.raises(SimulationError):
        res.release(foreign)


def test_resource_context_manager():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(sim):
        with res.request() as req:
            yield req
            yield sim.timeout(1)
        assert res.count == 0

    sim.process(user(sim))
    sim.run()
    assert res.count == 0

