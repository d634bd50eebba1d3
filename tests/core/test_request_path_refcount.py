"""The request path's objects die by refcount, not by the cyclic GC.

Every per-request object (a LAN ``Flow`` and its ``done`` event, a
``Resource`` slot, the request's ``Process``, a failed attempt's
exception and the frames of its traceback) must be freed the moment its
last user drops it.  An object that points back at itself (an event
fired with itself as its value, a frame naming the exception whose
traceback holds that frame) lives on until the cyclic GC finds it, and
at saturation those collections cost a measurable share of a run
(MODELING.md §10).

With ``gc`` disabled, the tests below serve requests through the plain
switch, through a switch with a timeout budget and a retry policy in
front of a replica that crashes under load, and through a burst of bare
LAN flows.  A collection under ``DEBUG_SAVEALL`` then shows what the
cyclic GC would have had to free: none of it may come from the request
path.
"""

import gc
import types
import weakref
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.core.errors import SODAError
from repro.faults.retry import BackoffPolicy
from repro.net.lan import LAN, Flow
from repro.sim.kernel import Event, Simulator
from repro.sim.resources import Resource
from repro.workload.apps import web_request
from repro.workload.clients import ClientPool
from tests.faults.conftest import _three_host_testbed, create_service

# Event covers Timeout, Process, _Request and the conditions.
REQUEST_PATH_TYPES = (Flow, Event, SODAError, types.FrameType, types.TracebackType)


@contextmanager
def gc_disabled():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@contextmanager
def cyclic_garbage():
    """Collect what the cyclic GC would free of the block's objects.

    Yields a Counter, filled on exit with the request-path objects (by
    type name) that only a cyclic collection would have freed.
    """
    found = Counter()
    gc.collect()
    with gc_disabled():
        try:
            yield found
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            found.update(
                type(obj).__name__ for obj in gc.garbage
                if isinstance(obj, REQUEST_PATH_TYPES)
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()


def serve_burst(tb, switch, clients, n, gap_s, size_mb, crash=None):
    """Serve ``n`` requests the way ``Siege`` does; returns the outcomes.

    Each request is its own process, and a caller process catches the
    request's error.  ``crash`` is ``(after_request, node)``: the node
    crashes while requests are queued and in service on it.
    """
    sim = tb.sim
    outcomes = []

    def one(request):
        try:
            response = yield sim.process(switch.serve(request), name="req")
        except SODAError as exc:
            outcomes.append(type(exc).__name__)
        else:
            outcomes.append(response.node_name)

    def arrivals(sim):
        for i in range(n):
            sim.process(one(web_request(clients.next_client(), size_mb)))
            yield sim.timeout(gap_s)
            if crash is not None and i == crash[0]:
                crash[1].vm.crash(cause="test")

    sim.process(arrivals(sim))
    sim.run(until=sim.now + 60.0)
    assert len(outcomes) == n
    return Counter(outcomes)


@pytest.fixture
def spread():
    """Three equal hosts, a 2-replica service and two clients."""
    tb = _three_host_testbed()
    record = create_service(tb, n=2)
    return tb, record, ClientPool(tb.lan, n=2)


def test_plain_switch_path_leaves_no_cycles(spread):
    tb, record, clients = spread
    with cyclic_garbage() as garbage:
        outcomes = serve_burst(tb, record.switch, clients, 20, 0.01, 0.2)
    assert sum(outcomes.values()) == 20
    assert set(outcomes) == {node.name for node in record.nodes}
    assert not garbage


@pytest.mark.parametrize("max_attempts", [1, 3])
def test_budget_and_retry_path_before_a_crashed_replica_leaves_no_cycles(
    spread, max_attempts
):
    tb, record, clients = spread
    switch = record.switch
    switch.retry_policy = BackoffPolicy(max_attempts=max_attempts)
    switch.request_timeout_s = 0.3
    with cyclic_garbage() as garbage:
        outcomes = serve_burst(
            tb, switch, clients, 16, 0.002, 0.5, crash=(10, record.nodes[0])
        )
    # Requests were served, failed over or failed: every branch ran.
    assert outcomes[record.nodes[1].name] > 0
    assert sum(n for name, n in outcomes.items() if name.endswith("Error")) > 0
    if max_attempts > 1:
        assert switch.failovers > 0
    assert not garbage


def test_inline_failure_path_leaves_no_cycles(spread):
    # No budget: the back-end fails inside the request's own process and
    # the switch raises the failure from its own frame.
    tb, record, clients = spread
    switch = record.switch
    switch.retry_policy = BackoffPolicy(max_attempts=2)
    with cyclic_garbage() as garbage:
        outcomes = serve_burst(
            tb, switch, clients, 16, 0.002, 0.5, crash=(10, record.nodes[0])
        )
    assert switch.failovers > 0
    assert outcomes[record.nodes[1].name] > 0
    assert not garbage


def test_lan_flow_burst_leaves_no_cycles():
    sim = Simulator()
    lan = LAN(sim, bandwidth_mbps=100.0, latency_s=0.0002)
    nics = [lan.nic(f"h{i}", 100.0) for i in range(4)]
    with cyclic_garbage() as garbage:
        for i in range(60):
            cap = [None, 20.0, 200.0][i % 3]
            lan.transfer(nics[i % 4], nics[(3 * i + 1) % 4], 0.05 + 0.01 * i, cap)
        sim.run()
    assert not lan.active_flows
    assert not garbage


@pytest.mark.parametrize("latency_s", [0.0, 0.0002])
def test_finished_flow_dies_with_its_last_user(latency_s):
    sim = Simulator()
    lan = LAN(sim, bandwidth_mbps=100.0, latency_s=latency_s)
    a, b = lan.nic("a", 100.0), lan.nic("b", 100.0)
    with gc_disabled():
        flow = lan.transfer(a, b, 0.5)
        sim.run()
        assert flow.done.processed
        flow_ref, done_ref = weakref.ref(flow), weakref.ref(flow.done)
        del flow
        assert flow_ref() is None
        assert done_ref() is None


def test_released_slot_dies_with_its_last_user():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    with gc_disabled():
        granted = resource.request()  # granted on request
        queued = resource.request()  # granted on release
        sim.run()
        assert granted.processed and not queued.triggered
        resource.release(granted)
        sim.run()
        assert queued.processed
        resource.release(queued)
        refs = [weakref.ref(granted), weakref.ref(queued)]
        del granted, queued
        assert [ref() for ref in refs] == [None, None]
