"""The switch's inline serving path: no timeout budget.

The back-end serves inside the request's own simulated process
(``yield from node.serve(...)``), not in a child process of its own,
whether or not a retry policy is installed.  These tests pin what that
path costs the kernel per request and what a caller sees when the
back-end fails.
"""

import pytest

from repro.core.node import ExploitSucceeded, Request, ServiceUnavailableError
from repro.faults.retry import BackoffPolicy
from repro.guestos.syscall import SyscallMix
from tests.core.conftest import create_service

# Heap pushes for one request through a 1-node service whose node shares
# the switch's host, driven by ``testbed.run``:
#   2  the driving process (bootstrap, completion)
#   15 three LAN transfers (client->switch, switch->node over loopback,
#      node->client), five each: start flush, completion wake-up,
#      post-completion flush, latency Timeout, done
#   2  dispatcher slot grant, classify-CPU Timeout
#   2  back-end worker slot grant, service-time Timeout
# A child process for the back-end would add two more (bootstrap, done).
EVENTS_PER_REQUEST = 21


def make_request(client, response_mb=0.1, is_exploit=False):
    mix = SyscallMix(user_mcycles=1.0 + 2.0 * response_mb, n_syscalls=30 + 32 * response_mb)
    return Request(client=client, response_mb=response_mb, mix=mix, is_exploit=is_exploit)


def test_one_request_kernel_event_budget(testbed):
    _, record = create_service(testbed, n=1)
    switch = record.switch
    assert len(switch.nodes) == 1
    assert switch.nodes[0].host is switch.home_node.host  # co-located: loopback forward
    client = testbed.add_client("client-1")
    for _ in range(3):
        before = testbed.sim.events_scheduled
        response = testbed.run(switch.serve(make_request(client)))
        assert testbed.sim.events_scheduled - before == EVENTS_PER_REQUEST
        assert response.node_name == switch.nodes[0].name
    assert switch.dispatched == 3
    assert switch.rejected == 0


def test_retry_only_switch_serves_inline_at_the_plain_event_cost(testbed, monkeypatch):
    _, record = create_service(testbed, n=1)
    switch = record.switch
    client = testbed.add_client("client-1")
    sim = testbed.sim
    started = []
    process = sim.process

    def recording_process(generator, name=""):
        started.append(name)
        return process(generator, name=name)

    monkeypatch.setattr(sim, "process", recording_process)

    def events_per_dispatched_request():
        events, dispatched = sim.events_scheduled, switch.dispatched
        for _ in range(3):
            testbed.run(switch.serve(make_request(client)))
        return (sim.events_scheduled - events) / (switch.dispatched - dispatched)

    plain = events_per_dispatched_request()
    switch.retry_policy = BackoffPolicy()
    assert events_per_dispatched_request() == plain == EVENTS_PER_REQUEST
    assert switch.failovers == 0
    assert started and not any(name.startswith("attempt:") for name in started)


def test_backend_dying_while_request_queued_raises_to_caller(testbed):
    _, record = create_service(testbed, n=1)
    switch = record.switch
    node = switch.nodes[0]
    assert node.workers.capacity == 1
    client = testbed.add_client("client-1")
    outcomes = []

    def caller(sim, response_mb):
        try:
            response = yield from switch.serve(make_request(client, response_mb))
        except ServiceUnavailableError as exc:
            outcomes.append(("failed", str(exc)))
        else:
            outcomes.append(("ok", response.node_name))

    def crash_once_queued(sim):
        while not node.workers.queue:
            yield sim.timeout(0.0005)
        node.vm.crash(cause="fault")

    sim = testbed.sim
    sim.process(caller(sim, 2.0))  # holds the only worker for a while
    sim.process(caller(sim, 0.1))  # queues behind it
    testbed.run(crash_once_queued(sim))
    sim.run()
    # The request in service finishes; the queued one then finds the node dead.
    assert outcomes == [
        ("ok", node.name),
        ("failed", f"node {node.name} died while queued"),
    ]
    assert switch.dispatched == 2
    assert switch.rejected == 1
    assert node.failed == 1 and node.served == 1
    assert node.inflight == 0 and not node.workers.users and not node.workers.queue


def test_exploit_raises_out_of_switch_serve(testbed):
    _, record = create_service(testbed, name="honeypot", image="honeypot", n=1)
    switch = record.switch
    client = testbed.add_client("attacker")
    outcomes = []
    switch.add_outcome_listener(lambda _t, _latency, outcome: outcomes.append(outcome))
    with pytest.raises(ExploitSucceeded) as caught:
        testbed.run(switch.serve(make_request(client, is_exploit=True)))
    assert caught.value.node is switch.nodes[0]
    assert switch.nodes[0].vm.compromised
    # Counted as a dispatched request the back-end rejected.
    assert switch.dispatched == 1
    assert switch.rejected == 1
    assert outcomes == ["failed"]
    assert switch.nodes[0].workers.users == []
