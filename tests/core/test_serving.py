"""Integration tests for the request serving path (node + switch)."""

import pytest

from repro.core.node import Request, ServiceUnavailableError
from repro.core.node import ExploitSucceeded
from repro.core.policies import CustomPolicy, LeastConnectionsPolicy
from repro.guestos.syscall import SyscallMix
from tests.core.conftest import create_service


def make_request(client, response_mb=0.1, is_exploit=False):
    # A modest web request: parse + copy + syscalls per §5's web service.
    mix = SyscallMix(user_mcycles=1.0 + 2.0 * response_mb, n_syscalls=30 + 32 * response_mb)
    return Request(client=client, response_mb=response_mb, mix=mix, is_exploit=is_exploit)


def serve_one(tb, record, client, **kwargs):
    request = make_request(client, **kwargs)
    return tb.run(record.switch.serve(request), name="client-request")


def test_request_served_end_to_end(testbed):
    _, record = create_service(testbed)
    client = testbed.add_client("client-1")
    response = serve_one(testbed, record, client)
    assert response.response_mb == 0.1
    assert response.elapsed > 0
    assert record.switch.dispatched == 1
    assert record.nodes[0].served == 1


def test_zero_size_response_served(testbed):
    """A header-only (empty body) response is valid: the node skips the
    wire flow and still completes the request."""
    _, record = create_service(testbed)
    client = testbed.add_client("client-1")
    response = serve_one(testbed, record, client, response_mb=0.0)
    assert response.response_mb == 0.0
    assert record.nodes[0].served == 1


def test_response_time_grows_with_dataset_size(testbed):
    _, record = create_service(testbed)
    client = testbed.add_client("client-1")
    small = serve_one(testbed, record, client, response_mb=0.5)
    large = serve_one(testbed, record, client, response_mb=8.0)
    assert large.elapsed > 4 * small.elapsed


def test_wrr_two_to_one_split(testbed):
    """Figure 2/4 layout: 2M node on seattle, 1M on tacoma; default WRR
    sends twice as many requests to seattle."""
    create_service(testbed, name="honeypot", image="honeypot", n=1)
    _, record = create_service(testbed, name="web", n=3)
    client = testbed.add_client("client-1")

    def client_proc(sim):
        for i in range(30):
            yield sim.process(record.switch.serve(make_request(client)))

    testbed.run(client_proc(testbed.sim))
    by_host = {n.name: n.served for n in record.nodes}
    seattle_node = next(n for n in record.nodes if n.host.name == "seattle")
    tacoma_node = next(n for n in record.nodes if n.host.name == "tacoma")
    assert seattle_node.served == 20
    assert tacoma_node.served == 10


def test_crashed_node_skipped_by_switch(testbed):
    create_service(testbed, name="honeypot", image="honeypot", n=1)
    _, record = create_service(testbed, name="web", n=3)
    client = testbed.add_client("client-1")
    tacoma_node = next(n for n in record.nodes if n.host.name == "tacoma")
    tacoma_node.vm.crash(cause="fault")
    for _ in range(6):
        response = serve_one(testbed, record, client)
        assert response.node_name != tacoma_node.name


def test_all_nodes_down_fails_cleanly(testbed):
    _, record = create_service(testbed, n=1)
    client = testbed.add_client("client-1")
    record.nodes[0].vm.crash()
    with pytest.raises(ServiceUnavailableError):
        serve_one(testbed, record, client)
    assert record.switch.rejected == 0  # rejected at dispatch, not after


def test_exploit_compromises_honeypot_node(testbed):
    _, record = create_service(testbed, name="honeypot", image="honeypot", n=1)
    client = testbed.add_client("attacker")
    with pytest.raises(ExploitSucceeded):
        serve_one(testbed, record, client, is_exploit=True)
    node = record.nodes[0]
    assert node.vm.compromised
    assert node.vm.processes.find_by_command("/bin/sh")
    # Guest root is not host root: the host is unreachable.
    assert not node.vm.attacker_can_reach_host()


def test_exploit_against_invulnerable_service_is_served_normally(testbed):
    _, record = create_service(testbed, name="web", n=1)
    client = testbed.add_client("attacker")
    response = serve_one(testbed, record, client, is_exploit=True)
    assert response.elapsed > 0
    assert not record.nodes[0].vm.compromised


def test_capacity_queueing_on_single_unit_node(testbed):
    """A 1M node serialises concurrent requests; a burst queues."""
    _, record = create_service(testbed, name="web", n=1)
    client = testbed.add_client("client-1")
    responses = []

    def burst(sim):
        procs = [
            sim.process(record.switch.serve(make_request(client, response_mb=2.0)))
            for _ in range(4)
        ]
        for proc in procs:
            responses.append((yield proc))

    testbed.run(burst(testbed.sim))
    times = sorted(r.elapsed for r in responses)
    # Later requests waited behind earlier ones.
    assert times[-1] > 2 * times[0]


def test_custom_policy_takes_effect(testbed):
    create_service(testbed, name="honeypot", image="honeypot", n=1)
    _, record = create_service(testbed, name="web", n=3)
    tacoma_node = next(n for n in record.nodes if n.host.name == "tacoma")
    record.switch.set_policy(
        CustomPolicy(lambda cands, weights: next(n for n in cands if "tacoma" in n.name))
    )
    client = testbed.add_client("client-1")
    for _ in range(5):
        response = serve_one(testbed, record, client)
        assert response.node_name == tacoma_node.name


def test_ill_behaved_custom_policy_contained(testbed):
    """A policy returning garbage degrades only this service: the switch
    falls back to a healthy node (paper §5)."""
    _, record = create_service(testbed, name="web", n=2)
    record.switch.set_policy(CustomPolicy(lambda cands, weights: None))
    client = testbed.add_client("client-1")
    response = serve_one(testbed, record, client)
    assert response.elapsed > 0  # still served


def test_set_policy_type_checked(testbed):
    _, record = create_service(testbed)
    with pytest.raises(TypeError):
        record.switch.set_policy(lambda c, w: c[0])


def test_least_connections_balances_under_asymmetric_load(testbed):
    create_service(testbed, name="honeypot", image="honeypot", n=1)
    _, record = create_service(
        testbed, name="web", n=3, policy=LeastConnectionsPolicy()
    )
    client = testbed.add_client("client-1")

    def clients(sim):
        procs = [
            sim.process(record.switch.serve(make_request(client, response_mb=1.0)))
            for _ in range(12)
        ]
        for proc in procs:
            yield proc

    testbed.run(clients(testbed.sim))
    assert sum(n.served for n in record.nodes) == 12


def test_switch_counts_per_node(testbed):
    create_service(testbed, name="honeypot", image="honeypot", n=1)
    _, record = create_service(testbed, name="web", n=3)
    client = testbed.add_client("client-1")
    for _ in range(6):
        serve_one(testbed, record, client)
    assert sum(record.switch.per_node_count.values()) == 6


def test_request_with_trace_copies_every_other_field():
    mix = SyscallMix(1.0, 30)
    request = Request(client="c", response_mb=0.5, mix=mix, label="l", component="db")
    root = object()
    traced = request.with_trace(root)
    assert traced.trace is root
    assert request.trace is None  # the original is untouched
    assert traced == request  # trace is excluded from equality
    assert (traced.client, traced.response_mb, traced.mix, traced.label, traced.component) == (
        "c", 0.5, mix, "l", "db"
    )
    with pytest.raises(AttributeError):
        traced.trace = None  # still frozen


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -0.1])
def test_request_rejects_non_finite_or_negative_response_size(bad):
    # NaN used to pass the ``< 0`` check and be "served" with no body.
    with pytest.raises(ValueError, match="response size must be finite"):
        Request(client="c", response_mb=bad, mix=SyscallMix(1.0, 30))
