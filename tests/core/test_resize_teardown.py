"""Integration tests for SODA_service_resizing and SODA_service_teardown."""

import pytest

from repro.core.errors import (
    AdmissionError,
    AuthenticationError,
    InvalidRequestError,
    PrimingError,
    ServiceNotFoundError,
)
from repro.core.auth import Credentials
from tests.core.conftest import create_service


def resize(tb, name, n_new):
    return tb.run(
        tb.agent.service_resizing(tb.creds, name, tb.repo, n_new),
        name=f"resize:{name}",
    )


def teardown(tb, name):
    tb.run(tb.agent.service_teardown(tb.creds, name), name=f"teardown:{name}")


# ------------------------------------------------------------------ resizing
def test_grow_in_place_on_same_host(testbed):
    _, record = create_service(testbed, n=1)
    node = record.nodes[0]
    resize(testbed, "web", 2)
    assert record.total_units == 2
    assert len(record.nodes) == 1  # grown in place, no new node
    assert node.units == 2
    assert record.switch.config.total_capacity == 2


def test_grow_reserves_more_resources(testbed):
    _, record = create_service(testbed, n=1)
    host = record.nodes[0].host
    before = host.reservations.reserved.cpu_mhz
    resize(testbed, "web", 2)
    after = host.reservations.reserved.cpu_mhz
    assert after == pytest.approx(2 * before)


def test_grow_spills_to_new_node_when_host_full(testbed):
    create_service(testbed, name="honeypot", image="honeypot", n=1)
    _, record = create_service(testbed, name="web", n=2)  # fills seattle
    assert len(record.nodes) == 1
    resize(testbed, "web", 3)
    assert record.total_units == 3
    assert len(record.nodes) == 2
    assert record.nodes[1].host.name == "tacoma"
    # Config file gained a BackEnd line (§3.4).
    assert len(record.switch.config) == 2


def test_shrink_in_place(testbed):
    _, record = create_service(testbed, n=3)
    resize(testbed, "web", 1)
    assert record.total_units == 1
    assert record.nodes[0].units == 1
    assert record.switch.config.total_capacity == 1


def test_shrink_removes_spilled_node(testbed):
    create_service(testbed, name="honeypot", image="honeypot", n=1)
    _, record = create_service(testbed, name="web", n=3)  # 2 + 1 layout
    assert len(record.nodes) == 2
    tacoma_daemon = testbed.daemons["tacoma"]
    pool_free_before = tacoma_daemon.ip_pool.n_free
    resize(testbed, "web", 2)
    assert len(record.nodes) == 1
    assert record.nodes[0].host.name == "seattle"
    assert len(record.switch.config) == 1
    # tacoma's slice fully released.
    assert testbed.hosts["tacoma"].reservations.n_live == 0
    assert tacoma_daemon.ip_pool.n_free == pool_free_before + 1


def test_resize_updates_billing(testbed):
    create_service(testbed, n=1)
    resize(testbed, "web", 3)
    hours = testbed.agent.ledger.machine_hours("web", now=testbed.now + 3600.0)
    assert hours == pytest.approx(3.0, rel=0.05)


def test_resize_beyond_capacity_fails(testbed):
    _, record = create_service(testbed, n=1)
    with pytest.raises(AdmissionError):
        resize(testbed, "web", 50)
    # Service still running at its old size.
    assert record.is_running
    assert record.total_units >= 1


def test_grow_failing_in_priming_restores_the_service(testbed):
    """n 1 -> 4 grows seattle's node in place to 3 units, then spills one
    onto tacoma, whose IP pool is exhausted: the failed resize must undo
    the in-place growth, leaving units, config file and requirement."""
    _, record = create_service(testbed, n=1)
    node = record.nodes[0]
    config_before = record.switch.config.render()
    reserved_before = node.host.reservations.reserved
    tacoma_pool = testbed.daemons["tacoma"].ip_pool
    taken = [tacoma_pool.allocate() for _ in range(tacoma_pool.size)]
    with pytest.raises(PrimingError, match="tacoma"):
        resize(testbed, "web", 4)
    assert record.is_running
    assert record.nodes == [node]
    assert node.units == record.total_units == record.requirement.n == 1
    assert node.workers.capacity == 1
    assert record.switch.config.render() == config_before
    assert node.host.reservations.reserved.cpu_mhz == pytest.approx(
        reserved_before.cpu_mhz
    )
    assert testbed.hosts["tacoma"].reservations.n_live == 0
    # The service grows again once tacoma has an address to give.
    tacoma_pool.release(taken[0])
    resize(testbed, "web", 4)
    assert record.total_units == record.requirement.n == 4


def test_resize_validation(testbed):
    create_service(testbed, n=1)
    with pytest.raises(InvalidRequestError):
        resize(testbed, "web", 0)


def test_resize_requires_ownership(testbed):
    create_service(testbed, n=1)
    testbed.agent.register_asp("rival", "rivalsecret")
    with pytest.raises(AuthenticationError):
        testbed.run(
            testbed.agent.service_resizing(
                Credentials("rival", "rivalsecret"), "web", testbed.repo, 2
            )
        )


def test_service_keeps_serving_after_resize(testbed):
    from tests.core.test_serving import make_request

    _, record = create_service(testbed, n=1)
    resize(testbed, "web", 2)
    client = testbed.add_client("client-1")
    response = testbed.run(record.switch.serve(make_request(client)))
    assert response.elapsed > 0


# ---------------------------------------------------------------- teardown
def test_teardown_releases_everything(testbed):
    create_service(testbed, name="honeypot", image="honeypot", n=1)
    _, record = create_service(testbed, name="web", n=3)
    seattle = testbed.hosts["seattle"]
    reserved_before = seattle.reservations.n_live
    teardown(testbed, "web")
    assert "web" not in testbed.master.services
    assert seattle.reservations.n_live == reserved_before - 1
    for node in record.nodes:
        assert node.torn_down
        assert not node.vm.is_running
    # IPs returned to pools.
    assert testbed.daemons["seattle"].ip_pool.n_allocated == 1  # honeypot only
    assert testbed.daemons["tacoma"].ip_pool.n_allocated == 0


def test_teardown_stops_billing(testbed):
    create_service(testbed, n=1)
    teardown(testbed, "web")
    assert testbed.agent.ledger.n_open == 0


def test_teardown_unknown_service(testbed):
    with pytest.raises(ServiceNotFoundError):
        teardown(testbed, "ghost")


def test_teardown_requires_ownership(testbed):
    create_service(testbed, n=1)
    testbed.agent.register_asp("rival", "rivalsecret")
    with pytest.raises(AuthenticationError):
        testbed.run(
            testbed.agent.service_teardown(Credentials("rival", "rivalsecret"), "web")
        )


def test_recreate_after_teardown(testbed):
    create_service(testbed, n=3)
    teardown(testbed, "web")
    reply, record = create_service(testbed, n=3)
    assert record.is_running
