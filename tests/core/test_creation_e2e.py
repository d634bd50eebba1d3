"""Integration tests: full service creation through Agent -> Master ->
Daemons -> nodes -> switch (paper §3's end-to-end flow)."""

import pytest

from repro.core import MachineConfig, ResourceRequirement
from repro.core.auth import Credentials
from repro.core.errors import (
    AdmissionError,
    AuthenticationError,
    InvalidRequestError,
    ServiceNotFoundError,
)
from repro.core.service import ServiceState
from repro.obs import MetricsRegistry
from tests.core.conftest import create_service


def test_creation_returns_node_info(testbed):
    reply, record = create_service(testbed)
    assert reply.service_name == "web"
    assert len(reply.node_endpoints) >= 1
    assert sum(reply.node_capacities) == 3
    assert reply.primed_in_s > 0
    assert record.is_running


def test_first_fit_places_all_units_on_seattle(testbed):
    _, record = create_service(testbed, n=3)
    assert len(record.nodes) == 1
    assert record.nodes[0].host.name == "seattle"
    assert record.nodes[0].units == 3


def test_figure2_placement_with_coexisting_honeypot(testbed):
    """Create honeypot first (as in §5), then web <3, M>: seattle can
    hold only 2 more inflated units, so the split is 2M + 1M — exactly
    Figure 2's layout."""
    create_service(testbed, name="honeypot", image="honeypot", n=1)
    _, record = create_service(testbed, name="web", n=3)
    placement = {n.host.name: n.units for n in record.nodes}
    assert placement == {"seattle": 2, "tacoma": 1}
    # Table 3 follows: capacities 2 and 1.
    caps = [d.capacity for d in record.switch.config.backends]
    assert caps == [2, 1]


def test_config_file_matches_nodes(testbed):
    _, record = create_service(testbed)
    config = record.switch.config
    assert config.total_capacity == 3
    rendered = config.render()
    for node in record.nodes:
        assert node.endpoint.ip in rendered


def test_nodes_get_distinct_ips_from_host_pools(testbed):
    create_service(testbed, name="honeypot", image="honeypot", n=1)
    _, record = create_service(testbed, name="web", n=3)
    ips = [n.source_ip for n in record.nodes]
    assert len(set(ips)) == len(ips)
    for node in record.nodes:
        assert testbed.daemons[node.host.name].ip_pool.contains(node.source_ip)


def test_priming_time_includes_download_and_boot(testbed):
    reply, record = create_service(testbed, n=1)
    # 29.3 MB download (~2.5 s) + S_I boot on seattle (~3 s).
    assert 4.0 < reply.primed_in_s < 8.0


def test_vm_running_with_entrypoint_process(testbed):
    _, record = create_service(testbed)
    vm = record.nodes[0].vm
    assert vm.is_running
    assert vm.processes.find_by_command("httpd_19_5")
    assert vm.ip is not None


def test_reservations_held_after_creation(testbed):
    _, record = create_service(testbed, n=3)
    seattle = testbed.hosts["seattle"]
    reserved = seattle.reservations.reserved
    assert reserved.cpu_mhz == pytest.approx(3 * 512 * 1.5)
    assert reserved.mem_mb == pytest.approx(3 * 256)


def test_traffic_shaper_installed_per_node(testbed):
    _, record = create_service(testbed, n=2)
    node = record.nodes[0]
    daemon = testbed.daemons[node.host.name]
    share = daemon.shaper.share_for(node.source_ip)
    assert share == pytest.approx(2 * 10.0 * 1.5)  # 2 units of inflated M.bw
    # Enforcement is off by default (the paper's shaper was in progress).
    assert daemon.shaper.cap_for(node.source_ip) is None
    daemon.shaper.enforced = True
    assert daemon.shaper.cap_for(node.source_ip) == share


def test_bridge_knows_each_node(testbed):
    create_service(testbed, name="honeypot", image="honeypot", n=1)
    _, record = create_service(testbed, name="web", n=3)
    for node in record.nodes:
        bridge = testbed.daemons[node.host.name].networking
        assert bridge.resolve(node.source_ip) is node.vm


def test_priming_pipeline_counted_once_per_stage(testbed):
    """One n=1 creation counts each priming stage once, on its host."""
    registry = MetricsRegistry()
    testbed.sim.metrics = registry
    _, record = create_service(testbed, n=1)
    host = record.nodes[0].host.name
    stages = ["slice_reserved", "image_downloaded", "rootfs_tailored",
              "guest_booted", "node_primed"]
    priming = registry.get("soda_daemon_priming_total")
    assert {labels: child.value for labels, child in priming.samples()} == {
        (host, stage): 1.0 for stage in stages
    }
    admissions = registry.get("soda_master_admissions_total")
    assert {labels: child.value for labels, child in admissions.samples()} == {
        ("admitted",): 1.0
    }


def test_admission_failure_when_hup_full(testbed):
    with pytest.raises(AdmissionError):
        create_service(testbed, name="huge", n=50)
    assert "huge" not in testbed.master.services
    # Nothing leaked: all reservations are back to zero.
    for host in testbed.hosts.values():
        assert host.reservations.n_live == 0


def test_bad_credentials_rejected_before_any_work(testbed):
    req = ResourceRequirement(n=1, machine=MachineConfig())
    with pytest.raises(AuthenticationError):
        testbed.run(
            testbed.agent.service_creation(
                Credentials("acme", "wrong-secret"), "web", testbed.repo,
                "web-content", req,
            )
        )
    assert testbed.now == 0.0  # failed before consuming simulated time


def test_unknown_image_rejected(testbed):
    with pytest.raises(InvalidRequestError, match="not published"):
        create_service(testbed, name="x", image="no-such-image")


def test_duplicate_service_name_rejected(testbed):
    create_service(testbed, name="web")
    with pytest.raises(InvalidRequestError, match="already hosted"):
        create_service(testbed, name="web", n=1)


def test_billing_started_on_creation(testbed):
    create_service(testbed, n=3)
    assert testbed.agent.ledger.n_open == 1
    hours = testbed.agent.ledger.machine_hours("web", now=testbed.now + 3600.0)
    assert hours == pytest.approx(3.0, rel=0.01)


def test_ownership_enforced_on_info(testbed):
    create_service(testbed)
    testbed.agent.register_asp("rival", "rivalsecret")
    with pytest.raises(AuthenticationError, match="does not own"):
        testbed.agent.service_info(Credentials("rival", "rivalsecret"), "web")


def test_unknown_service_query(testbed):
    with pytest.raises(ServiceNotFoundError):
        testbed.agent.service_info(testbed.creds, "ghost")


def test_parallel_priming_is_concurrent(testbed):
    """Two-host priming should take ~max of per-host times, not the sum."""
    create_service(testbed, name="honeypot", image="honeypot", n=1)
    start = testbed.now
    reply, record = create_service(testbed, name="web", n=3)
    assert len(record.nodes) == 2  # split across both hosts
    elapsed = reply.primed_in_s
    # Sequential would be > 12 s (two downloads + two boots); parallel
    # overlaps to roughly the slower host's download+boot.
    assert elapsed < 11.0


def test_state_machine_progression(testbed):
    _, record = create_service(testbed)
    assert record.state is ServiceState.RUNNING
    assert record.created_at is not None
    assert record.primed_at is not None
    assert record.primed_at > record.created_at
