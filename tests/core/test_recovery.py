"""Tests for crashed-node recovery (watchdog extension)."""

import math

import pytest

from repro.core import build_paper_testbed
from repro.core.auth import Credentials
from repro.core.node import Request
from repro.core.recovery import NodeWatchdog
from repro.guestos.syscall import SyscallMix
from repro.guestos.uml import UmlState
from repro.image.profiles import paper_profiles
from tests.core.conftest import create_service


def make_request(client):
    return Request(client=client, response_mb=0.1, mix=SyscallMix(1.0, 30))


def test_reboot_node_restores_service_in_place(testbed):
    _, record = create_service(testbed, name="web", n=1)
    node = record.nodes[0]
    old_vm = node.vm
    old_ip = node.source_ip
    host = node.host
    free_before = host.memory.free_mb
    node.vm.crash(cause="fault")
    testbed.run(node.daemon.reboot_node(node))
    assert node.vm is not old_vm
    assert node.vm.is_running
    assert node.source_ip == old_ip
    assert node.vm.processes.find_by_command("httpd_19_5")  # entrypoint back
    assert host.memory.free_mb == pytest.approx(free_before)
    # And it serves again.
    client = testbed.add_client("c1")
    response = testbed.run(record.switch.serve(make_request(client)))
    assert response.elapsed > 0


def test_reboot_updates_bridge_mapping(testbed):
    _, record = create_service(testbed, name="web", n=1)
    node = record.nodes[0]
    bridge = testbed.daemons[node.host.name].networking
    node.vm.crash()
    testbed.run(testbed.daemons[node.host.name].reboot_node(node))
    assert bridge.resolve(node.source_ip) is node.vm


def _proxy_testbed():
    tb = build_paper_testbed(seed=42, proxy_mode=True)
    tb.repo = tb.add_repository()
    for image in paper_profiles().values():
        tb.repo.publish(image)
    tb.agent.register_asp("acme", "supersecret")
    tb.creds = Credentials("acme", "supersecret")
    return tb


def _crash_under_watchdog(tb, record):
    watchdog = NodeWatchdog(tb.sim, record, poll_s=0.5)
    watch_proc = tb.spawn(watchdog.watch(10.0))

    def crash_later(sim):
        yield sim.timeout(2.0)
        for node in record.nodes:
            node.vm.crash(cause="fault")

    tb.spawn(crash_later(tb.sim))
    tb.sim.run_until_process(watch_proc)
    return watchdog


def test_watchdog_reboot_repoints_bridge(testbed):
    """No wiring: the daemon that primed the node repoints its bridge."""
    _, record = create_service(testbed, name="web", n=4)
    old_vms = [node.vm for node in record.nodes]
    watchdog = _crash_under_watchdog(testbed, record)
    assert watchdog.reboots == len(record.nodes) == 2
    for node, old_vm in zip(record.nodes, old_vms):
        bridge = testbed.daemons[node.host.name].networking
        assert node.vm is not old_vm
        assert bridge.resolve(node.source_ip) is node.vm


def test_watchdog_reboot_repoints_proxy():
    tb = _proxy_testbed()
    _, record = create_service(tb, name="web", n=4)
    old_vms = [node.vm for node in record.nodes]
    watchdog = _crash_under_watchdog(tb, record)
    assert watchdog.reboots == 2
    for node, old_vm in zip(record.nodes, old_vms):
        proxy = tb.daemons[node.host.name].networking
        assert node.vm is not old_vm
        assert proxy.resolve(node.endpoint.port) is node.vm
        assert proxy.n_nodes == 1
    response = tb.run(record.switch.serve(make_request(tb.add_client("c1"))))
    assert response.elapsed > 0


def test_reboot_of_node_torn_down_mid_boot_returns_nothing(testbed):
    """A teardown while the fresh guest boots leaves no guest, no memory
    and no bridge entry behind."""
    free_before = {name: h.memory.free_mb for name, h in testbed.hosts.items()}
    _, record = create_service(testbed, name="web", n=1)
    node = record.nodes[0]
    daemon = node.daemon
    node.vm.crash(cause="fault")
    reboot = testbed.spawn(daemon.reboot_node(node))
    testbed.run(testbed.agent.service_teardown(testbed.creds, "web"))
    assert not reboot.triggered
    fresh = testbed.sim.run_until_process(reboot)
    assert fresh.state is UmlState.STOPPED
    free_after = {name: h.memory.free_mb for name, h in testbed.hosts.items()}
    assert free_after == pytest.approx(free_before)
    assert daemon.networking.n_nodes == 0
    assert daemon.ip_pool.n_allocated == 0


def test_watchdog_recovers_crashed_node(testbed):
    _, record = create_service(testbed, name="web", n=1)
    node = record.nodes[0]
    watchdog = NodeWatchdog(testbed.sim, record, poll_s=0.5)
    watch_proc = testbed.spawn(watchdog.watch(60.0))

    def crash_later(sim):
        yield sim.timeout(5.0)
        node.vm.crash(cause="fault")

    testbed.spawn(crash_later(testbed.sim))
    testbed.sim.run_until_process(watch_proc)
    assert watchdog.crashes_detected == 1
    assert watchdog.reboots == 1
    assert node.vm.is_running


def test_watchdog_handles_repeated_crashes(testbed):
    _, record = create_service(testbed, name="honeypot", image="honeypot", n=1)
    node = record.nodes[0]
    watchdog = NodeWatchdog(testbed.sim, record, poll_s=0.5)
    watch_proc = testbed.spawn(watchdog.watch(120.0))

    def keep_crashing(sim):
        for _ in range(3):
            yield sim.timeout(15.0)
            if node.vm.is_running:
                node.vm.crash(cause="attack")

    testbed.spawn(keep_crashing(testbed.sim))
    testbed.sim.run_until_process(watch_proc)
    assert watchdog.reboots == 3
    assert node.vm.is_running


def test_watchdog_ignores_torn_down_nodes(testbed):
    _, record = create_service(testbed, name="web", n=1)
    watchdog = NodeWatchdog(testbed.sim, record, poll_s=0.5)
    watch_proc = testbed.spawn(watchdog.watch(5.0))
    testbed.run(testbed.agent.service_teardown(testbed.creds, "web"))
    testbed.sim.run_until_process(watch_proc)
    assert watchdog.reboots == 0


def test_crashed_node_gets_no_dispatches_until_rebooted(testbed):
    """The switch must skip a crashed node entirely until its in-place
    reboot completes, then resume dispatching to it."""
    # n=4 spans both hosts: two virtual service nodes behind the switch.
    _, record = create_service(testbed, name="web", n=4)
    assert len(record.nodes) == 2
    healthy, crashed = record.nodes[0], record.nodes[1]
    client = testbed.add_client("c1")

    crashed.vm.crash(cause="fault")
    frozen = record.switch.per_node_count[crashed.name]
    for _ in range(6):
        testbed.run(record.switch.serve(make_request(client)))
    # Every dispatch during the outage went to the surviving node.
    assert record.switch.per_node_count[crashed.name] == frozen
    assert record.switch.per_node_count[healthy.name] >= 6

    testbed.run(crashed.daemon.reboot_node(crashed))
    assert crashed.is_available
    for _ in range(6):
        testbed.run(record.switch.serve(make_request(client)))
    # Dispatches reach the rebooted node again.
    assert record.switch.per_node_count[crashed.name] > frozen


def test_watchdog_validation(testbed):
    _, record = create_service(testbed, name="web", n=1)
    with pytest.raises(ValueError):
        NodeWatchdog(testbed.sim, record, poll_s=0)
    watchdog = NodeWatchdog(testbed.sim, record)
    with pytest.raises(ValueError):
        testbed.run(watchdog.watch(0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_watchdog_rejects_non_finite_poll(testbed, bad):
    _, record = create_service(testbed, name="web", n=1)
    with pytest.raises(ValueError, match="positive and finite"):
        NodeWatchdog(testbed.sim, record, poll_s=bad)
