"""Tests for crashed-node recovery (watchdog extension)."""

import math

import pytest

from repro.core.node import Request
from repro.core.recovery import NodeWatchdog, reboot_node
from repro.guestos.syscall import SyscallMix
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
    testbed.run(reboot_node(testbed.sim, node))
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
    testbed.run(reboot_node(testbed.sim, node, networking=bridge))
    assert bridge.resolve(node.source_ip) is node.vm


def test_watchdog_recovers_crashed_node(testbed):
    _, record = create_service(testbed, name="web", n=1)
    node = record.nodes[0]
    watchdog = NodeWatchdog(testbed.sim, record, poll_s=0.5)
    watchdog.attach_networking("seattle", testbed.daemons["seattle"].networking)
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

    testbed.run(reboot_node(testbed.sim, crashed))
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
