"""NodeWatchdog regressions: inflight reboots, crash storms, SLA credit.

These pin the interactions the chaos campaign exercises statistically:
a reboot happening while a request is inflight, every replica down at
once, and watchdog-visible downtime flowing through the SLO monitor
into a billing credit.
"""

import pytest

from repro.core.node import ServiceUnavailableError
from repro.core.recovery import NodeWatchdog
from repro.guestos.uml import UmlState
from repro.sla import PenaltySettler, SLAContract, SLOMonitor
from repro.workload.apps import web_request
from repro.workload.clients import ClientPool

from tests.core.conftest import create_service
from tests.faults.conftest import _three_host_testbed
from tests.faults.conftest import create_service as create_spread_service


def _clients(tb, n=2):
    if not hasattr(tb, "_test_clients"):
        tb._test_clients = ClientPool(tb.lan, n=n)
    return tb._test_clients


def _watch(tb, record, duration_s, poll_s=0.25):
    watchdog = NodeWatchdog(tb.sim, record, poll_s=poll_s)
    tb.spawn(watchdog.watch(duration_s), name="watchdog")
    return watchdog


def test_reboot_during_inflight_request(testbed):
    """A crash (and watchdog reboot) mid-request must not wedge anything.

    The inflight request rides out the guest replacement — the fluid
    model finishes the work the old guest started — and the *next*
    request is served by the fresh guest.
    """
    tb = testbed
    _reply, record = create_service(tb, n=1)
    node = record.nodes[0]
    original_vm = node.vm
    watchdog = _watch(tb, record, 30.0)

    outcome = {}

    def one_request():
        request = web_request(_clients(tb).next_client(), 0.5)
        try:
            response = yield from record.switch.serve(request)
        except ServiceUnavailableError:
            outcome["result"] = "failed"
        else:
            outcome["result"] = "ok"
            outcome["node"] = response.node_name

    def crash_mid_flight():
        yield tb.sim.timeout(0.01)  # after dispatch, inside service
        node.vm.crash(cause="mid-flight")

    tb.spawn(one_request(), name="req")
    tb.spawn(crash_mid_flight(), name="crash")
    tb.sim.run()

    assert outcome["result"] == "ok"  # the inflight request completed
    assert watchdog.reboots == 1
    assert node.vm is not original_vm  # fresh guest, in place
    assert node.vm.state is UmlState.RUNNING
    assert node.vm.ip == original_vm.ip  # endpoint identity preserved
    # And the restored node serves again.
    response = tb.run(
        record.switch.serve(web_request(_clients(tb).next_client(), 0.02)),
        name="post",
    )
    assert response.node_name == node.name


def test_crash_storm_all_replicas_down_then_recovering():
    """Every replica crashes at once; the watchdog restores all of them."""
    tb = _three_host_testbed()
    record = create_spread_service(tb, n=3)
    assert len(record.nodes) == 3
    watchdog = _watch(tb, record, 40.0)

    def storm():
        yield tb.sim.timeout(1.0)
        for node in record.nodes:
            node.vm.crash(cause="storm")

    tb.spawn(storm(), name="storm")
    # Mid-storm, the service is entirely dark.
    probe = {}

    def probe_dark():
        yield tb.sim.timeout(1.1)
        probe["dark"] = all(not node.is_available for node in record.nodes)

    tb.spawn(probe_dark(), name="probe")
    tb.sim.run()

    assert probe["dark"]
    assert watchdog.crashes_detected == 3
    assert watchdog.reboots == 3
    assert len(watchdog.history) == 3
    for rec in watchdog.history:
        assert rec.recovery_s > 0.0
    for node in record.nodes:
        assert node.vm.state is UmlState.RUNNING
    response = tb.run(
        record.switch.serve(web_request(_clients(tb).next_client(), 0.02)),
        name="post",
    )
    assert response.node_name in {n.name for n in record.nodes}


def test_watchdog_downtime_earns_sla_breach_credit(testbed):
    """Downtime the watchdog repairs still breaches the availability SLO.

    The reboot restores service but the failed requests during the
    outage window push availability below gold's 0.99 floor; settlement
    must post a nonzero credit against the ledger.
    """
    tb = testbed
    contract = SLAContract.gold(p95_s=5.0)  # loose latency: availability only
    record = create_spread_service(tb, n=1, sla=contract)
    node = record.nodes[0]
    monitor = SLOMonitor(tb.sim, "web", contract, check_period_s=5.0)
    monitor.attach(record.switch)
    tb.spawn(monitor.run(40.0), name="slo")
    watchdog = _watch(tb, record, 40.0, poll_s=1.0)

    def drive():
        for _ in range(150):
            yield tb.sim.timeout(0.2)
            tb.spawn(one_request(), name="req")

    def one_request():
        request = web_request(_clients(tb).next_client(), 0.02)
        try:
            yield from record.switch.serve(request)
        except ServiceUnavailableError:
            pass  # counted by the monitor as offered-but-not-ok

    def crash():
        yield tb.sim.timeout(5.0)
        node.vm.crash(cause="outage")

    tb.spawn(drive(), name="drive")
    tb.spawn(crash(), name="crash")
    tb.sim.run()

    assert watchdog.reboots == 1
    breaches = [v for v in monitor.violations if v.kind == "availability"]
    assert breaches, "downtime must breach the availability floor"
    settlement = PenaltySettler(tb.agent.ledger).settle(
        "web", "acme", contract.penalties, monitor.violations, now=tb.now
    )
    assert settlement.credit > 0.0
    assert tb.agent.sla_credit(tb.creds) > 0.0
