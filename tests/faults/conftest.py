"""Shared fixtures for the fault-injection tests."""

import pytest

from repro.core import PlacementStrategy, build_paper_testbed
from repro.core.auth import Credentials
from repro.image.profiles import paper_profiles


def _prepared_testbed(strategy=PlacementStrategy.FIRST_FIT):
    tb = build_paper_testbed(seed=42, strategy=strategy)
    repo = tb.add_repository()
    for image in paper_profiles().values():
        repo.publish(image)
    tb.agent.register_asp("acme", "supersecret")
    tb.repo = repo
    tb.creds = Credentials("acme", "supersecret")
    return tb


@pytest.fixture
def testbed():
    """The paper testbed with all images published and one ASP."""
    return _prepared_testbed()


def _three_host_testbed(seed=42):
    """Three equal hosts + WORST_FIT: replicated services span hosts.

    The paper pair (seattle/tacoma) is too asymmetric for WORST_FIT to
    spread a default-config service, so multi-replica fault tests use
    the same layout as the chaos harness.
    """
    from repro.core import HUPTestbed
    from repro.host.machine import Host

    tb = HUPTestbed(seed=seed, strategy=PlacementStrategy.WORST_FIT)
    for i in range(3):
        tb.add_host(
            Host(
                tb.sim, name=f"h{i}", cpu_mhz=2600.0, ram_mb=2048.0,
                disk_mb=60_000.0, disk_rate_mbs=50.0,
            )
        )
    tb.finalize()
    repo = tb.add_repository()
    for image in paper_profiles().values():
        repo.publish(image)
    tb.agent.register_asp("acme", "supersecret")
    tb.repo = repo
    tb.creds = Credentials("acme", "supersecret")
    return tb


@pytest.fixture
def spread_testbed():
    """Three-equal-host testbed whose services get one node per host."""
    return _three_host_testbed()


def create_service(tb, name="web", image="web-content", n=2, sla=None):
    """Create a service on the fixture testbed; returns its ServiceRecord."""
    from repro.core import MachineConfig, ResourceRequirement

    req = ResourceRequirement(n=n, machine=MachineConfig())
    tb.run(
        tb.agent.service_creation(tb.creds, name, tb.repo, image, req, sla=sla),
        name=f"create:{name}",
    )
    return tb.master.get_service(name)


def serve_through_queued_crash(tb, record, request):
    """Serve one request that dies queued on one replica, then fails over.

    Node A's worker is held so the request queues there; A crashes
    while the request is queued ("died while queued"), and B — which
    was quarantined at dispatch time and is restored mid-backoff —
    serves the retry.  Needs a retry policy on the switch.
    """
    switch = record.switch
    node_a, node_b = record.nodes
    switch.quarantine(node_b)

    def hold_then_crash():
        slot = node_a.workers.request()
        yield slot
        yield tb.sim.timeout(0.1)
        node_a.vm.crash(cause="test")
        yield tb.sim.timeout(0.2)
        node_a.workers.release(slot)

    def restore_b():
        yield tb.sim.timeout(0.5)
        switch.unquarantine(node_b)

    tb.spawn(hold_then_crash(), name="holder")
    tb.spawn(restore_b(), name="restore")
    return tb.run(switch.serve(request), name="req")
