"""Shared fixtures and scenario builders for the SLA-layer tests."""

import pytest

from repro.core import MachineConfig, ResourceRequirement, build_paper_testbed
from repro.core.auth import Credentials
from repro.image.profiles import make_s1_web_content
from repro.sim.rng import RandomStreams
from repro.sla import SLAContract, SLOMonitor
from repro.workload.clients import ClientPool
from repro.workload.replay import poisson_trace
from repro.workload.siege import Siege

# Load heavy enough to saturate one machine instance (~11 rps at the
# 0.25 MB dataset) so queues build and shedding thresholds are crossed.
SPIKE_RPS = 30.0
SPIKE_DURATION_S = 45.0
DATASET_MB = 0.25


@pytest.fixture
def testbed():
    """Paper testbed with the web image published and one ASP."""
    tb = build_paper_testbed(seed=7)
    repo = tb.add_repository()
    repo.publish(make_s1_web_content())
    tb.agent.register_asp("acme", "supersecret")
    tb.repo = repo
    tb.creds = Credentials("acme", "supersecret")
    return tb


def create_sla_service(tb, name, contract, n=1):
    """Create one contracted service; returns its ServiceRecord."""
    requirement = ResourceRequirement(n=n, machine=MachineConfig())
    tb.run(
        tb.agent.service_creation(
            tb.creds, name, tb.repo, "web-content", requirement, sla=contract
        ),
        name=f"create:{name}",
    )
    return tb.master.get_service(name)


def overload_tiers(seed, monitor_s=90.0, check_period_s=5.0):
    """Three contracted tiers under an identical load spike.

    Returns (testbed, {name: record}, {name: monitor}, {name: report}).
    Used by the shedding-order and determinism tests.
    """
    tb = build_paper_testbed(seed=seed)
    repo = tb.add_repository()
    repo.publish(make_s1_web_content())
    tb.agent.register_asp("acme", "supersecret")
    tb.repo = repo
    tb.creds = Credentials("acme", "supersecret")

    contracts = {
        "gold": SLAContract.gold(p95_s=0.5),
        "silver": SLAContract.silver(p95_s=1.5),
        "bronze": SLAContract.bronze(p95_s=5.0),
    }
    records, monitors = {}, {}
    for name, contract in contracts.items():
        records[name] = create_sla_service(tb, name, contract)
        monitor = SLOMonitor(tb.sim, name, contract, check_period_s=check_period_s)
        monitor.attach(records[name].switch)
        monitors[name] = monitor
        tb.spawn(monitor.run(monitor_s), name=f"slo:{name}")

    streams = RandomStreams(seed)
    clients = ClientPool(tb.lan, n=6)
    procs = {}
    for name in contracts:
        trace = poisson_trace(
            streams.spawn(f"load-{name}"), SPIKE_RPS, SPIKE_DURATION_S,
            dataset_mb=DATASET_MB,
        )
        siege = Siege(tb.sim, records[name].switch, clients)
        procs[name] = tb.spawn(siege.run_trace(trace), name=f"replay:{name}")
    reports = {name: tb.sim.run_until_process(proc) for name, proc in procs.items()}
    tb.sim.run()  # let the monitors finish their windows
    return tb, records, monitors, reports
