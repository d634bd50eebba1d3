"""The chaos scenario: three SLA tiers served through a fault campaign.

One reusable harness shared by the ``ablation_faults`` experiment, the
chaos soak test, and the determinism guard.  It builds a three-host HUP
(WORST_FIT placement, so each tier's two replicas land on different
hosts), deploys gold/silver/bronze services with the full resilience
stack armed — capacity-aware shedding, switch retry/backoff with a
timeout budget, per-service health checkers, and node watchdogs — then
drives open-loop Poisson load through a seeded fault campaign and
accounts for every request: ``served + failed + shed == issued``.

Everything observable is folded into :meth:`ChaosReport.digest`, a
plain dict of exact numbers the determinism guard compares ``==``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import HUPTestbed, MachineConfig, PlacementStrategy, ResourceRequirement
from repro.core.auth import Credentials
from repro.core.recovery import NodeWatchdog
from repro.faults.health import SwitchHealthChecker
from repro.faults.injector import FaultInjector
from repro.faults.retry import BackoffPolicy
from repro.faults.schedule import FaultSchedule, seeded_campaign
from repro.host.machine import Host
from repro.image.profiles import make_s1_web_content
from repro.sla import SLAContract
from repro.sla.enforcement import ClassPriorityShedder
from repro.workload.apps import web_request
from repro.workload.clients import ClientPool
from repro.workload.ledger import ClassStats, RequestLedger

__all__ = ["ChaosReport", "run_chaos_scenario"]

CLASSES = ("gold", "silver", "bronze")

# How long the watchdogs/health checkers outlive the load window, so the
# last campaign fault is detected, rebooted and un-quarantined before
# the simulation drains.
TAIL_S = 15.0


@dataclass
class ChaosReport:
    """Everything observable about one chaos run."""

    seed: int
    duration_s: float
    window_s: float
    stats: Dict[str, ClassStats]
    #: (relative time, class name, "ok" | "failed" | "shed") per request.
    outcomes: Tuple[Tuple[float, str, str], ...]
    fault_log: Tuple[Tuple[float, str, str, str], ...]
    #: node name -> (detected_at, restored_at) per watchdog reboot.
    reboots: Dict[str, Tuple[Tuple[float, float], ...]]
    health_log: Dict[str, Tuple[Tuple[float, str, str], ...]]
    failovers: Dict[str, int]
    post_faults_ok: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def total_reboots(self) -> int:
        return sum(len(r) for r in self.reboots.values())

    def recovery_times(self) -> Tuple[float, ...]:
        return tuple(
            restored - detected
            for records in self.reboots.values()
            for detected, restored in records
        )

    def availability_timeline(self) -> Tuple[Tuple[float, float], ...]:
        """Per-window platform availability: (window start, ok fraction).

        Windows with no issued requests are skipped (the fluid model
        issues continuously, so in practice every window has traffic).
        """
        buckets: Dict[int, List[int]] = {}
        for time_rel, _cls, outcome in self.outcomes:
            index = int(time_rel // self.window_s)
            ok_total = buckets.setdefault(index, [0, 0])
            ok_total[1] += 1
            if outcome == "ok":
                ok_total[0] += 1
        return tuple(
            (index * self.window_s, ok / total)
            for index, (ok, total) in sorted(buckets.items())
            if total
        )

    def min_window_availability(self) -> float:
        timeline = self.availability_timeline()
        return min((fraction for _start, fraction in timeline), default=1.0)

    def digest(self) -> dict:
        """Exact-number digest for bit-identical comparison."""
        return {
            "seed": self.seed,
            "stats": {
                name: (s.issued, s.served, s.failed, s.shed, s.timeouts)
                for name, s in self.stats.items()
            },
            "outcomes": self.outcomes,
            "faults": self.fault_log,
            "reboots": self.reboots,
            "health": self.health_log,
            "failovers": self.failovers,
            "timeline": self.availability_timeline(),
            "post_faults_ok": self.post_faults_ok,
        }


def default_campaign(
    testbed: HUPTestbed, node_names: List[str], duration_s: float
) -> FaultSchedule:
    """The standard chaos campaign drawn from the testbed's seed."""
    return seeded_campaign(
        testbed.streams.spawn("chaos-campaign"),
        duration_s,
        node_names=node_names,
        host_names=list(testbed.hosts),
        n_crashes=4,
        n_stalls=1,
        stall_s=2.0,
        n_outages=1,
        outage_s=2.0,
        n_degrades=1,
        degrade_s=6.0,
        degrade_factor=0.3,
    )


def run_chaos_scenario(
    seed: int = 0,
    duration_s: float = 60.0,
    campaign: Optional[FaultSchedule] = None,
    with_faults: bool = True,
    rate_rps: float = 8.0,
    dataset_mb: float = 0.1,
    window_s: float = 5.0,
    request_timeout_s: float = 6.0,
) -> ChaosReport:
    """Run the chaos scenario once and account for every request.

    ``campaign=None`` with ``with_faults=True`` arms the seeded default
    campaign; ``with_faults=False`` runs the identical deployment and
    load with no faults at all (the ablation baseline).
    """
    for name, value in (
        ("duration_s", duration_s), ("rate_rps", rate_rps),
        ("window_s", window_s), ("request_timeout_s", request_timeout_s),
    ):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not (math.isfinite(dataset_mb) and dataset_mb >= 0):
        raise ValueError(f"dataset_mb must be finite and >= 0, got {dataset_mb}")
    tb = HUPTestbed(seed=seed, strategy=PlacementStrategy.WORST_FIT)
    for i in range(3):
        tb.add_host(
            Host(
                tb.sim, name=f"chaos{i}", cpu_mhz=2600.0, ram_mb=2048.0,
                disk_mb=60_000.0, disk_rate_mbs=50.0,
            )
        )
    tb.finalize()
    repo = tb.add_repository()
    repo.publish(make_s1_web_content())
    tb.agent.register_asp("acme", "supersecret")
    creds = Credentials("acme", "supersecret")

    contracts = {
        "gold": SLAContract.gold(p95_s=0.5),
        "silver": SLAContract.silver(p95_s=1.5),
        "bronze": SLAContract.bronze(p95_s=5.0),
    }
    records = {}
    watchdogs: Dict[str, NodeWatchdog] = {}
    checkers: Dict[str, SwitchHealthChecker] = {}
    for name, contract in contracts.items():
        requirement = ResourceRequirement(n=2, machine=MachineConfig())
        tb.run(
            tb.agent.service_creation(
                creds, name, repo, "web-content", requirement, sla=contract
            ),
            name=f"create:{name}",
        )
        record = tb.master.get_service(name)
        records[name] = record
        switch = record.switch
        # The resilience stack: degradation-aware shedding, retry with
        # capped backoff, a per-request budget, health quarantine, and
        # in-place reboot of crashed guests.
        switch.shedder = ClassPriorityShedder(
            contract.service_class, capacity_aware=True
        )
        switch.retry_policy = BackoffPolicy()
        switch.request_timeout_s = request_timeout_s
        watchdog = NodeWatchdog(tb.sim, record, poll_s=0.5)
        for host_name, daemon in tb.daemons.items():
            watchdog.attach_networking(host_name, daemon.networking)
        watchdogs[name] = watchdog
        tb.spawn(watchdog.watch(duration_s + TAIL_S), name=f"watchdog:{name}")
        checker = SwitchHealthChecker(
            tb.sim, switch, tb.lan, period_s=0.5, probe_timeout_s=0.4
        )
        checkers[name] = checker
        tb.spawn(checker.run(duration_s + TAIL_S), name=f"health:{name}")

    all_nodes = [node for record in records.values() for node in record.nodes]
    injector = FaultInjector(tb.sim, tb.lan, all_nodes)
    if with_faults and campaign is None:
        campaign = default_campaign(tb, [n.name for n in all_nodes], duration_s)
    if with_faults and campaign is not None and len(campaign):
        injector.arm(campaign)

    clients = ClientPool(tb.lan, n=6)
    load = tb.streams.spawn("chaos-load")
    ledger = RequestLedger(tb.sim, contracts)
    start = ledger.start
    stats = ledger.stats

    def one_request(name, switch):
        request = web_request(clients.next_client(), dataset_mb, label=name)
        yield from ledger.serve(name, switch, request)

    def drive(name, switch):
        deadline = start + duration_s
        stream = f"chaos-arrivals-{name}"
        while True:
            yield tb.sim.timeout(load.exponential(stream, 1.0 / rate_rps))
            if tb.now >= deadline:
                break
            stats[name].issued += 1
            tb.spawn(one_request(name, switch), name=f"req:{name}")

    for name in contracts:
        tb.spawn(drive(name, records[name].switch), name=f"drive:{name}")

    tb.sim.run()  # drain: drivers, requests, faults, watchdogs, checkers

    # Post-campaign probe: every tier must serve again after the last
    # watchdog reboot (part of the scenario, hence of the digest).
    post_before = len(ledger.outcomes)
    for name in contracts:
        stats[name].issued += 1
        tb.run(one_request(name, records[name].switch), name=f"post:{name}")
    post_ok = sum(
        1 for _t, _n, outcome in ledger.outcomes[post_before:] if outcome == "ok"
    )

    return ChaosReport(
        seed=seed,
        duration_s=duration_s,
        window_s=window_s,
        stats=stats,
        outcomes=tuple(ledger.outcomes),
        fault_log=tuple(injector.log),
        reboots={
            name: tuple(
                (r.detected_at - start, r.restored_at - start)
                for r in watchdogs[name].history
            )
            for name in contracts
        },
        health_log={name: tuple(checkers[name].log) for name in contracts},
        failovers={name: records[name].switch.failovers for name in contracts},
        post_faults_ok=post_ok,
    )
