#!/usr/bin/env python
"""Three SLA tiers under a load spike: shedding, breach, credit.

One ASP hosts the same web content service three times — under gold,
silver, and bronze contracts — and fires an identical overload spike at
each.  Watch the SLA subsystem work end to end:

* class-priority shedding drops bronze traffic first, then silver,
  keeping gold's backlog (and latency) the flattest;
* gold's SLO monitor still records breaches during the spike, and a
  breach escalator turns them into a real SODA_service_resizing call;
* at settlement the violations become billing credits, and the invoice
  nets accrual minus credits.

Run:  python examples/sla_tiers.py
"""

from repro.core import MachineConfig, ResourceRequirement, build_paper_testbed
from repro.core.auth import Credentials
from repro.core.autoscaler import AutoscalerConfig, ReactiveAutoscaler
from repro.image.profiles import make_s1_web_content
from repro.sim.rng import RandomStreams
from repro.sla import (
    BreachEscalator,
    PenaltySettler,
    SLAContract,
    SLOMonitor,
    compliance_result,
    compliance_summary,
)
from repro.workload.clients import ClientPool
from repro.workload.replay import poisson_trace
from repro.workload.siege import Siege

SPIKE_RPS = 30.0        # ~3x one machine instance's capacity
SPIKE_DURATION_S = 45.0
DATASET_MB = 0.25
MONITOR_S = 90.0

# -- one service per tier, each with a contract ---------------------------------
testbed = build_paper_testbed(seed=17)
repo = testbed.add_repository()
repo.publish(make_s1_web_content())
testbed.agent.register_asp("acme", "supersecret")
creds = Credentials("acme", "supersecret")

contracts = {
    "gold": SLAContract.gold(p95_s=0.5),
    "silver": SLAContract.silver(p95_s=1.5),
    "bronze": SLAContract.bronze(p95_s=5.0),
}
records, monitors = {}, {}
for name, contract in contracts.items():
    testbed.run(
        testbed.agent.service_creation(
            creds, name, repo, "web-content",
            ResourceRequirement(n=1, machine=MachineConfig()), sla=contract,
        )
    )
    records[name] = testbed.master.get_service(name)
    monitors[name] = SLOMonitor(testbed.sim, name, contract, check_period_s=5.0)
    monitors[name].attach(records[name].switch)
    testbed.spawn(monitors[name].run(MONITOR_S), name=f"slo:{name}")
    objectives = ", ".join(str(o) for o in contract.latency)
    print(f"{name:>6}: {objectives}; shed limit "
          f"{records[name].switch.shedder.queue_limit} queued requests")

# -- sustained gold breaches force capacity, not just credits -------------------
autoscaler = ReactiveAutoscaler(
    testbed.sim, testbed.agent, creds, "gold", repo,
    AutoscalerConfig(target_response_s=1000.0, min_units=1, max_units=2,
                     check_period_s=10.0),
)
BreachEscalator(autoscaler, sustained=2).wire(monitors["gold"])
testbed.spawn(autoscaler.run(MONITOR_S), name="autoscaler")

# -- the identical spike against every tier -------------------------------------
streams = RandomStreams(17)
clients = ClientPool(testbed.lan, n=6)
for name in contracts:
    trace = poisson_trace(
        streams.spawn(f"load-{name}"), SPIKE_RPS, SPIKE_DURATION_S,
        dataset_mb=DATASET_MB,
    )
    testbed.spawn(
        Siege(testbed.sim, records[name].switch, clients).run_trace(trace),
        name=f"replay:{name}",
    )
testbed.sim.run()

# -- what shedding did -----------------------------------------------------------
print(f"\nspike: {SPIKE_RPS:.0f} req/s for {SPIKE_DURATION_S:.0f} s at each tier")
for name in ("bronze", "silver", "gold"):
    monitor = monitors[name]
    first = monitor.first_shed_time
    when = f"first at t={first:.1f}s" if first is not None else "never"
    print(f"{name:>6}: shed {monitor.total_shed:4d} of "
          f"{monitor.total_requests} requests ({when}); "
          f"{len(monitor.violations)} SLO violations")

print(f"\ngold breaches escalated: {autoscaler.breach_resizes} resize(s)")
for decision in autoscaler.decisions:
    print(f"  t={decision.time:5.1f}s  {decision.from_units}M -> "
          f"{decision.to_units}M ({decision.reason})")

# -- settlement: violations become credits, netted on the invoice ----------------
settler = PenaltySettler(testbed.agent.ledger)
for name, contract in contracts.items():
    settlement = settler.settle(
        name, "acme", contract.penalties, monitors[name].violations,
        now=testbed.now,
    )
    if settlement.credit > 0:
        capped = " (capped)" if settlement.capped else ""
        print(f"{name:>6}: {settlement.n_violations} violations -> "
              f"credit {settlement.credit:.4f}{capped}")

gross = testbed.agent.ledger.gross("acme", testbed.now)
credit = testbed.agent.sla_credit(creds)
invoice = testbed.agent.invoice(creds)
print(f"\ninvoice: gross {gross:.4f} - SLA credits {credit:.4f} "
      f"= {invoice:.4f}")

summaries = [
    compliance_summary(monitors[name], "acme", testbed.agent.ledger, testbed.now)
    for name in ("gold", "silver", "bronze")
]
print("\n" + compliance_result(summaries).render())
