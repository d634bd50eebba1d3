"""End-to-end SLA acceptance: monitoring, shedding, escalation, billing.

One scenario exercises the whole subsystem — three contracted tiers
under an identical overload spike, a breach escalator wired from the
gold monitor into a real ReactiveAutoscaler, and penalty settlement
against the agent's ledger — and a double run asserts the entire
observable outcome is bit-identical for the same seed.
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
    compliance_summary,
)
from repro.workload.clients import ClientPool
from repro.workload.replay import poisson_trace
from repro.workload.siege import Siege
from tests.sla.conftest import DATASET_MB, SPIKE_DURATION_S, SPIKE_RPS


def run_sla_scenario(seed):
    """The full SLA story for one seed; returns a comparable digest."""
    tb = build_paper_testbed(seed=seed)
    repo = tb.add_repository()
    repo.publish(make_s1_web_content())
    tb.agent.register_asp("acme", "supersecret")
    creds = Credentials("acme", "supersecret")

    contracts = {
        "gold": SLAContract.gold(p95_s=0.5),
        "silver": SLAContract.silver(p95_s=1.5),
        "bronze": SLAContract.bronze(p95_s=5.0),
    }
    records, monitors = {}, {}
    for name, contract in contracts.items():
        requirement = ResourceRequirement(n=1, machine=MachineConfig())
        tb.run(
            tb.agent.service_creation(
                creds, name, repo, "web-content", requirement, sla=contract
            ),
            name=f"create:{name}",
        )
        records[name] = tb.master.get_service(name)
        monitor = SLOMonitor(tb.sim, name, contract, check_period_s=5.0)
        monitor.attach(records[name].switch)
        monitors[name] = monitor
        tb.spawn(monitor.run(90.0), name=f"slo:{name}")

    # Breach escalation into a real autoscaler on the gold tier.  The
    # latency target is deliberately loose so only the breach path can
    # trigger a resize.
    autoscaler = ReactiveAutoscaler(
        tb.sim, tb.agent, creds, "gold", repo,
        AutoscalerConfig(target_response_s=1000.0, min_units=1, max_units=2,
                         check_period_s=10.0),
    )
    BreachEscalator(autoscaler, sustained=2).wire(monitors["gold"])
    tb.spawn(autoscaler.run(90.0), name="autoscaler")

    streams = RandomStreams(seed)
    clients = ClientPool(tb.lan, n=6)
    for name in contracts:
        trace = poisson_trace(
            streams.spawn(f"load-{name}"), SPIKE_RPS, SPIKE_DURATION_S,
            dataset_mb=DATASET_MB,
        )
        tb.spawn(
            Siege(tb.sim, records[name].switch, clients).run_trace(trace),
            name=f"replay:{name}",
        )
    tb.sim.run()  # drain everything: replays, monitors, autoscaler

    settler = PenaltySettler(tb.agent.ledger)
    settlements = {
        name: settler.settle(
            name, "acme", contracts[name].penalties,
            monitors[name].violations, now=tb.now,
        )
        for name in contracts
    }
    summaries = {
        name: compliance_summary(monitors[name], "acme", tb.agent.ledger, tb.now)
        for name in contracts
    }
    digest = {
        "violations": {
            name: tuple(
                (v.time, v.kind, v.observed, v.limit) for v in monitors[name].violations
            )
            for name in contracts
        },
        "shed": {name: records[name].switch.shedded for name in contracts},
        "first_shed": {name: monitors[name].first_shed_time for name in contracts},
        "decisions": tuple(
            (d.time, d.from_units, d.to_units, d.reason) for d in autoscaler.decisions
        ),
        "credits": {name: settlements[name].credit for name in contracts},
        "gross": tb.agent.ledger.gross("acme", tb.now),
        "invoice": tb.agent.invoice(creds),
        "sla_credit": tb.agent.sla_credit(creds),
    }
    return tb, records, monitors, autoscaler, summaries, digest


def test_sla_end_to_end_acceptance():
    tb, records, monitors, autoscaler, summaries, digest = run_sla_scenario(seed=17)

    # 1. The overload produced at least one recorded violation.
    all_violations = [v for m in monitors.values() for v in m.violations]
    assert all_violations, "overload must breach at least one SLO"

    # 2. Class-priority shedding: bronze dropped first and most.
    assert digest["shed"]["bronze"] > 0
    assert digest["shed"]["bronze"] > digest["shed"]["gold"]
    if digest["first_shed"]["gold"] is not None:
        assert digest["first_shed"]["bronze"] < digest["first_shed"]["gold"]

    # 3. Sustained gold breaches reached the autoscaler and forced a resize.
    assert autoscaler.breach_resizes >= 1
    assert records["gold"].total_units == 2

    # 4. Settlement posted a nonzero credit, netted on the invoice.
    assert digest["sla_credit"] > 0.0
    assert digest["invoice"] < digest["gross"]
    assert digest["invoice"] == digest["gross"] - digest["sla_credit"]

    # 5. The compliance scorecards agree with the raw counters.
    for name, summary in summaries.items():
        assert summary.requests_shed == digest["shed"][name]
        assert summary.violations_total == len(monitors[name].violations)
        assert summary.net <= summary.gross


def test_sla_scenario_is_bit_identical_across_runs():
    _, _, _, _, _, first = run_sla_scenario(seed=17)
    _, _, _, _, _, second = run_sla_scenario(seed=17)
    # Full observable outcome — violation streams (times, kinds, observed
    # percentiles), shed counts, resize decisions, and money — must match
    # exactly, not approximately.
    assert first == second


def test_different_seed_perturbs_the_scenario():
    _, _, _, _, _, a = run_sla_scenario(seed=17)
    _, _, _, _, _, b = run_sla_scenario(seed=18)
    # Sanity check that the determinism test is not vacuous: another
    # seed yields a different arrival process, hence different outcomes.
    assert a["violations"] != b["violations"] or a["shed"] != b["shed"]
