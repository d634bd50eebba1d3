"""Run a compiled scenario against the simulated HUP.

``run_scenario(spec, seed, policy)`` deploys one web-content service
per tenant load on the paper testbed (§4: *seattle* + *tacoma*),
replays each tenant's compiled arrival trace against its service
switch, and accounts for every request — ``served + failed + shed ==
issued`` holds for every tenant in every run (the conservation
invariant the property suite pins).

Policy arms (the matrix dimension of the ``scenario-matrix``
experiment):

* ``fcfs`` — the paper's behaviour: no SLA, no shedding, first come
  first served at every switch.
* ``sla`` — each service carries the SLA contract of its load's class
  (gold/silver/bronze) and a capacity-aware
  :class:`~repro.sla.enforcement.ClassPriorityShedder`, so bronze sheds
  first under pressure.
* ``market`` — a spot gate in front of every switch: a
  :class:`~repro.market.pricing.SpotPricer` reprices platform capacity
  from master utilization on a seeded cadence, each tenant carries a
  bid drawn (by class) from the ``scenario:<name>:bids`` stream, and a
  request whose tenant is priced out (bid < spot rate at arrival) is
  shed at the gate without entering the switch.

Background arms: ``background_hosts > 0`` attaches an aggregated fluid
fleet (:meth:`~repro.core.api.HUPTestbed.add_fluid_fleet`) for the
scenario's duration.  Fluid clusters own their own LAN segments and
``fluid:*`` streams, so the focus digest is bit-identical with the
fleet attached or not — the hybrid-fidelity contract, re-checked by a
``scenario-matrix`` comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional, Tuple

from repro.core import MachineConfig, ResourceRequirement, build_paper_testbed
from repro.core.auth import Credentials
from repro.image.profiles import paper_profiles
from repro.market.pricing import PricingParams, SpotPricer
from repro.scenario.compile import CompiledScenario, compile_scenario
from repro.scenario.spec import ScenarioSpec
from repro.sim.kernel import Event
from repro.sla import SLAContract
from repro.sla.enforcement import ClassPriorityShedder
from repro.workload.apps import web_request
from repro.workload.clients import ClientPool
from repro.workload.ledger import ClassStats, RequestLedger

__all__ = ["POLICIES", "ScenarioReport", "run_scenario"]

POLICIES = ("fcfs", "sla", "market")

#: Nodes per tenant service and client machines on the LAN.
NODES_PER_SERVICE = 1
N_CLIENTS = 4

_CONTRACTS = {
    "gold": lambda: SLAContract.gold(p95_s=0.5),
    "silver": lambda: SLAContract.silver(p95_s=1.5),
    "bronze": lambda: SLAContract.bronze(p95_s=5.0),
}

#: Per-class spot bid ranges ($/machine-hour) for the market gate.
_BID_RANGES = {"gold": (1.5, 4.0), "silver": (0.8, 2.0), "bronze": (0.3, 1.0)}


@dataclass
class ScenarioReport:
    """Everything observable about one scenario run."""

    scenario: str
    seed: int
    policy: str
    compiled_sha: str
    stats: Dict[str, ClassStats] = field(default_factory=dict)
    #: (relative time, tenant, "ok" | "failed" | "shed") per request.
    outcomes: Tuple[Tuple[float, str, str], ...] = ()
    #: tenant -> (sum of response times, max response time), exact floats.
    response_s: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: spot (time, utilization, rate) ticks; empty off the market arm.
    price_history: Tuple[Tuple[float, float, float], ...] = ()
    priced_out: int = 0
    background_hosts: int = 0
    finished_at: float = 0.0

    @property
    def issued(self) -> int:
        return sum(s.issued for s in self.stats.values())

    @property
    def served(self) -> int:
        return sum(s.served for s in self.stats.values())

    def conservation_holds(self) -> bool:
        return all(s.accounted == s.issued for s in self.stats.values())

    def mean_response_s(self, tenant: str) -> float:
        total, _peak = self.response_s.get(tenant, (0.0, 0.0))
        count = self.stats[tenant].served
        return total / count if count else 0.0

    def digest(self) -> dict:
        """Exact-float digest for the determinism guard (``==`` only)."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "policy": self.policy,
            "compiled": self.compiled_sha,
            "stats": {
                name: (s.issued, s.served, s.failed, s.shed)
                for name, s in sorted(self.stats.items())
            },
            "outcomes": self.outcomes,
            "response_s": dict(sorted(self.response_s.items())),
            "prices": self.price_history,
            "priced_out": self.priced_out,
            "finished_at": self.finished_at,
        }


def run_scenario(
    spec: ScenarioSpec,
    seed: int = 0,
    policy: str = "fcfs",
    compiled: Optional[CompiledScenario] = None,
    background_hosts: int = 0,
) -> ScenarioReport:
    """Compile (unless given) and run one scenario cell to completion."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; known: {POLICIES}")
    if compiled is None:
        compiled = compile_scenario(spec, seed)
    elif compiled.spec != spec or compiled.seed != seed:
        raise ValueError("compiled scenario does not match (spec, seed)")

    tb = build_paper_testbed(seed=seed)
    repo = tb.add_repository()
    for image in paper_profiles().values():
        repo.publish(image)
    tb.agent.register_asp("scenario-asp", "scenario-secret")
    creds = Credentials("scenario-asp", "scenario-secret")

    switches = {}
    for load in spec.loads:
        contract = _CONTRACTS[load.sla_class]() if policy == "sla" else None
        requirement = ResourceRequirement(
            n=NODES_PER_SERVICE, machine=MachineConfig()
        )
        tb.run(
            tb.agent.service_creation(
                creds, load.tenant, repo, "web-content", requirement, sla=contract
            ),
            name=f"create:{load.tenant}",
        )
        record = tb.master.get_service(load.tenant)
        record.switch.tenant = load.tenant
        if policy == "sla":
            record.switch.shedder = ClassPriorityShedder(
                contract.service_class, capacity_aware=True
            )
        switches[load.tenant] = record.switch

    # The market arm: a spot gate priced from platform utilization.
    pricer: Optional[SpotPricer] = None
    bids: Dict[str, float] = {}
    if policy == "market":
        pricer = SpotPricer(
            PricingParams(interval_s=max(1.0, spec.duration_s / 30.0)),
            streams=tb.streams,
            utilization_fn=tb.master.utilization,
        )
        bid_stream = f"scenario:{spec.name}:bids"
        for load in spec.loads:  # declared order: draw sequence is part of the seed
            low, high = _BID_RANGES[load.sla_class]
            bids[load.tenant] = tb.streams.uniform(bid_stream, low, high)
        tb.spawn(pricer.run(tb.sim, spec.duration_s), name="scenario-spot")

    clients = ClientPool(tb.lan, n=N_CLIENTS)
    if background_hosts > 0:
        fleet = tb.add_fluid_fleet(
            n_hosts=background_hosts,
            n_clusters=max(1, min(4, background_hosts // 25)),
        )
        fleet.start(spec.duration_s)

    ledger = RequestLedger(tb.sim, [load.tenant for load in spec.loads])
    report = ScenarioReport(
        scenario=spec.name,
        seed=seed,
        policy=policy,
        compiled_sha=compiled.digest_sha(),
        stats=ledger.stats,
        background_hosts=background_hosts,
    )
    start = ledger.start

    def one_request(tenant: str, size_mb: float) -> Generator[Event, Any, None]:
        if pricer is not None and bids[tenant] < pricer.rate:
            report.priced_out += 1
            ledger.shed(tenant)
            return
        request = web_request(clients.next_client(), size_mb, label=tenant)
        yield from ledger.serve(tenant, switches[tenant], request)

    def drive(tenant: str) -> Generator[Event, Any, None]:
        for offset, size_mb in compiled.trace_of(tenant).arrivals:
            gap = start + offset - tb.now
            if gap > 0:
                yield tb.sim.timeout(gap)
            ledger.stats[tenant].issued += 1
            tb.spawn(one_request(tenant, size_mb), name=f"req:{tenant}")

    for load in spec.loads:
        tb.spawn(drive(load.tenant), name=f"drive:{load.tenant}")

    tb.sim.run()  # drain: drivers, requests, the pricer, the fleet

    report.outcomes = tuple(ledger.outcomes)
    report.response_s = {
        tenant: (totals[0], totals[1]) for tenant, totals in ledger.response_s.items()
    }
    if pricer is not None:
        report.price_history = tuple(pricer.history)
    # Focus clock, not drain clock: a background fleet (or the pricer)
    # may outlive the last focus request, and the hybrid-fidelity
    # contract promises the *focus* digest is fleet-independent.
    report.finished_at = max((t for t, _tenant, _o in ledger.outcomes), default=0.0)
    return report
