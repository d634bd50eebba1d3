"""Market contention scenario: hundreds of tenants bid for one pool.

This is the harness behind ``ablation-market``, the market property
tests, and the determinism guard.  It runs a seeded, sim-clock-driven
economy over a shared capacity pool:

* a tenant population (budgets, bids, SLA classes) drawn from named
  streams disjoint from the load streams;
* bursty demand — a modulated Poisson arrival process that flips
  between calm and burst episodes, so contention comes in waves;
* an admission policy (:class:`~repro.market.admission.EconomicAdmission`
  spot-priced, or :class:`~repro.market.admission.FCFSAdmission` flat)
  deciding admit / queue / reject per request;
* a waiting queue drained in the policy's order (highest bid first for
  the market, FIFO for the baseline) whenever capacity frees or the
  price moves, with per-request patience;
* outbid preemption (market only): when the spot price climbs above a
  holding's bid, the holding is evicted at that instant — the spot
  contract every cloud provider sells;
* real billing through a :class:`~repro.core.billing.BillingLedger`
  (spot segments split at each repricing) and real SLA settlement
  through :func:`repro.sla.penalties.credit_for_violations`.

Every run satisfies, by construction, the invariants the acceptance
tests pin: per-tenant ``spent + committed <= budget`` at all times
(two-phase commit at the bid-rate worst case), platform ``revenue ==
gross - credits``, and conservation ``admitted + rejected + queued ==
requested``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.core.billing import BillingLedger
from repro.market.admission import (
    ADMITTED,
    QUEUED,
    EconomicAdmission,
    FCFSAdmission,
)
from repro.market.fairness import FairnessAccountant
from repro.market.pricing import PricingParams, SpotPricer
from repro.market.tenant import Tenant, TenantRegistry
from repro.sim.kernel import Event, Simulator
from repro.sim.rng import RandomStreams
from repro.sla.contract import ServiceClass, SLAContract
from repro.sla.penalties import credit_for_violations

__all__ = ["ScenarioParams", "MarketReport", "run_market_scenario"]

#: Named streams for the market scenario (disjoint from workload streams).
TENANT_STREAM = "market-tenants"
ARRIVAL_STREAM = "market-arrivals"
DEMAND_STREAM = "market-demand"
BURST_STREAM = "market-bursts"

_CLASS_PRESETS = {
    ServiceClass.GOLD: SLAContract.gold,
    ServiceClass.SILVER: SLAContract.silver,
    ServiceClass.BRONZE: SLAContract.bronze,
}

#: (class, probability weight, (bid low, bid high), (budget low, budget high))
_TENANT_MIX: Tuple[tuple, ...] = (
    (ServiceClass.GOLD, 0.2, (1.5, 4.0), (0.6, 2.0)),
    (ServiceClass.SILVER, 0.3, (0.8, 2.0), (0.3, 1.2)),
    (ServiceClass.BRONZE, 0.5, (0.3, 1.0), (0.1, 0.6)),
)


@dataclass(frozen=True)
class ScenarioParams:
    """Knobs of one market run (defaults give sustained contention)."""

    n_tenants: int = 200
    capacity_units: int = 240
    duration_s: float = 600.0
    mean_hold_s: float = 60.0
    max_units: int = 4
    #: Offered load as a multiple of capacity (>1 forces contention).
    load_factor: float = 1.5
    burst_factor: float = 3.0
    mean_calm_s: float = 60.0
    mean_burst_s: float = 20.0
    patience_s: float = 30.0
    pricing: PricingParams = PricingParams()
    flat_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.n_tenants < 1:
            raise ValueError(f"need at least one tenant: {self.n_tenants}")
        if self.capacity_units < 1:
            raise ValueError(f"need capacity: {self.capacity_units}")
        if not 1 <= self.max_units:
            raise ValueError(f"max_units must be >= 1: {self.max_units}")
        # Every ordered comparison with NaN is false, so a bare `x <= 0`
        # lets NaN through (a NaN burst mean never flips the envelope).
        for name in ("duration_s", "mean_hold_s", "mean_calm_s", "mean_burst_s", "load_factor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite: {value!r}")
        if not (math.isfinite(self.patience_s) and self.patience_s >= 0):
            raise ValueError(f"patience_s must be finite and >= 0: {self.patience_s!r}")
        if not (math.isfinite(self.burst_factor) and self.burst_factor >= 1):
            raise ValueError(f"burst_factor must be finite and >= 1: {self.burst_factor!r}")

    @property
    def arrival_rate_rps(self) -> float:
        """Calm-state arrival rate hitting ``load_factor`` offered load."""
        mean_units = (1 + self.max_units) / 2.0
        return (
            self.load_factor * self.capacity_units
            / (mean_units * self.mean_hold_s)
        )


@dataclass
class _Holding:
    """One admitted request occupying units of the pool."""

    name: str
    tenant: str
    units: int
    bid: float
    started_at: float
    hold_s: float
    committed: float
    settled: bool = False


@dataclass
class MarketReport:
    """Everything observable about one market scenario run."""

    policy: str
    seed: int
    params: ScenarioParams
    tenants: TenantRegistry = field(default_factory=TenantRegistry)
    accountant: FairnessAccountant = field(default_factory=FairnessAccountant)
    ledger: BillingLedger = field(default_factory=BillingLedger)
    #: (time, utilization, rate) per pricing/sampling tick.
    price_history: List[Tuple[float, float, float]] = field(default_factory=list)
    requested: int = 0
    admitted: int = 0
    rejected: int = 0
    expired: int = 0     # subset of rejected: queue patience ran out
    preempted: int = 0   # subset of admitted: evicted when outbid
    queued_peak: int = 0
    queued_end: int = 0
    finished_at: float = 0.0

    # -- economics -------------------------------------------------------
    def invoice(self, tenant: str) -> float:
        return self.ledger.invoice(tenant, self.finished_at)

    def gross_revenue(self) -> float:
        return sum(
            self.ledger.gross(t.name, self.finished_at) for t in self.tenants
        )

    def total_credits(self) -> float:
        return sum(t.credits for t in self.tenants)

    def revenue(self) -> float:
        """Platform take: per-tenant invoices (gross net of credits)."""
        return sum(self.invoice(t.name) for t in self.tenants)

    def rejection_rate(self) -> float:
        return self.rejected / self.requested if self.requested else 0.0

    # -- invariants ------------------------------------------------------
    def conservation_holds(self) -> bool:
        return self.requested == self.admitted + self.rejected + self.queued_end

    def over_budget_tenants(self) -> List[str]:
        return [
            t.name for t in self.tenants
            if self.invoice(t.name) > t.budget + 1e-9
        ]

    def digest(self) -> dict:
        """Exact-float digest for the determinism guard."""
        return {
            "policy": self.policy,
            "seed": self.seed,
            "counts": (
                self.requested, self.admitted, self.rejected,
                self.expired, self.preempted, self.queued_end,
            ),
            "revenue": self.revenue(),
            "gross": self.gross_revenue(),
            "credits": self.total_credits(),
            "jain": self.accountant.jain_goodput(),
            "skew": self.accountant.spend_allocation_skew(),
            "starved": tuple(self.accountant.starved()),
            "price_history": tuple(self.price_history),
            "invoices": tuple(
                (t.name, self.invoice(t.name), t.spent, t.budget)
                for t in self.tenants
            ),
        }


class _MarketRun:
    """Mutable state of one in-flight scenario."""

    def __init__(self, seed: int, params: ScenarioParams, policy: str):
        if policy not in ("market", "fcfs"):
            raise ValueError(f"unknown policy {policy!r}")
        self.params = params
        self.policy_name = policy
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        self.report = MarketReport(policy=policy, seed=seed, params=params)
        self.tenants = self.report.tenants
        self.accountant = self.report.accountant
        self.ledger = self.report.ledger
        self.used_units = 0
        self.queue: List[tuple] = []  # (key, entry) kept sorted on drain
        self.holdings: List[_Holding] = []
        self._request_index = 0
        if policy == "market":
            self.admission = EconomicAdmission()
            self.pricer: Optional[SpotPricer] = SpotPricer(
                params.pricing, streams=self.streams,
                utilization_fn=self.utilization,
            )
            self.pricer.add_listener(self._on_reprice)
            self.pricer.attach_ledger(self.ledger)
            self.ledger.set_rate(params.pricing.base_rate, 0.0)
            # SLA breach accounting reads the observation grid mid-run,
            # so the report shares the pricer's history list.
            self.report.price_history = self.pricer.history
        else:
            self.admission = FCFSAdmission(flat_rate=params.flat_rate)
            self.pricer = None
            self.ledger.set_rate(params.flat_rate, 0.0)
        self._populate_tenants()

    # -- setup -----------------------------------------------------------
    def _populate_tenants(self) -> None:
        stream = self.streams.stream(TENANT_STREAM)
        weights = [w for _cls, w, _bids, _budgets in _TENANT_MIX]
        total_w = sum(weights)
        for i in range(self.params.n_tenants):
            pick = float(stream.uniform(0.0, total_w))
            acc = 0.0
            chosen = _TENANT_MIX[-1]
            for entry in _TENANT_MIX:
                acc += entry[1]
                if pick <= acc:
                    chosen = entry
                    break
            cls, _w, (bid_lo, bid_hi), (budget_lo, budget_hi) = chosen
            self.tenants.register(
                name=f"tenant-{i:04d}",
                budget=float(stream.uniform(budget_lo, budget_hi)),
                bid_per_m_hour=float(stream.uniform(bid_lo, bid_hi)),
                priority=cls,
            )

    # -- pool ------------------------------------------------------------
    def utilization(self) -> float:
        return self.used_units / self.params.capacity_units

    def _rate(self) -> float:
        return self.pricer.rate if self.pricer is not None else self.params.flat_rate

    def _rate_cap(self, tenant: Tenant) -> float:
        """The most this tenant can be charged per machine-hour."""
        return (
            tenant.bid_per_m_hour if self.policy_name == "market"
            else self.params.flat_rate
        )

    # -- admission path --------------------------------------------------
    def _commit_for(self, tenant: Tenant, units: int, hold_s: float) -> float:
        return self._rate_cap(tenant) * units * hold_s / 3600.0

    def _start_holding(
        self, tenant: Tenant, units: int, hold_s: float, committed: float
    ) -> None:
        now = self.sim.now
        self._request_index += 1
        holding = _Holding(
            name=f"{tenant.name}/r{self._request_index}",
            tenant=tenant.name, units=units, bid=tenant.bid_per_m_hour,
            started_at=now, hold_s=hold_s, committed=committed,
        )
        self.used_units += units
        self.holdings.append(holding)
        self.ledger.service_started(
            service=holding.name, asp=tenant.name, now=now, m_units=units,
        )
        self.report.admitted += 1
        tenant.admitted += 1
        self.accountant.record_admission(tenant.name, units * hold_s / 3600.0)
        self.sim.process(self._completion(holding), name=f"hold:{holding.name}")

    def _completion(self, holding: _Holding) -> Generator[Event, Any, None]:
        yield self.sim.timeout(holding.hold_s)
        if not holding.settled:
            self._settle_holding(holding, preempted=False)
            self._drain_queue()

    def _violations_during(self, start: float, end: float) -> int:
        """Breach count: sampling ticks inside [start, end) that saw the
        pool at or above the admission policy's breach utilization."""
        threshold = getattr(self.admission, "breach_utilization", 0.9)
        return sum(
            1 for (t, u, _rate) in self.report.price_history
            if start <= t < end and u >= threshold
        )

    def _settle_holding(self, holding: _Holding, preempted: bool) -> None:
        now = self.sim.now
        holding.settled = True
        self.used_units -= holding.units
        self.holdings.remove(holding)
        self.ledger.service_stopped(service=holding.name, now=now)
        tenant = self.tenants.get(holding.tenant)
        gross = self.ledger.service_gross(holding.name, now)
        contract = _CLASS_PRESETS[tenant.priority]()
        n_violations = self._violations_during(holding.started_at, now)
        credit = credit_for_violations(contract.penalties, n_violations, gross)
        if credit > 0:
            self.ledger.add_credit(
                service=holding.name, asp=tenant.name, now=now, amount=credit,
                reason=f"SLA: {n_violations} contended window(s)",
            )
            self.tenants.credit(tenant.name, credit)
        net = gross - credit
        self.tenants.settle(tenant.name, holding.committed, net)
        self.accountant.record_spend(tenant.name, net)
        self.accountant.record_served(
            tenant.name, holding.units * (now - holding.started_at) / 3600.0
        )
        if preempted:
            self.report.preempted += 1
            tenant.preempted += 1
            self.accountant.record_preemption(tenant.name)

    def _reject(self, tenant: Tenant, reason_expired: bool = False) -> None:
        self.report.rejected += 1
        tenant.rejected += 1
        self.accountant.record_rejection(tenant.name)
        if reason_expired:
            self.report.expired += 1

    def _on_arrival(self, tenant: Tenant, units: int, hold_s: float) -> None:
        now = self.sim.now
        self.report.requested += 1
        self.accountant.record_request(tenant.name, units * hold_s / 3600.0)
        # A non-empty queue bars direct admission: newcomers join the
        # drain ordering (bid-priority or FIFO) instead of leapfrogging.
        fits = (
            self.used_units + units <= self.params.capacity_units
            and not self.queue
        )
        decision = self.admission.decide(
            bid_per_m_hour=tenant.bid_per_m_hour,
            remaining_budget=tenant.remaining_budget,
            n_units=units,
            hold_s=hold_s,
            spot_rate=self._rate(),
            utilization=self.utilization(),
            sla=_CLASS_PRESETS[tenant.priority](),
            capacity_available=fits,
        )
        if decision.outcome == ADMITTED:
            committed = self._commit_for(tenant, units, hold_s)
            self.tenants.commit(tenant.name, committed)
            self._start_holding(tenant, units, hold_s, committed)
        elif decision.outcome == QUEUED:
            key = self.admission.queue_key(
                tenant.bid_per_m_hour, now, self.report.requested
            )
            entry = (key, tenant.name, units, hold_s, now + self.params.patience_s)
            self.queue.append(entry)
            tenant.queued += 1
            self.report.queued_peak = max(self.report.queued_peak, len(self.queue))
            self.sim.process(
                self._patience(entry), name=f"patience:{tenant.name}"
            )
        else:
            self._reject(tenant)

    def _patience(self, entry: tuple) -> Generator[Event, Any, None]:
        deadline = entry[4]
        yield self.sim.timeout(deadline - self.sim.now)
        if entry in self.queue:
            self.queue.remove(entry)
            self._reject(self.tenants.get(entry[1]), reason_expired=True)

    def _drain_queue(self) -> None:
        """Admit every waiting request that now fits, in policy order."""
        if not self.queue:
            return
        for entry in sorted(self.queue):
            _key, name, units, hold_s, _deadline = entry
            tenant = self.tenants.get(name)
            if self.used_units + units > self.params.capacity_units:
                continue
            if tenant.bid_per_m_hour < self._rate() and self.policy_name == "market":
                continue  # wait for the price to fall (or patience to expire)
            committed = self._commit_for(tenant, units, hold_s)
            if committed > tenant.remaining_budget + 1e-9:
                continue  # budget may free as other holdings settle
            self.queue.remove(entry)
            self.tenants.commit(name, committed)
            self._start_holding(tenant, units, hold_s, committed)

    # -- repricing + preemption ------------------------------------------
    def _on_reprice(self, now: float, rate: float) -> None:
        # Outbid preemption: the spot contract — holdings whose bid the
        # new price exceeds are evicted at this instant.  The ledger was
        # already split at `now`, so no time ever bills above a bid.
        for holding in [h for h in self.holdings if h.bid < rate]:
            self._settle_holding(holding, preempted=True)
        self._drain_queue()

    def _sampler(self) -> Generator[Event, Any, None]:
        """FCFS twin of the pricer cadence: samples utilization so SLA
        breach accounting sees the same observation grid."""
        interval = self.params.pricing.interval_s
        deadline = self.sim.now + self.params.duration_s
        while self.sim.now + interval <= deadline:
            yield self.sim.timeout(interval)
            self.report.price_history.append(
                (self.sim.now, self.utilization(), self.params.flat_rate)
            )

    # -- demand ----------------------------------------------------------
    def _demand(self) -> Generator[Event, Any, None]:
        p = self.params
        arrivals = self.streams.stream(ARRIVAL_STREAM)
        demand = self.streams.stream(DEMAND_STREAM)
        bursts = self.streams.stream(BURST_STREAM)
        deadline = self.sim.now + p.duration_s
        bursting = False
        next_flip = self.sim.now + float(bursts.exponential(p.mean_calm_s))
        names = self.tenants.names
        while True:
            rate = p.arrival_rate_rps * (p.burst_factor if bursting else 1.0)
            gap = float(arrivals.exponential(1.0 / rate))
            if self.sim.now + gap > deadline:
                break
            yield self.sim.timeout(gap)
            while self.sim.now >= next_flip:
                bursting = not bursting
                mean = p.mean_burst_s if bursting else p.mean_calm_s
                next_flip += float(bursts.exponential(mean))
            tenant = self.tenants.get(names[int(demand.integers(0, len(names)))])
            units = int(demand.integers(1, p.max_units + 1))
            hold_s = max(1.0, float(demand.exponential(p.mean_hold_s)))
            self._on_arrival(tenant, units, hold_s)

    # -- drive -----------------------------------------------------------
    def run(self) -> MarketReport:
        if self.pricer is not None:
            self.sim.process(
                self.pricer.run(self.sim, self.params.duration_s),
                name="spot-pricer",
            )
        else:
            self.sim.process(self._sampler(), name="util-sampler")
        self.sim.process(self._demand(), name="market-demand")
        self.sim.run()
        # Close out holdings that outlive the demand horizon.
        for holding in list(self.holdings):
            self._settle_holding(holding, preempted=False)
        self.report.queued_end = len(self.queue)
        self.report.finished_at = self.sim.now
        return self.report


def run_market_scenario(
    seed: int = 0,
    policy: str = "market",
    params: Optional[ScenarioParams] = None,
) -> MarketReport:
    """Run one seeded market-vs-pool contention scenario to completion."""
    return _MarketRun(seed, params or ScenarioParams(), policy).run()


def fast_params(duration_s: float = 200.0, n_tenants: int = 100) -> ScenarioParams:
    """A smaller contention scenario for smoke tests and --fast runs."""
    return ScenarioParams(
        n_tenants=n_tenants,
        capacity_units=120,
        duration_s=duration_s,
    )
