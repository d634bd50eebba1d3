"""Market-based multi-tenant economics (extension).

The SODA Agent already owns billing (paper §2.2); this package makes
the platform a *market*: tenants with budgets and bids
(:mod:`repro.market.tenant`), utilization-driven spot pricing of HUP
capacity (:mod:`repro.market.pricing`), bid-aware admission scored as
expected revenue minus expected SLA penalty exposure
(:mod:`repro.market.admission`), fairness and isolation accounting
(:mod:`repro.market.fairness`), and a seeded contention scenario
harness that ablates market against FCFS admission
(:mod:`repro.market.scenario`, surfaced as ``ablation-market``).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "admission": ["AdmissionDecision", "EconomicAdmission", "FCFSAdmission", "MarketAdmissionHook"],
    "fairness": ["FairnessAccountant", "jains_index"],
    "placement": ["cheapest_spot_price"],
    "pricing": ["PricingParams", "SpotPricer", "reprice"],
    "scenario": ["MarketReport", "ScenarioParams", "fast_params", "run_market_scenario"],
    "tenant": ["BudgetExceededError", "Tenant", "TenantRegistry"],
})
