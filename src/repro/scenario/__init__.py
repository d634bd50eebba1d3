"""Declarative scenario library + compilation + replay (extension).

Frozen workload specs (:mod:`repro.scenario.spec`) compile to seeded
per-tenant arrival traces (:mod:`repro.scenario.compile`) that drive
the platform under a policy arm (:mod:`repro.scenario.run`).  Named
families live in :mod:`repro.scenario.library`; ``soda-scenarios`` is
the CLI; the ``scenario-matrix`` experiment fans scenario x policy x
seed cells.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "compile": ["CompiledScenario", "compile_scenario"],
    "library": ["LIBRARY", "get_scenario", "list_scenarios"],
    "run": ["POLICIES", "ScenarioReport", "run_scenario"],
    "spec": [
        "ArrivalModel",
        "BurstEnvelope",
        "ConstantArrivals",
        "DiurnalArrivals",
        "FlashCrowdArrivals",
        "ReplayArrivals",
        "ScenarioSpec",
        "SizeModel",
        "TenantLoad",
    ],
})
