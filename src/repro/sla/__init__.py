"""Service-level agreements: the promise layer over <n, M> reservations.

The paper's utility framing (ASPs buy guaranteed capacity; the Agent
bills for it, §2.2) implies a contract the repo previously lacked.
This package supplies it end to end:

* :mod:`repro.sla.contract` — :class:`SLAContract` (service class,
  latency percentile objectives over sliding breach windows,
  availability/throughput floors, penalty schedule).
* :mod:`repro.sla.monitor` — :class:`SLOMonitor`, a simulated process
  tapping per-request outcomes from the service switch and emitting
  deterministic :class:`SLAViolation` records.
* :mod:`repro.sla.enforcement` — class-priority load shedding at the
  switch (bronze before silver before gold), SLA-aware admission in the
  SODA Master, and breach-triggered autoscaling.
* :mod:`repro.sla.penalties` — violation records become
  :class:`~repro.core.billing.CreditNote` entries; invoices net out
  accrual minus SLA credits.
* :mod:`repro.sla.report` — per-service compliance scorecards exported
  through the metrics CSV pipeline.

Layering rule: nothing in this package imports the control-plane
modules (`core.switch`, `core.master`, `core.agent`,
`core.autoscaler`) at module level — the SLA layer observes and advises
the control plane through duck-typed hooks, which is also what keeps
the imports acyclic.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "contract": ["LatencyObjective", "PenaltySchedule", "ServiceClass", "SLAContract"],
    "enforcement": [
        "BreachEscalator",
        "ClassPriorityShedder",
        "check_admissible",
        "estimate_capacity_rps",
    ],
    "monitor": ["SLAViolation", "SLOMonitor"],
    "penalties": ["PenaltySettler", "Settlement", "credit_for_violations"],
    "report": ["ComplianceSummary", "compliance_result", "compliance_summary", "export_compliance"],
})
