"""SODA core: the paper's contribution.

The entities of §2.2/§3, layered on the substrates:

* :mod:`repro.core.requirements` — machine configuration ``M`` and the
  ``<n, M>`` resource requirement (Table 1).
* :mod:`repro.core.agent` — the **SODA Agent**: ASP-facing API with
  authentication and billing (§3.1, §4.1).
* :mod:`repro.core.master` — the **SODA Master**: admission control,
  ``<n, M>`` to virtual-service-node mapping, priming coordination,
  service switch creation, resizing, teardown (§3.2, §3.4).
* :mod:`repro.core.daemon` — the **SODA Daemon** on each HUP host:
  reservations, image download, rootfs tailoring, UML bootstrap, IP
  assignment, bridging updates (§3.3, §4.3).
* :mod:`repro.core.switch` — the per-service **service switch** with a
  replaceable request switching policy (§3.4).
* :mod:`repro.core.node` — the virtual service node wrapper the switch
  dispatches to.
* :mod:`repro.core.allocation` — the Master's placement strategies,
  including the slow-down inflation factor (footnote 2).
* :mod:`repro.core.config` — the service configuration file (Table 3).
* :mod:`repro.core.federation` — multi-HUP federation (a §3.5
  future-work item, implemented as an extension).
* :mod:`repro.core.api` — the :class:`HUPTestbed` facade wiring a whole
  simulated platform together (what examples and experiments use).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "agent": ["SODAAgent"],
    "allocation": [
        "AllocationPlan",
        "NodeAssignment",
        "PlacementStrategy",
        "SLOWDOWN_INFLATION",
        "plan_allocation",
    ],
    "api": ["HUPTestbed", "build_paper_testbed"],
    "auth": ["ASPAccount", "ASPRegistry"],
    "autoscaler": ["AutoscalerConfig", "ReactiveAutoscaler"],
    "billing": ["BillingLedger"],
    "config": ["BackEndDirective", "ServiceConfigFile"],
    "daemon": ["SODADaemon"],
    "errors": [
        "AdmissionError",
        "AuthenticationError",
        "InvalidRequestError",
        "RequestSheddedError",
        "ServiceNotFoundError",
        "SODAError",
    ],
    "federation": ["FederatedHUP"],
    "master": ["SODAMaster"],
    "monitoring": ["HUPMonitor", "UtilisationSampler"],
    "node": ["Request", "VirtualServiceNode"],
    "profiling": ["ResourceProfiler", "ServiceLoadSpec"],
    "recovery": ["NodeWatchdog"],
    "policies": [
        "LeastConnectionsPolicy",
        "RandomPolicy",
        "RoundRobinPolicy",
        "SwitchingPolicy",
        "WeightedRoundRobinPolicy",
    ],
    "requirements": ["MachineConfig", "ResourceRequirement"],
    "service": ["ServiceRecord", "ServiceState"],
    "switch": ["ServiceSwitch"],
})
