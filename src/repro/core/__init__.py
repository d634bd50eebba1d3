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

from repro.core.agent import SODAAgent
from repro.core.allocation import (
    AllocationPlan,
    NodeAssignment,
    PlacementStrategy,
    SLOWDOWN_INFLATION,
    plan_allocation,
)
from repro.core.api import HUPTestbed, build_paper_testbed
from repro.core.auth import ASPAccount, ASPRegistry
from repro.core.autoscaler import AutoscalerConfig, ReactiveAutoscaler
from repro.core.billing import BillingLedger
from repro.core.config import BackEndDirective, ServiceConfigFile
from repro.core.daemon import SODADaemon
from repro.core.errors import (
    AdmissionError,
    AuthenticationError,
    InvalidRequestError,
    RequestSheddedError,
    ServiceNotFoundError,
    SODAError,
)
from repro.core.federation import FederatedHUP
from repro.core.master import SODAMaster
from repro.core.monitoring import HUPMonitor, UtilisationSampler
from repro.core.node import Request, VirtualServiceNode
from repro.core.profiling import ResourceProfiler, ServiceLoadSpec
from repro.core.recovery import NodeWatchdog
from repro.core.policies import (
    LeastConnectionsPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    SwitchingPolicy,
    WeightedRoundRobinPolicy,
)
from repro.core.requirements import MachineConfig, ResourceRequirement
from repro.core.service import ServiceRecord, ServiceState
from repro.core.switch import ServiceSwitch

__all__ = [
    "ASPAccount",
    "ASPRegistry",
    "AdmissionError",
    "AllocationPlan",
    "AuthenticationError",
    "AutoscalerConfig",
    "BackEndDirective",
    "BillingLedger",
    "FederatedHUP",
    "HUPMonitor",
    "HUPTestbed",
    "NodeWatchdog",
    "ResourceProfiler",
    "ServiceLoadSpec",
    "UtilisationSampler",
    "InvalidRequestError",
    "LeastConnectionsPolicy",
    "MachineConfig",
    "NodeAssignment",
    "PlacementStrategy",
    "RandomPolicy",
    "ReactiveAutoscaler",
    "Request",
    "RequestSheddedError",
    "ResourceRequirement",
    "RoundRobinPolicy",
    "SLOWDOWN_INFLATION",
    "SODAAgent",
    "SODADaemon",
    "SODAError",
    "SODAMaster",
    "ServiceConfigFile",
    "ServiceNotFoundError",
    "ServiceRecord",
    "ServiceState",
    "ServiceSwitch",
    "SwitchingPolicy",
    "VirtualServiceNode",
    "WeightedRoundRobinPolicy",
    "build_paper_testbed",
    "plan_allocation",
]
