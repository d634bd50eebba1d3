"""SLA enforcement: shedding, admission, and breach-triggered scaling.

Three mechanisms keep promises enforceable rather than aspirational:

* :class:`ClassPriorityShedder` — class-priority load shedding at the
  service switch.  When backlog (the switch dispatcher queue plus the
  back-end worker queues) saturates, bronze traffic is dropped first,
  then silver, then gold: each class tolerates a queue depth scaled by
  its :attr:`~repro.sla.contract.ServiceClass.queue_tolerance`.
* :func:`check_admissible` — SLA-aware admission in the SODA Master: a
  contract whose objectives are infeasible for the requested ``<n, M>``
  is rejected up front instead of accruing guaranteed penalties.
* :class:`BreachEscalator` — the bridge from monitoring to elasticity:
  sustained violations are forwarded to a
  :class:`~repro.core.autoscaler.ReactiveAutoscaler` as resize requests.

Only :mod:`repro.core.errors` is imported from the control plane, so
this module can be loaded by the SODA Master without an import cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List

from repro.core.errors import AdmissionError
from repro.sla.contract import ServiceClass, SLAContract

if TYPE_CHECKING:  # annotations only
    from repro.sla.monitor import SLAViolation

__all__ = [
    "DEFAULT_SHED_QUEUE_LIMIT",
    "NOMINAL_REQUEST_MCYCLES",
    "MIN_LATENCY_FACTOR",
    "ClassPriorityShedder",
    "estimate_capacity_rps",
    "check_admissible",
    "BreachEscalator",
]

# Backlog (queued requests) at which a BRONZE-class service starts
# shedding; silver and gold scale this by their queue tolerance.
DEFAULT_SHED_QUEUE_LIMIT = 8

# Conservative per-request CPU estimate used for feasibility math: the
# web content mix at 0.25 MB (user work + interposed syscalls, see
# docs/MODELING.md §2) costs ~2.5 Mcycles.
NOMINAL_REQUEST_MCYCLES = 2.5

# A latency objective below this multiple of the bare service time is
# infeasible even with an empty queue (dispatch + transfer overheads).
MIN_LATENCY_FACTOR = 2.0


class ClassPriorityShedder:
    """Queue-depth load shedding scaled by service class.

    Attached to a :class:`~repro.core.switch.ServiceSwitch` (duck-typed:
    anything with ``_dispatcher.queue`` and ``nodes[*].workers.queue``).
    Under shared-platform pressure every class sees the same backlog
    growth, so the class with the smallest limit — bronze — sheds first.

    With ``capacity_aware=True`` the limit additionally shrinks in
    proportion to the fraction of the service's back-ends currently
    able to serve (graceful degradation under faults): when replicas
    crash, capacity drops, so the tolerable backlog drops with it and
    low classes shed *before* the queue built for full capacity fills.
    The default is off, preserving the PR 1 behaviour bit-for-bit.
    """

    def __init__(
        self,
        service_class: ServiceClass,
        base_queue_limit: int = DEFAULT_SHED_QUEUE_LIMIT,
        capacity_aware: bool = False,
    ):
        if base_queue_limit < 1:
            raise ValueError(f"queue limit must be >= 1, got {base_queue_limit}")
        self.service_class = service_class
        self.base_queue_limit = base_queue_limit
        self.capacity_aware = capacity_aware

    @property
    def queue_limit(self) -> int:
        return self.base_queue_limit * self.service_class.queue_tolerance

    def effective_queue_limit(self, switch: Any) -> int:
        """The limit in force right now (capacity-scaled when enabled)."""
        limit = self.queue_limit
        if not self.capacity_aware:
            return limit
        nodes = switch.nodes
        total = len(nodes)
        if total == 0:
            return limit
        healthy = sum(1 for node in nodes if node.is_available)
        # Never scale below 1: a fully-dark service still sheds (every
        # request) rather than dividing by zero.
        return max(1, (limit * healthy) // total)

    def pressure(self, switch: Any) -> int:
        """Requests queued but not yet being served, switch + back-ends."""
        waiting = len(switch._dispatcher.queue)
        for node in switch.nodes:
            waiting += len(node.workers.queue)
        return waiting

    def should_shed(self, switch: Any) -> bool:
        return self.pressure(switch) >= self.effective_queue_limit(switch)


def estimate_capacity_rps(n: int, cpu_mhz: float) -> float:
    """Sustainable request rate of ``n`` machine instances of ``M``."""
    if n < 1 or cpu_mhz <= 0:
        raise ValueError(f"need n >= 1 and positive cpu, got n={n}, cpu={cpu_mhz}")
    return n * cpu_mhz / NOMINAL_REQUEST_MCYCLES


def check_admissible(contract: SLAContract, requirement: Any) -> None:
    """Reject contracts infeasible for the requested ``<n, M>``.

    ``requirement`` is a :class:`~repro.core.requirements.ResourceRequirement`
    (duck-typed to avoid the import cycle through the Master).  Raises
    :class:`~repro.core.errors.AdmissionError` on infeasibility.
    """
    cpu_mhz = requirement.machine.cpu_mhz
    floor = contract.throughput_floor_rps
    if floor is not None:
        capacity = estimate_capacity_rps(requirement.n, cpu_mhz)
        if floor > capacity:
            raise AdmissionError(
                f"throughput floor {floor:g} rps exceeds the ~{capacity:.0f} rps "
                f"capacity of {requirement}"
            )
    min_feasible_s = MIN_LATENCY_FACTOR * NOMINAL_REQUEST_MCYCLES / cpu_mhz
    for objective in contract.latency:
        if objective.threshold_s < min_feasible_s:
            raise AdmissionError(
                f"latency objective {objective} is below the {min_feasible_s:.4g}s "
                f"feasibility floor of a {cpu_mhz:g} MHz machine instance"
            )


class BreachEscalator:
    """Turns sustained SLO breaches into autoscaler resize requests.

    Registered as a breach listener on an
    :class:`~repro.sla.monitor.SLOMonitor`; after every ``sustained``
    violations it calls ``autoscaler.notify_breach`` (duck-typed to
    :meth:`repro.core.autoscaler.ReactiveAutoscaler.notify_breach`), so
    a transient blip does not trigger a resize but a persistent breach
    does.
    """

    def __init__(self, autoscaler: Any, sustained: int = 2):
        if sustained < 1:
            raise ValueError(f"sustained must be >= 1, got {sustained}")
        self.autoscaler = autoscaler
        self.sustained = sustained
        self.escalations = 0
        self.forwarded: List[SLAViolation] = []
        self._pending = 0

    def wire(self, monitor: Any) -> "BreachEscalator":
        """Subscribe to a monitor's breach feed; returns self."""
        monitor.breach_listeners.append(self)
        return self

    def __call__(self, violation: SLAViolation) -> None:
        self._pending += 1
        if self._pending < self.sustained:
            return
        self._pending = 0
        self.escalations += 1
        self.forwarded.append(violation)
        self.autoscaler.notify_breach(violation)
