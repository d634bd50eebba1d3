"""Service and platform monitoring.

Paper §1: "staff of the bioinformatics institute should be able to
perform service monitoring and management, as if the service were
hosted locally."  Combined with §2.1's administration isolation, that
means: an ASP sees everything about *its own* services (node health,
per-node request counters, guest process tables) and nothing about
anyone else's; the HUP operator sees platform-level utilisation.

Two consumers are served:

* :class:`HUPMonitor` — snapshot queries (`service_status`,
  `platform_status`), wired into the SODA Agent as
  ``service_status(credentials, name)`` with ownership checks.
* :class:`UtilisationSampler` — a simulated background process that
  samples per-host CPU reservation over time into time-weighted
  monitors (the raw material for capacity dashboards).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.master import SODAMaster
from repro.core.service import ServiceRecord
from repro.obs.metrics import HOST_CPU_RESERVED, registry_of
from repro.sim.kernel import Simulator
from repro.sim.monitor import TimeWeightedMonitor

__all__ = ["NodeStatus", "ServiceStatus", "HostStatus", "HUPMonitor", "UtilisationSampler"]


@dataclass(frozen=True)
class NodeStatus:
    """One virtual service node, as its ASP sees it."""

    name: str
    host: str
    endpoint: str
    units: int
    vm_state: str
    compromised: bool
    inflight: int
    served: int
    failed: int
    mean_response_s: Optional[float]

    @property
    def healthy(self) -> bool:
        return self.vm_state == "running" and not self.compromised


@dataclass(frozen=True)
class ServiceStatus:
    """A whole service, as its ASP sees it."""

    service: str
    state: str
    total_units: int
    nodes: List[NodeStatus]
    switch_dispatched: int
    switch_rejected: int
    switch_shedded: int = 0
    sla_class: Optional[str] = None

    @property
    def healthy_nodes(self) -> int:
        return sum(1 for n in self.nodes if n.healthy)

    @property
    def degraded(self) -> bool:
        return self.healthy_nodes < len(self.nodes)


@dataclass(frozen=True)
class HostStatus:
    """One HUP host, as the operator sees it."""

    host: str
    n_nodes: int
    cpu_utilisation: float
    mem_utilisation: float
    bw_utilisation: float
    free_ram_mb: float


class HUPMonitor:
    """Snapshot queries over a SODA Master's state."""

    def __init__(self, master: SODAMaster):
        self.master = master

    def node_status(self, record: ServiceRecord) -> List[NodeStatus]:
        statuses = []
        for node in record.nodes:
            mean = (
                node.response_times.mean() if node.response_times.count else None
            )
            statuses.append(
                NodeStatus(
                    name=node.name,
                    host=node.host.name,
                    endpoint=str(node.endpoint),
                    units=node.units,
                    vm_state=node.vm.state.value,
                    compromised=node.vm.compromised,
                    inflight=node.inflight,
                    served=node.served,
                    failed=node.failed,
                    mean_response_s=mean,
                )
            )
        return statuses

    def service_status(self, service_name: str) -> ServiceStatus:
        record = self.master.get_service(service_name)
        return ServiceStatus(
            service=record.name,
            state=record.state.value,
            total_units=record.total_units,
            nodes=self.node_status(record),
            switch_dispatched=record.switch.dispatched if record.switch else 0,
            switch_rejected=record.switch.rejected if record.switch else 0,
            switch_shedded=record.switch.shedded if record.switch else 0,
            sla_class=record.sla.service_class.value if record.sla else None,
        )

    def platform_status(self) -> List[HostStatus]:
        """The HUP-operator view: per-host utilisation."""
        statuses = []
        for host_name, daemon in self.master.daemons.items():
            host = daemon.host
            util = host.reservations.utilisation()
            n_nodes = sum(
                1
                for record in self.master.services.values()
                for node in record.nodes
                if node.host is host
            )
            statuses.append(
                HostStatus(
                    host=host_name,
                    n_nodes=n_nodes,
                    cpu_utilisation=util["cpu"],
                    mem_utilisation=util["mem"],
                    bw_utilisation=util["bw"],
                    free_ram_mb=host.memory.free_mb,
                )
            )
        return statuses


class UtilisationSampler:
    """Samples per-host CPU reservation into time-weighted monitors."""

    def __init__(self, sim: Simulator, master: SODAMaster, period_s: float = 1.0):
        if period_s <= 0:
            raise ValueError(f"period must be positive, got {period_s}")
        self.sim = sim
        self.master = master
        self.period_s = period_s
        self.cpu: Dict[str, TimeWeightedMonitor] = {
            name: TimeWeightedMonitor(f"cpu:{name}", start_time=sim.now)
            for name in master.daemons
        }
        self._process = None

    def start(self, duration_s: float):
        """Begin sampling for ``duration_s`` simulated seconds."""
        if self._process is not None and self._process.is_alive:
            raise RuntimeError("sampler already running")
        self._process = self.sim.process(self._run(duration_s), name="util-sampler")
        return self._process

    def _run(self, duration_s: float):
        deadline = self.sim.now + duration_s
        while self.sim.now < deadline:
            registry = registry_of(self.sim)
            for name, daemon in self.master.daemons.items():
                utilisation = daemon.host.reservations.utilisation()["cpu"]
                self.cpu[name].set(self.sim.now, utilisation)
                if registry is not None:
                    registry.series[HOST_CPU_RESERVED, name].set(utilisation)
            yield self.sim.timeout(self.period_s)

    def mean_cpu(self, host_name: str, start: float, end: float) -> float:
        return self.cpu[host_name].time_average(start, end)
