"""The SODA Master: HUP-wide service creation coordinator.

"Upon receiving the service creation request, the SODA Master checks if
the resource requirement of S can be satisfied by current HUP resource
availability.  The SODA Master collects resource information from SODA
Daemons running in each HUP host.  If the resource requirement cannot
be satisfied, a request failure will be reported.  Otherwise, service S
will be admitted; and the SODA Master will identify a number of HUP
host 'slices' to form the set of virtual service nodes for S.  The SODA
Master will then contact the SODA Daemons running in the selected HUP
hosts to initiate the service priming process.  After service priming,
the SODA Master will create a service switch for S" (paper §3.2).

Resizing (§3.4): "the SODA Master will either adjust the resources in
the current virtual service nodes, or add/remove virtual service
node(s).  In either case, the service configuration file will be
updated by the SODA Master to reflect the changes."
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional

from repro.core.allocation import (
    PlacementStrategy,
    SLOWDOWN_INFLATION,
    inflated_unit_vector,
    plan_allocation,
)
from repro.core.config import ServiceConfigFile
from repro.core.daemon import SODADaemon
from repro.core.errors import (
    AdmissionError,
    InvalidRequestError,
    PrimingError,
    ServiceNotFoundError,
)
from repro.core.node import VirtualServiceNode
from repro.core.policies import SwitchingPolicy
from repro.core.requirements import ResourceRequirement
from repro.core.service import ServiceRecord, ServiceState
from repro.core.switch import ServiceSwitch
from repro.image.repository import ImageRepository
from repro.net.lan import LAN
from repro.obs.metrics import registry_of
from repro.sim.kernel import Event, Simulator

if TYPE_CHECKING:  # imported lazily at call sites to keep core -> sla acyclic
    from repro.sla.contract import SLAContract

__all__ = ["SODAMaster"]


def _settled(
    prime: Generator[Event, Any, VirtualServiceNode],
) -> Generator[Event, Any, tuple]:
    """One daemon's priming; returns ``(node, exc)``, never raises.

    A daemon may fail before the master (joining them in order) waits
    on it; returning the :class:`PrimingError` hands it to the rollback
    instead of failing a process nobody awaits yet.
    """
    try:
        node = yield from prime
    except PrimingError as exc:
        return None, exc
    return node, None


class SODAMaster:
    """One per HUP."""

    def __init__(
        self,
        sim: Simulator,
        lan: LAN,
        daemons: List[SODADaemon],
        strategy: PlacementStrategy = PlacementStrategy.FIRST_FIT,
        inflation: float = SLOWDOWN_INFLATION,
    ):
        if not daemons:
            raise ValueError("a HUP needs at least one SODA Daemon")
        names = [d.host.name for d in daemons]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate daemon hosts: {names}")
        self.sim = sim
        self.lan = lan
        self.daemons = {d.host.name: d for d in daemons}
        self.strategy = strategy
        self.inflation = inflation
        self.services: Dict[str, ServiceRecord] = {}

    # -- observability --------------------------------------------------------
    def _obs_admission(self, outcome: str) -> None:
        """Count one admission decision (observes, never perturbs)."""
        registry = registry_of(self.sim)
        if registry is not None:
            registry.counter(
                "soda_master_admissions_total",
                "Service admission decisions by the SODA Master.",
                ("outcome",),
            ).inc(outcome=outcome)

    # -- availability -------------------------------------------------------
    def collect_availability(self):
        """Pull (host, available-vector) reports from every daemon."""
        return [
            (name, daemon.report_availability())
            for name, daemon in self.daemons.items()
        ]

    def can_admit(self, requirement: ResourceRequirement) -> bool:
        try:
            plan_allocation(
                requirement, self.collect_availability(), self.strategy, self.inflation
            )
            return True
        except AdmissionError:
            return False

    def utilization(self) -> float:
        """Platform-wide scalar utilization in [0, 1].

        Per host, the binding dimension (the largest reserved fraction
        across CPU / memory / disk / bandwidth) is what blocks the next
        reservation; the platform figure is the mean over hosts.  Spot
        pricing (:mod:`repro.market.pricing`) reprices from this.
        """
        fractions = []
        for daemon in self.daemons.values():
            per_dim = daemon.host.reservations.utilisation()
            fractions.append(max(per_dim.values()))
        return sum(fractions) / len(fractions)

    # -- creation -----------------------------------------------------------
    def create_service(
        self,
        service_name: str,
        asp: str,
        repository: ImageRepository,
        image_name: str,
        requirement: ResourceRequirement,
        policy: Optional[SwitchingPolicy] = None,
        sla: Optional["SLAContract"] = None,
    ) -> Generator[Event, Any, ServiceRecord]:
        """Admit, prime (in parallel across hosts) and switch a service.

        With an ``sla`` contract, admission additionally rejects
        objectives infeasible for the requested ``<n, M>``, and the
        created switch sheds load by service class under saturation.
        """
        if service_name in self.services:
            raise InvalidRequestError(f"service {service_name!r} already hosted")
        if image_name not in repository:
            raise InvalidRequestError(f"image {image_name!r} not published")
        try:
            if sla is not None:
                from repro.sla.enforcement import check_admissible

                check_admissible(sla, requirement)
            plan = plan_allocation(
                requirement, self.collect_availability(), self.strategy, self.inflation
            )
        except AdmissionError:
            self._obs_admission("rejected")
            raise
        self._obs_admission("admitted")
        record = ServiceRecord(
            name=service_name,
            asp=asp,
            image_name=image_name,
            requirement=requirement,
            created_at=self.sim.now,
            sla=sla,
        )
        self.services[service_name] = record
        record.transition(ServiceState.PRIMING)
        # Prime all selected hosts in parallel (§3.2: "coordinates the
        # service priming process").
        prime_procs = []
        for index, assignment in enumerate(plan.assignments):
            daemon = self.daemons[assignment.host_name]
            prime_procs.append(
                self.sim.process(
                    _settled(daemon.prime(
                        service_name=service_name,
                        repository=repository,
                        image_name=image_name,
                        units=assignment.units,
                        unit_vector=plan.unit_vector,
                        machine=requirement.machine,
                        node_index=index,
                    )),
                    name=f"prime:{service_name}:{assignment.host_name}",
                )
            )
        # Wait for every daemon to settle (success or failure) so a
        # partial failure can be rolled back without leaking in-flight
        # priming work.
        nodes: List[VirtualServiceNode] = []
        errors: List[PrimingError] = []
        for proc in prime_procs:
            node, exc = yield proc
            if exc is None:
                nodes.append(node)
            else:
                errors.append(exc)
        if errors:
            for node in nodes:
                self.daemons[node.host.name].teardown_node(node)
            record.transition(ServiceState.TORN_DOWN)
            del self.services[service_name]
            raise errors[0]
        record.nodes = nodes

        # Service configuration file + switch (§3.4, Table 3).
        config = ServiceConfigFile(service_name)
        for node in record.nodes:
            config.add_backend(node.endpoint.ip, node.endpoint.port, node.units)
        record.switch = ServiceSwitch(
            sim=self.sim,
            service_name=service_name,
            lan=self.lan,
            nodes=record.nodes,
            config=config,
            policy=policy,
            home_node=record.nodes[0],
        )
        record.switch.tenant = asp
        if sla is not None:
            from repro.sla.enforcement import ClassPriorityShedder

            record.switch.shedder = ClassPriorityShedder(sla.service_class)
        record.transition(ServiceState.RUNNING)
        record.primed_at = self.sim.now
        return record

    # -- partitionable services (§3.5 extension) ------------------------------
    @staticmethod
    def _component_units(components, n: int) -> Dict[str, int]:
        """Split n machine instances across components by weight.

        Every component gets at least one unit; the rest follow the
        weights by largest remainder.  Deterministic.
        """
        if n < len(components):
            raise InvalidRequestError(
                f"<{n}, M> cannot cover {len(components)} components "
                "(each needs at least one machine instance)"
            )
        total_weight = sum(c.weight for c in components)
        spare = n - len(components)
        exact = {c.name: spare * c.weight / total_weight for c in components}
        units = {name: 1 + int(x) for name, x in exact.items()}
        leftovers = sorted(
            exact, key=lambda name: (exact[name] - int(exact[name]), name), reverse=True
        )
        for name in leftovers[: n - sum(units.values())]:
            units[name] += 1
        return units

    def create_partitioned_service(
        self,
        service_name: str,
        asp: str,
        repository: ImageRepository,
        image_name: str,
        requirement: ResourceRequirement,
        policy: Optional[SwitchingPolicy] = None,
    ) -> Generator[Event, Any, ServiceRecord]:
        """Create a partitionable service: one node per component.

        Instead of full replication, each component of the image is
        mapped to its own virtual service node, sized by component
        weight; the switch routes requests by their ``component`` tag.
        """
        if service_name in self.services:
            raise InvalidRequestError(f"service {service_name!r} already hosted")
        if image_name not in repository:
            raise InvalidRequestError(f"image {image_name!r} not published")
        image = repository.get(image_name)
        if not image.is_partitionable:
            raise InvalidRequestError(
                f"image {image_name!r} declares no components; use create_service"
            )
        component_units = self._component_units(image.components, requirement.n)

        record = ServiceRecord(
            name=service_name,
            asp=asp,
            image_name=image_name,
            requirement=requirement,
            created_at=self.sim.now,
        )
        self.services[service_name] = record
        record.transition(ServiceState.PRIMING)
        nodes: List[VirtualServiceNode] = []
        try:
            for index, component in enumerate(image.components):
                units = component_units[component.name]
                sub_requirement = requirement.with_n(units)
                plan = plan_allocation(
                    sub_requirement, self.collect_availability(),
                    self.strategy, self.inflation,
                )
                for assignment in plan.assignments:
                    daemon = self.daemons[assignment.host_name]
                    node = yield self.sim.process(
                        daemon.prime(
                            service_name=service_name,
                            repository=repository,
                            image_name=image_name,
                            units=assignment.units,
                            unit_vector=plan.unit_vector,
                            machine=requirement.machine,
                            node_index=len(nodes),
                            component=component.name,
                        )
                    )
                    nodes.append(node)
        except (PrimingError, AdmissionError):
            for node in nodes:
                self.daemons[node.host.name].teardown_node(node)
            record.transition(ServiceState.TORN_DOWN)
            del self.services[service_name]
            raise
        record.nodes = nodes

        config = ServiceConfigFile(service_name)
        for node in record.nodes:
            config.add_backend(node.endpoint.ip, node.endpoint.port, node.units)
        record.switch = ServiceSwitch(
            sim=self.sim,
            service_name=service_name,
            lan=self.lan,
            nodes=record.nodes,
            config=config,
            policy=policy,
            home_node=record.nodes[0],
        )
        record.switch.tenant = asp
        record.transition(ServiceState.RUNNING)
        record.primed_at = self.sim.now
        return record

    # -- lookup --------------------------------------------------------------
    def get_service(self, service_name: str) -> ServiceRecord:
        try:
            return self.services[service_name]
        except KeyError:
            raise ServiceNotFoundError(f"service {service_name!r} not hosted") from None

    # -- resizing ------------------------------------------------------------
    def resize_service(
        self,
        service_name: str,
        repository: ImageRepository,
        n_new: int,
    ) -> Generator[Event, Any, ServiceRecord]:
        """Apply ``<n_new, M>``: adjust nodes in place, add, or remove."""
        record = self.get_service(service_name)
        if not record.is_running:
            raise InvalidRequestError(
                f"service {service_name!r} is {record.state.value}, not running"
            )
        if n_new < 1:
            raise InvalidRequestError(f"n_new must be >= 1, got {n_new}")
        requirement_new = record.requirement.with_n(n_new)
        unit = inflated_unit_vector(requirement_new, self.inflation)
        record.transition(ServiceState.RESIZING)
        try:
            delta = n_new - record.total_units
            if delta > 0:
                yield from self._grow(record, repository, delta, unit)
            elif delta < 0:
                self._shrink(record, -delta, unit)
            record.requirement = requirement_new
        finally:
            if record.state is ServiceState.RESIZING:
                record.transition(ServiceState.RUNNING)
        return record

    def _grow(self, record, repository, delta: int, unit) -> Generator[Event, Any, None]:
        """Prefer growing existing nodes in place; spill to new nodes."""
        remaining = delta
        grown: List[tuple] = []  # (node, original units) for rollback
        # First option (§3.4): adjust resources in current nodes.
        for node in record.nodes:
            if remaining == 0:
                break
            daemon = self.daemons[node.host.name]
            grow_by = 0
            while grow_by < remaining and daemon.host.reservations.can_fit(
                unit.scaled(float(grow_by + 1))
            ):
                grow_by += 1
            if grow_by > 0:
                grown.append((node, node.units))
                daemon.resize_node(node, node.units + grow_by, unit)
                record.switch.config.set_capacity(
                    node.endpoint.ip, node.endpoint.port, node.units
                )
                remaining -= grow_by
        if remaining == 0:
            return
        # Second option: add new virtual service node(s).
        requirement = record.requirement.with_n(remaining)
        try:
            plan = plan_allocation(
                requirement, self.collect_availability(), self.strategy, self.inflation
            )
        except AdmissionError as exc:
            # Roll back the in-place growth so a failed resize leaves the
            # service exactly as it was.
            for node, original_units in reversed(grown):
                self.daemons[node.host.name].resize_node(node, original_units, unit)
                record.switch.config.set_capacity(
                    node.endpoint.ip, node.endpoint.port, original_units
                )
            raise AdmissionError(
                f"resize of {record.name!r} cannot place {remaining} more units: {exc}"
            ) from exc
        next_index = len(record.nodes)
        for offset, assignment in enumerate(plan.assignments):
            daemon = self.daemons[assignment.host_name]
            node = yield self.sim.process(
                daemon.prime(
                    service_name=record.name,
                    repository=repository,
                    image_name=record.image_name,
                    units=assignment.units,
                    unit_vector=plan.unit_vector,
                    machine=record.requirement.machine,
                    node_index=next_index + offset,
                )
            )
            record.nodes.append(node)
            record.switch.add_node(node)
            record.switch.config.add_backend(
                node.endpoint.ip, node.endpoint.port, node.units
            )

    def _shrink(self, record, delta: int, unit) -> None:
        """Shed capacity: shrink/remove nodes, never the switch's home."""
        remaining = delta
        # Remove or shrink from the last node backwards (home node last
        # and never removed entirely).
        for node in reversed(record.nodes):
            if remaining == 0:
                break
            daemon = self.daemons[node.host.name]
            removable = node is not record.switch.home_node
            if removable and node.units <= remaining:
                remaining -= node.units
                record.switch.remove_node(node)
                record.switch.config.remove_backend(node.endpoint.ip, node.endpoint.port)
                daemon.teardown_node(node)
                record.nodes.remove(node)
            else:
                shrink_by = min(remaining, node.units - 1)
                if shrink_by > 0:
                    daemon.resize_node(node, node.units - shrink_by, unit)
                    record.switch.config.set_capacity(
                        node.endpoint.ip, node.endpoint.port, node.units
                    )
                    remaining -= shrink_by
        if remaining > 0:
            raise InvalidRequestError(
                f"cannot shrink {record.name!r} below one machine instance"
            )

    # -- teardown --------------------------------------------------------------
    def teardown_service(self, service_name: str) -> ServiceRecord:
        """SODA_service_teardown: release every slice of the service."""
        record = self.get_service(service_name)
        if record.state is ServiceState.TORN_DOWN:
            raise InvalidRequestError(f"service {service_name!r} already torn down")
        for node in record.nodes:
            self.daemons[node.host.name].teardown_node(node)
        record.transition(ServiceState.TORN_DOWN)
        del self.services[service_name]
        return record
