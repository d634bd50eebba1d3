"""The SODA Daemon: per-host priming engine.

"A SODA Daemon is running in each HUP host as a host OS process.  It
reports resource availability to the SODA Master.  And it performs
*service priming*, i.e. the creation of a virtual service node, at the
command of the SODA Master.  Upon receiving the command [...] the SODA
Daemon will contact the underlying host OS and make resource
reservations [...].  After reserving a 'slice' of the HUP host, the
SODA Daemon will download the service image from the location specified
by the ASP, and bootstrap the virtual service node (first the guest OS,
then the service).  [...] During the bootstrapping, the SODA Daemon
will also assign an IP address to the virtual service node" and notify
the bridging module of the new UML-IP mapping (paper §3.3, §4.3).
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Union

from repro.core.allocation import SLOWDOWN_INFLATION
from repro.core.errors import PrimingError
from repro.core.node import VirtualServiceNode
from repro.core.requirements import MachineConfig
from repro.guestos.proc import GUEST_ROOT_UID
from repro.guestos.uml import UmlState, UserModeLinux
from repro.host.bridge import BridgingModule, ProxyModule
from repro.host.machine import Host
from repro.host.reservation import ReservationError, ResourceVector
from repro.host.traffic import TrafficShaper
from repro.image.repository import ImageRepository, UnknownImage
from repro.net.http import HttpModel
from repro.net.ip import IPAddressPool, IPPoolExhausted
from repro.net.lan import LAN
from repro.obs.metrics import DAEMON_PRIMING, registry_of
from repro.sim.kernel import Event, Simulator

__all__ = ["SODADaemon"]


class SODADaemon:
    """One per HUP host."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        lan: LAN,
        ip_pool: IPAddressPool,
        networking: Optional[Union[BridgingModule, ProxyModule]] = None,
    ):
        if host.nic is None:
            raise ValueError(f"host {host.name!r} is not attached to the LAN")
        self.sim = sim
        self.host = host
        self.lan = lan
        self.http = HttpModel(sim, lan)
        self.ip_pool = ip_pool
        self.networking = networking or BridgingModule(host.name)
        self.shaper = TrafficShaper(host.name)
        self.nodes_primed = 0
        self.download_seconds_total = 0.0

    # -- reporting (SODA Master pull, §3.2) ---------------------------------
    def report_availability(self) -> ResourceVector:
        return self.host.reservations.available

    # -- observability --------------------------------------------------------
    def _obs_stage(self, stage: str) -> None:
        """Count one priming stage reached (observes, never perturbs)."""
        registry = registry_of(self.sim)
        if registry is not None:
            registry.series[DAEMON_PRIMING, self.host.name, stage].inc()

    # -- priming ------------------------------------------------------------
    def prime(
        self,
        service_name: str,
        repository: ImageRepository,
        image_name: str,
        units: int,
        unit_vector: ResourceVector,
        machine: MachineConfig,
        node_index: int = 0,
        component: str = "",
    ) -> Generator[Event, Any, VirtualServiceNode]:
        """Create one virtual service node (simulated-process step).

        Steps: reserve the slice -> download the image -> tailor the
        rootfs -> boot the UML -> assign an IP and update the bridging
        module -> install the traffic-shaper share -> start the
        application entry point.  Any failure releases what was taken
        and raises :class:`PrimingError`.
        """
        node_name = f"{service_name}@{self.host.name}#{node_index}"
        node_vector = unit_vector.scaled(float(units))
        try:
            reservation = self.host.reservations.reserve(
                node_vector, label=f"node:{node_name}"
            )
        except ReservationError as exc:
            self._obs_stage("reservation_failed")
            raise PrimingError(f"{node_name}: reservation failed: {exc}") from exc
        self._obs_stage("slice_reserved")

        ip = None
        vm = None
        try:
            # Active service image downloading (§4.3).
            try:
                image = repository.get(image_name)
            except UnknownImage as exc:
                raise PrimingError(f"{node_name}: unknown image {image_name!r}") from exc
            download = yield from repository.download(
                self.http, self.host.nic, image_name
            )
            self.download_seconds_total += download.elapsed
            self._obs_stage("image_downloaded")

            # Customization + automatic bootstrapping (§4.3).  For a
            # partitionable service, each node boots only its own
            # component's rootfs (§3.5 extension).
            if component:
                tailored = image.component_rootfs(component)
                entrypoint = next(
                    c.entrypoint for c in image.components if c.name == component
                )
            else:
                tailored = image.tailored_rootfs()
                entrypoint = image.entrypoint
            vm = UserModeLinux(
                self.sim,
                name=node_name,
                host=self.host,
                rootfs=tailored,
                guest_mem_mb=machine.mem_mb * units,
            )
            self._obs_stage("rootfs_tailored")
            try:
                yield from vm.boot()
            except Exception as exc:
                self._obs_stage("boot_failed")
                raise PrimingError(f"{node_name}: boot failed: {exc}") from exc
            assert vm.boot_plan is not None
            self._obs_stage("guest_booted")

            # Dynamic configuration for internetworking (§4.3).
            try:
                ip = self.ip_pool.allocate()
            except IPPoolExhausted as exc:
                raise PrimingError(f"{node_name}: {exc}") from exc
            vm.ip = ip
            proxy = None
            if isinstance(self.networking, BridgingModule):
                endpoint = self.networking.register(ip, vm)
                endpoint = type(endpoint)(ip=ip, port=image.port)
            else:
                endpoint = self.networking.register(vm)
                proxy = self.networking

            # Outbound bandwidth share (§4.2): the reserved (inflated)
            # bandwidth of this slice, keyed by the node's source IP.
            self.shaper.install(ip, node_vector.bw_mbps)

            # Start the application service inside the guest.
            vm.processes.spawn(command=entrypoint, uid=GUEST_ROOT_UID, user="root")

            node = VirtualServiceNode(
                sim=self.sim,
                name=node_name,
                vm=vm,
                lan=self.lan,
                endpoint=endpoint,
                units=units,
                worker_mhz=machine.cpu_mhz * SLOWDOWN_INFLATION,
                reservation=reservation,
                shaper=self.shaper,
                proxy=proxy,
                vulnerable=(image.app_kind == "honeypot"),
                entrypoint=entrypoint,
                component=component,
                daemon=self,
            )
            self.nodes_primed += 1
            self._obs_stage("node_primed")
            return node
        except PrimingError:
            # Roll back whatever was acquired.
            if ip is not None:
                self.ip_pool.release(ip)
                if isinstance(self.networking, BridgingModule):
                    try:
                        self.networking.unregister(ip)
                    except KeyError:
                        pass
            if vm is not None and vm.state in (UmlState.RUNNING, UmlState.CRASHED):
                vm.shutdown()
            reservation.release()
            raise

    # -- resizing -----------------------------------------------------------
    def resize_node(
        self, node: VirtualServiceNode, units: int, unit_vector: ResourceVector
    ) -> None:
        """Adjust a node's slice in place (§3.4's first resizing option)."""
        if node.host is not self.host:
            raise PrimingError(f"node {node.name} is not on host {self.host.name!r}")
        new_vector = unit_vector.scaled(float(units))
        # No simulated time passes inside this call, so releasing the old
        # slice and reserving the new one is atomic with respect to other
        # priming activity; on failure the old slice is restored.
        old = node.reservation
        old_vector = old.vector
        old.release()
        try:
            replacement = self.host.reservations.reserve(
                new_vector, label=f"node:{node.name}"
            )
        except ReservationError as exc:
            restored = self.host.reservations.reserve(
                old_vector, label=f"node:{node.name}"
            )
            node.reservation = restored
            raise PrimingError(
                f"host {self.host.name!r} cannot resize node {node.name} "
                f"to {units} units: {exc}"
            ) from exc
        # Hand the node a still-live placeholder so resize() releases the
        # replacement bookkeeping consistently.
        node.reservation = replacement
        node.units = units
        node.workers.resize(units)
        self.shaper.install(node.source_ip, new_vector.bw_mbps)

    # -- recovery -------------------------------------------------------------
    def reboot_node(self, node: VirtualServiceNode) -> Generator[Event, Any, UserModeLinux]:
        """Replace a node's guest with a freshly booted one, in place.

        The slice reservation, endpoint and IP are unchanged: the old
        guest's memory is released, the new guest boots from the same
        tailored rootfs, the entrypoint respawns, and the bridge or
        proxy entry is repointed at the fresh guest.  A node torn down
        while its fresh guest booted gets no guest back.
        """
        if node.host is not self.host:
            raise PrimingError(f"node {node.name} is not on host {self.host.name!r}")
        old = node.vm
        fresh = UserModeLinux(
            self.sim,
            name=old.name,
            host=self.host,
            rootfs=old.rootfs,
            guest_mem_mb=old.guest_mem_mb,
            syscall_model=old.syscalls,
        )
        if old.state in (UmlState.RUNNING, UmlState.CRASHED):
            old.shutdown()
        yield from fresh.boot()
        if node.torn_down:
            fresh.shutdown()
            return fresh
        fresh.ip = old.ip
        fresh.processes.spawn(command=node.entrypoint, uid=GUEST_ROOT_UID, user="root")
        if isinstance(self.networking, BridgingModule):
            self.networking.unregister(fresh.ip)
            self.networking.register(fresh.ip, fresh)
        else:
            self.networking.unregister(node.endpoint.port)
            self.networking.register(fresh, port=node.endpoint.port)
        node.vm = fresh
        return fresh

    # -- teardown --------------------------------------------------------------
    def teardown_node(self, node: VirtualServiceNode) -> None:
        """Tear down a node this daemon primed."""
        if node.host is not self.host:
            raise PrimingError(f"node {node.name} is not on host {self.host.name!r}")
        node.teardown()
        if isinstance(self.networking, BridgingModule):
            try:
                self.networking.unregister(node.source_ip)
            except KeyError:
                pass
        else:
            try:
                self.networking.unregister(node.endpoint.port)
            except KeyError:
                pass
        try:
            self.shaper.remove(node.source_ip)
        except KeyError:
            pass
        self.ip_pool.release(node.source_ip)
