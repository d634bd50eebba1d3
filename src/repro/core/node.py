"""Virtual service nodes and client requests.

A :class:`VirtualServiceNode` is the unit the SODA Master allocates and
the service switch dispatches to: one UML guest holding a reserved
slice of a HUP host, with a capacity of one or more machine instances
``M`` (paper §3.2).  Serving a request costs guest CPU time (through
the syscall interposition model) and LAN bandwidth (the response body
flows from the node's host NIC to the client, subject to the host
traffic shaper's per-IP cap).

Capacity semantics: a node of capacity ``k`` runs ``k`` server workers;
each worker delivers the compute rate of one *inflated* machine
instance (``M.cpu × 1.5``), so that after the UML application-level
slow-down (~1.4x, Figure 6) a worker nets out at roughly native-M
speed — exactly the intent of the paper's inflation factor
(footnote 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.core.errors import SODAError
from repro.obs.metrics import NODE_FAILED, NODE_INFLIGHT, NODE_SERVED, registry_of
from repro.obs.tracing import tracer_of
from repro.guestos.syscall import SyscallMix
from repro.guestos.uml import UML_NETWORK_EFFICIENCY, UmlState, UserModeLinux
from repro.host.bridge import Endpoint, ProxyModule
from repro.host.reservation import Reservation
from repro.host.traffic import TrafficShaper
from repro.net.http import TCP_EFFICIENCY
from repro.net.lan import LAN
from repro.sim.kernel import Event, Simulator
from repro.sim.monitor import Monitor

if TYPE_CHECKING:  # the daemon module imports this one
    from repro.core.daemon import SODADaemon

__all__ = ["Request", "NodeResponse", "ServiceUnavailableError", "VirtualServiceNode"]


class ServiceUnavailableError(SODAError):
    """The target node is not running (crashed or torn down)."""


class ExploitSucceeded(SODAError):
    """An exploit request compromised the node (attacker-side outcome)."""

    def __init__(self, node: "VirtualServiceNode"):
        super().__init__(f"exploit succeeded against {node.name}")
        self.node = node


@dataclass(frozen=True)
class Request:
    """One client request.

    ``component`` targets one component of a partitionable service
    (§3.5 extension); empty means any replica can serve it.

    ``trace`` carries the request's root :class:`~repro.obs.tracing.Span`
    (or ``None`` when tracing is off) across the serving path so every
    hop parents its segment spans correctly; it is excluded from
    equality, being observability context rather than request content.
    """

    client: Any  # NetworkInterface of the requesting client
    response_mb: float
    mix: SyscallMix
    is_exploit: bool = False
    label: str = ""
    component: str = ""
    trace: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        # NaN fails every comparison, so a plain ``< 0`` check would let
        # it through and the node would serve it with no response body.
        if not (math.isfinite(self.response_mb) and self.response_mb >= 0):
            raise ValueError(
                f"response size must be finite and non-negative, got {self.response_mb}"
            )

    def with_trace(self, trace: Any) -> "Request":
        """A copy of this request carrying ``trace``.

        Every other field was validated when this request was built, so
        the copy takes the instance dict as is instead of re-running
        ``__init__``/``__post_init__`` the way ``dataclasses.replace``
        would — this runs once per traced request.
        """
        clone = object.__new__(type(self))
        fields = clone.__dict__
        fields.update(self.__dict__)
        fields["trace"] = trace
        return clone


@dataclass(frozen=True)
class NodeResponse:
    """Outcome of one served request."""

    node_name: str
    started_at: float
    finished_at: float
    service_time_s: float
    response_mb: float

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at


class VirtualServiceNode:
    """One virtual service node: UML guest + reserved slice + workers."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        vm: UserModeLinux,
        lan: LAN,
        endpoint: Endpoint,
        units: int,
        worker_mhz: float,
        reservation: Optional[Reservation] = None,
        shaper: Optional[TrafficShaper] = None,
        proxy: Optional["ProxyModule"] = None,
        vulnerable: bool = False,
        native: bool = False,
        entrypoint: str = "",
        component: str = "",
        daemon: Optional["SODADaemon"] = None,
    ):
        if units < 1:
            raise ValueError(f"units must be >= 1, got {units}")
        if worker_mhz <= 0:
            raise ValueError(f"worker_mhz must be positive, got {worker_mhz}")
        from repro.sim.resources import Resource  # local import avoids cycle at module load

        self.sim = sim
        self.name = name
        self.vm = vm
        self.lan = lan
        self.endpoint = endpoint
        self.units = units
        self.worker_mhz = worker_mhz
        self.reservation = reservation
        self.shaper = shaper
        # Proxy-mode networking (footnote 3): every request's payload is
        # relayed through a host process, costing host CPU per MB.
        self.proxy = proxy
        self.vulnerable = vulnerable
        # ``native`` models the Figure 6 baseline: the service runs
        # directly on the host OS, so no syscall interposition penalty.
        self.native = native
        # The application command started in the guest; recovery reboots
        # re-spawn it.
        self.entrypoint = entrypoint
        # Component of a partitionable service this node hosts ("" for
        # fully replicated services).
        self.component = component
        # The SODA Daemon that primed this node; it also reboots it.
        self.daemon = daemon
        self.workers = Resource(sim, capacity=units)
        self.inflight = 0
        self.served = 0
        self.failed = 0
        self.response_times = Monitor(f"{name}:service")
        self._resp_label = f"{name}:resp"  # response flows' LAN label
        self.torn_down = False

    @property
    def host(self):
        return self.vm.host

    @property
    def ip(self) -> str:
        """Client-facing IP (the host's IP in proxy mode)."""
        return self.endpoint.ip

    @property
    def source_ip(self) -> str:
        """The guest's own IP — the traffic shaper's key (§4.2)."""
        return self.vm.ip if self.vm.ip is not None else self.endpoint.ip

    @property
    def is_available(self) -> bool:
        """Dispatchable iff not torn down and the guest is RUNNING.

        This is the single state gate the switch and the serve path
        consult: CREATED / BOOTING / CRASHED / STOPPED guests never
        accept requests (pinned by ``tests/core/test_node_states.py``).
        """
        return (not self.torn_down) and self.vm.state is UmlState.RUNNING

    # -- serving ---------------------------------------------------------
    def serve(self, request: Request) -> Generator[Event, Any, NodeResponse]:
        """Serve one request; response body is delivered to the client.

        Raises :class:`ServiceUnavailableError` if the node is down, and
        :class:`ExploitSucceeded` if an exploit request lands on a
        vulnerable service (the node is compromised but NOT crashed —
        the attacker decides what to do with its shell).
        """
        registry = registry_of(self.sim)
        if registry is not None:
            # All three bound on the node's first request, so its
            # exposition shows a zero failed count rather than none.
            inflight = registry.series[NODE_INFLIGHT, self.name]
            served = registry.series[NODE_SERVED, self.name]
            failed = registry.series[NODE_FAILED, self.name]
        if not self.is_available:
            self.failed += 1
            if registry is not None:
                failed.inc()
            raise ServiceUnavailableError(f"node {self.name} is not running")
        started = self.sim.now
        # Observability: the node contributes the queue_wait, cpu_service
        # and tx segments of the request's trace, each starting exactly
        # where the previous one ended so the segments tile the request.
        # A segment opens only while the root is open: after a timeout
        # closed it, this abandoned attempt still runs but adds no span.
        tracer = tracer_of(self.sim)
        root = request.trace if tracer is not None else None
        queue_span = cpu_span = tx_span = None
        if root is not None and not root.finished:
            queue_span = tracer.start_span(
                "queue_wait", lane=self.name, start=started, parent=root
            )
        self.inflight += 1
        if registry is not None:
            inflight.inc()
        slot = self.workers.request()
        try:
            yield slot
            if not self.is_available:
                # Crashed while queued.
                self.failed += 1
                if registry is not None:
                    failed.inc()
                if queue_span is not None:
                    queue_span.finish(self.sim.now, "failed")
                raise ServiceUnavailableError(f"node {self.name} died while queued")
            if request.is_exploit and self.vulnerable:
                # ghttpd buffer overflow: bind a shell as *guest* root.
                if queue_span is not None:
                    queue_span.finish(self.sim.now, "failed")
                self.vm.exploit()
                self.vm.processes.spawn(command="/bin/sh (bound shell)", uid=0, user="root")
                raise ExploitSucceeded(self)
            if queue_span is not None:
                queue_span.finish(self.sim.now)
                if not root.finished:
                    cpu_span = tracer.start_span(
                        "cpu_service", lane=self.name, start=self.sim.now, parent=root
                    )
            service_time = self.vm.syscalls.mix_time_s(
                request.mix, self.worker_mhz, in_uml=not self.native
            )
            if self.proxy is not None:
                service_time += self.proxy.relay_cost(
                    request.response_mb, self.host.cpu_mhz
                )
            yield self.sim.timeout(service_time)
            if cpu_span is not None:
                cpu_span.finish(self.sim.now)
                if not root.finished:
                    tx_span = tracer.start_span(
                        "tx", lane=self.name, start=self.sim.now, parent=root
                    )
            # Response body: node's host NIC -> client, shaped per the
            # guest's source IP.  A UML guest additionally cannot drive
            # the wire at full rate (§3.2's network-transmission
            # slow-down) — the Figure 6 effect.
            caps = []
            if self.shaper is not None:
                shaped = self.shaper.cap_for(self.source_ip)
                if shaped is not None:
                    caps.append(shaped)
            if not self.native:
                caps.append(self.host.nic.rate_mbps * UML_NETWORK_EFFICIENCY)
            cap = min(caps) if caps else None
            wire_mb = request.response_mb / TCP_EFFICIENCY
            if wire_mb > 0:
                flow = self.lan.transfer(
                    self.host.nic, request.client, wire_mb, rate_cap_mbps=cap,
                    label=self._resp_label,
                )
                yield flow.done
            else:
                # Empty body: header-only response, one propagation delay.
                yield self.sim.timeout(self.lan.latency_s)
            if tx_span is not None:
                tx_span.finish(self.sim.now)
            self.served += 1
            if registry is not None:
                served.inc()
            response = NodeResponse(
                node_name=self.name,
                started_at=started,
                finished_at=self.sim.now,
                service_time_s=service_time,
                response_mb=request.response_mb,
            )
            self.response_times.record(self.sim.now, response.elapsed)
            return response
        finally:
            self.inflight -= 1
            if registry is not None:
                inflight.dec()
            self.workers.release(slot)

    # -- lifecycle ------------------------------------------------------------
    def resize(self, units: int, reservation: Reservation) -> None:
        """Change capacity in place (SODA_service_resizing path).

        The caller (SODA Daemon) supplies the replacement reservation;
        the old one is released here.
        """
        if units < 1:
            raise ValueError(f"units must be >= 1, got {units}")
        old = self.reservation
        self.reservation = reservation
        self.units = units
        self.workers.resize(units)
        old.release()

    def teardown(self) -> None:
        """Stop the VM and release the slice."""
        if self.torn_down:
            raise SODAError(f"node {self.name} already torn down")
        self.torn_down = True
        if self.vm.state in (UmlState.RUNNING, UmlState.CRASHED):
            self.vm.shutdown()
        if self.reservation is not None:
            self.reservation.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VirtualServiceNode({self.name!r}, {self.endpoint}, units={self.units}, "
            f"host={self.host.name!r})"
        )
