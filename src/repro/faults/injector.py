"""Arms a :class:`~repro.faults.schedule.FaultSchedule` against a testbed.

One simulated process per fault event sleeps until the event's instant
and then mutates the platform — crashing guests, stalling links,
degrading the segment — and, for durable faults, restores the nominal
condition when the duration elapses.  Every action is appended to a
plain-tuple :attr:`FaultInjector.log`, which is the comparable artefact
the determinism guard pins: same seed + same schedule ⇒ identical log.

Observability: injections emit spans (lane ``faults``) and a
``soda_faults_injected_total`` counter, but never *schedule* anything —
the obs stack observes the injection processes that exist anyway, so
digests stay bit-identical with obs on or off.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.node import VirtualServiceNode
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule
from repro.guestos.uml import UmlState
from repro.net.lan import LAN
from repro.obs.metrics import FAULTS_INJECTED, registry_of
from repro.obs.tracing import tracer_of
from repro.sim.kernel import Event, Process, Simulator

__all__ = ["FaultInjector"]


class FaultInjector:
    """Executes fault events against live nodes and the LAN."""

    def __init__(
        self,
        sim: Simulator,
        lan: LAN,
        nodes: Sequence[VirtualServiceNode] = (),
        wan_links: Sequence[Any] = (),
    ):
        self.sim = sim
        self.lan = lan
        self.nodes: List[VirtualServiceNode] = list(nodes)
        # WAN links registered by name: a LINK_STALL whose target names
        # one of these freezes the whole link (both gateway NICs) via
        # WanLink.stall()/restore() instead of a single LAN NIC.
        self.wan_links: Dict[str, Any] = {link.name: link for link in wan_links}
        #: (time, kind value, target, phase) — phase is "inject",
        #: "restore", or "skip" (target not in a faultable state).
        self.log: List[Tuple[float, str, str, str]] = []
        self.injected: Dict[str, int] = {}
        # LAN_DEGRADE restores to the bandwidth seen at arm time; with
        # overlapping degrades the *last* restore wins (counted so the
        # nominal rate only returns when every degrade has lapsed).
        self._nominal_bandwidth = lan.bandwidth_mbps
        self._degrades_active = 0

    def add_nodes(self, nodes: Sequence[VirtualServiceNode]) -> None:
        self.nodes.extend(nodes)

    def add_wan_link(self, link: Any) -> None:
        """Register a :class:`~repro.net.wan.WanLink` as a stall target."""
        if link.name in self.wan_links:
            raise ValueError(f"WAN link {link.name!r} already registered")
        self.wan_links[link.name] = link

    # -- arming -------------------------------------------------------------
    def arm(self, schedule: FaultSchedule) -> List[Process]:
        """Start one background process per event; returns the processes.

        Event instants are *relative to arming* — a schedule written for
        ``at=5.0`` fires five simulated seconds after ``arm`` is called,
        however long deployment took to reach that point.
        """
        base = self.sim.now
        return [
            self.sim.process(
                self._fire(event, base), name=f"fault:{event.kind.value}"
            )
            for event in schedule
        ]

    # -- bookkeeping --------------------------------------------------------
    def _record(self, kind: FaultKind, target: str, phase: str) -> None:
        self.log.append((self.sim.now, kind.value, target, phase))
        if phase == "inject":
            self.injected[kind.value] = self.injected.get(kind.value, 0) + 1
            registry = registry_of(self.sim)
            if registry is not None:
                registry.series[FAULTS_INJECTED, kind.value].inc()

    def _span(self, event: FaultEvent):
        tracer = tracer_of(self.sim)
        if tracer is None:
            return None
        return tracer.start_span(
            f"fault:{event.kind.value}", lane="faults", start=self.sim.now,
            target=event.target,
        )

    # -- the per-event process ---------------------------------------------
    def _fire(self, event: FaultEvent, base: float) -> Generator[Event, Any, None]:
        if base + event.at > self.sim.now:
            yield self.sim.timeout(base + event.at - self.sim.now)
        if event.kind is FaultKind.NODE_CRASH:
            self._crash_node(event)
            return
        span = None
        if event.kind is FaultKind.HOST_OUTAGE:
            span = self._host_outage(event)
        elif event.kind is FaultKind.LINK_STALL:
            span = self._link_stall_start(event)
        elif event.kind is FaultKind.LAN_DEGRADE:
            span = self._degrade_start(event)
        elif event.kind is FaultKind.PARTITION:
            span = self._partition_start(event)
        yield self.sim.timeout(event.duration_s)
        if event.kind is FaultKind.LINK_STALL and event.target in self.wan_links:
            self.wan_links[event.target].restore()
        elif event.kind is FaultKind.HOST_OUTAGE or event.kind is FaultKind.LINK_STALL:
            self.lan.unstall_nic(self.lan.find_nic(event.target))
        elif event.kind is FaultKind.LAN_DEGRADE:
            self._degrades_active -= 1
            if self._degrades_active == 0:
                self.lan.set_bandwidth(self._nominal_bandwidth)
        elif event.kind is FaultKind.PARTITION:
            self.lan.heal_partition()
        self._record(event.kind, event.target, "restore")
        if span is not None:
            span.finish(self.sim.now)

    def _node_named(self, name: str) -> Optional[VirtualServiceNode]:
        for node in self.nodes:
            if node.name == name:
                return node
        return None

    def _crash_node(self, event: FaultEvent) -> None:
        node = self._node_named(event.target)
        if (
            node is None
            or node.torn_down
            or node.vm.state not in (UmlState.RUNNING, UmlState.BOOTING)
        ):
            # Already crashed / stopped / unknown: a fault that finds
            # nothing to break is logged, not an error — random
            # campaigns may well hit the same node twice.
            self._record(event.kind, event.target, "skip")
            return
        span = self._span(event)
        node.vm.crash(cause=f"fault-injection@{event.at:g}")
        self._record(event.kind, event.target, "inject")
        if span is not None:
            span.finish(self.sim.now)

    def _host_outage(self, event: FaultEvent):
        """Crash every guest on the host and darken its link."""
        span = self._span(event)
        for node in self.nodes:
            if (
                node.host.name == event.target
                and not node.torn_down
                and node.vm.state in (UmlState.RUNNING, UmlState.BOOTING)
            ):
                node.vm.crash(cause=f"host-outage@{event.at:g}")
        self.lan.stall_nic(self.lan.find_nic(event.target))
        self._record(event.kind, event.target, "inject")
        return span

    def _link_stall_start(self, event: FaultEvent):
        span = self._span(event)
        if event.target in self.wan_links:
            self.wan_links[event.target].stall()
        else:
            self.lan.stall_nic(self.lan.find_nic(event.target))
        self._record(event.kind, event.target, "inject")
        return span

    def _degrade_start(self, event: FaultEvent):
        span = self._span(event)
        self._degrades_active += 1
        self.lan.set_bandwidth(self._nominal_bandwidth * event.factor)
        self._record(event.kind, event.target, "inject")
        return span

    def _partition_start(self, event: FaultEvent):
        span = self._span(event)
        group = [self.lan.find_nic(name) for name in event.target.split("|")]
        self.lan.partition(group)
        self._record(event.kind, event.target, "inject")
        return span
