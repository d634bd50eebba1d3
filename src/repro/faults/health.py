"""Switch-side health checking: quarantine dead replicas, restore live ones.

The paper's service switch only skips a crashed node at dispatch time;
between the crash and the watchdog's reboot the node keeps getting
probed by dispatch decisions.  A :class:`SwitchHealthChecker` makes the
failure detection explicit: it periodically probes every back-end of
one switch — a tiny LAN round-trip raced against a timeout, so a node
behind a stalled link is detected as dead even though its guest OS is
fine — and flips the switch's quarantine set accordingly.  Quarantined
nodes stay behind the switch (the watchdog reboots them in place) but
receive no traffic until a probe succeeds again.
"""

from __future__ import annotations

import math
from typing import Any, Generator, List, Tuple

from repro.core.node import VirtualServiceNode
from repro.core.switch import ServiceSwitch
from repro.net.lan import LAN
from repro.obs.metrics import HEALTH_TRANSITIONS, registry_of
from repro.sim.kernel import Event, Simulator

__all__ = ["SwitchHealthChecker"]

# A health probe is a trivial request/ack exchange.
PROBE_SIZE_MB = 0.0005


class SwitchHealthChecker:
    """Periodically probes one switch's back-ends; manages quarantine."""

    def __init__(
        self,
        sim: Simulator,
        switch: ServiceSwitch,
        lan: LAN,
        period_s: float = 1.0,
        probe_timeout_s: float = 0.5,
    ):
        if not (math.isfinite(period_s) and period_s > 0):
            raise ValueError(f"period must be positive and finite, got {period_s}")
        if not (math.isfinite(probe_timeout_s) and probe_timeout_s > 0):
            raise ValueError(
                f"probe timeout must be positive and finite, got {probe_timeout_s}"
            )
        self.sim = sim
        self.switch = switch
        self.lan = lan
        self.period_s = period_s
        self.probe_timeout_s = probe_timeout_s
        self.probes = 0
        self.quarantines = 0
        self.recoveries = 0
        #: (time, node name, "quarantine" | "restore")
        self.log: List[Tuple[float, str, str]] = []

    def run(self, duration_s: float) -> Generator[Event, Any, None]:
        """Probe every back-end each period (a sim process)."""
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        deadline = self.sim.now + duration_s
        while self.sim.now < deadline:
            for node in list(self.switch.nodes):
                healthy = yield from self._probe(node)
                self._apply(node, healthy)
            yield self.sim.timeout(self.period_s)

    def _probe(self, node: VirtualServiceNode) -> Generator[Event, Any, bool]:
        """One liveness probe; True iff the node answered in time."""
        self.probes += 1
        if node.torn_down or not node.is_available:
            return False
        home_nic = self.switch.home_node.host.nic
        if node.host.nic is home_nic:
            # Co-located with the switch: no wire to fail, the state
            # check above is the whole probe.
            return True
        flow = self.lan.transfer(
            home_nic, node.host.nic, PROBE_SIZE_MB,
            label=f"health:{self.switch.service_name}:{node.name}",
        )
        guard = self.sim.timeout(self.probe_timeout_s)
        yield self.sim.any_of([flow.done, guard])
        # A stalled/partitioned link freezes the probe flow: the guard
        # fires first and the node is treated as unreachable even though
        # its guest is running.  The abandoned flow drains (harmlessly)
        # whenever the link comes back.
        return flow.done.triggered and node.is_available

    def _apply(self, node: VirtualServiceNode, healthy: bool) -> None:
        quarantined = node.name in self.switch.quarantined
        if healthy and quarantined:
            self.switch.unquarantine(node)
            self.recoveries += 1
            self.log.append((self.sim.now, node.name, "restore"))
            self._obs("restore")
        elif not healthy and not quarantined:
            self.switch.quarantine(node)
            self.quarantines += 1
            self.log.append((self.sim.now, node.name, "quarantine"))
            self._obs("quarantine")

    def _obs(self, action: str) -> None:
        registry = registry_of(self.sim)
        if registry is not None:
            registry.series[HEALTH_TRANSITIONS, self.switch.service_name, action].inc()
