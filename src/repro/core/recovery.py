"""Crashed-node recovery (extension).

Paper §3.5 is explicit that SODA "only helps to 'jail' the impact of
fault or attack within one service instead of 'saving' the service" —
recovery is the operator's job.  This module is that operator: a
:class:`NodeWatchdog` polls a service's nodes and has the SODA Daemon
that primed a crashed guest re-boot it in place (same slice, same IP,
fresh guest OS; :meth:`~repro.core.daemon.SODADaemon.reboot_node`),
restoring the service without another full priming round.  Isolation guarantees make
this safe: a crash never corrupts anything outside the guest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generator, List

from repro.core.service import ServiceRecord
from repro.guestos.uml import UmlState
from repro.sim.kernel import Event, Simulator

__all__ = ["RebootRecord", "NodeWatchdog"]


@dataclass(frozen=True)
class RebootRecord:
    """One watchdog-driven recovery: detection instant to restored instant.

    ``detected_at`` is when the poll loop noticed the crash (so the true
    outage started up to one poll period earlier); ``restored_at`` is
    when the fresh guest finished booting and the entrypoint respawned.
    """

    node: str
    detected_at: float
    restored_at: float

    @property
    def recovery_s(self) -> float:
        return self.restored_at - self.detected_at


class NodeWatchdog:
    """Polls a service's nodes; re-boots crashed guests."""

    def __init__(self, sim: Simulator, record: ServiceRecord, poll_s: float = 1.0):
        if not (math.isfinite(poll_s) and poll_s > 0):
            raise ValueError(f"poll period must be positive and finite, got {poll_s}")
        self.sim = sim
        self.record = record
        self.poll_s = poll_s
        self.crashes_detected = 0
        self.reboots = 0
        self.history: List[RebootRecord] = []

    def watch(self, duration_s: float) -> Generator[Event, Any, None]:
        """Poll for ``duration_s`` simulated seconds (a sim process)."""
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        deadline = self.sim.now + duration_s
        while self.sim.now < deadline:
            for node in list(self.record.nodes):
                if node.torn_down:
                    continue
                if node.vm.state is UmlState.CRASHED:
                    self.crashes_detected += 1
                    detected_at = self.sim.now
                    yield from node.daemon.reboot_node(node)
                    self.reboots += 1
                    self.history.append(
                        RebootRecord(
                            node=node.vm.name,
                            detected_at=detected_at,
                            restored_at=self.sim.now,
                        )
                    )
            yield self.sim.timeout(self.poll_s)
