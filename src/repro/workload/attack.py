"""The ghttpd buffer-overflow attack campaign.

Paper §2.1: "one known attack to ghttpd is: a malicious packet is sent
as an HTTP request, causing buffer overflow to bind a shell on a
certain port.  Then the attacker can remotely log in using the port,
and run a remote shell!  With SODA, since the root that runs ghttpd is
the root of the *guest OS*, not the host OS, the attack will *not*
affect the host OS as well as other services."

§5's attack-isolation experiment: "the honeypot service is constantly
attacked and crashed.  However, the web content service is *not*
affected."  The campaign here reproduces that: each wave sends the
exploit, gains a guest-root shell, wreaks havoc (crashing the guest),
and verifies the blast radius stops at the guest boundary.  The crashed
honeypot VM is rebooted between waves (the honeypot's purpose is to
keep being attacked).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional

from repro.core.errors import SODAError
from repro.core.node import ExploitSucceeded, ServiceUnavailableError, VirtualServiceNode
from repro.core.switch import ServiceSwitch
from repro.net.lan import NetworkInterface
from repro.sim.kernel import Event, Simulator
from repro.workload.apps import honeypot_probe_request

__all__ = ["AttackOutcome", "AttackCampaign"]

# Attacker dwell time between gaining the shell and the guest kernel
# panicking under the attacker's rampage, seconds.
SHELL_SESSION_S = 0.5


@dataclass
class AttackOutcome:
    """What one campaign achieved — and what it provably did not."""

    waves: int = 0
    shells_bound: int = 0
    guest_crashes: int = 0
    host_compromises: int = 0  # stays 0: that is the isolation claim
    sibling_compromises: int = 0  # stays 0 likewise
    reboots: int = 0

    @property
    def contained(self) -> bool:
        """True iff all damage stayed inside the honeypot guest."""
        return self.host_compromises == 0 and self.sibling_compromises == 0


class AttackCampaign:
    """Repeatedly exploit and crash a vulnerable node."""

    def __init__(
        self,
        sim: Simulator,
        switch: ServiceSwitch,
        attacker: NetworkInterface,
        siblings: Optional[List[VirtualServiceNode]] = None,
    ):
        self.sim = sim
        self.switch = switch
        self.attacker = attacker
        self.siblings = siblings or []

    def run(self, waves: int) -> Generator[Event, Any, AttackOutcome]:
        """Run ``waves`` exploit-crash-reboot cycles."""
        if waves < 1:
            raise ValueError(f"waves must be >= 1, got {waves}")
        outcome = AttackOutcome()
        for _ in range(waves):
            outcome.waves += 1
            request = honeypot_probe_request(self.attacker, exploit=True)
            try:
                yield self.sim.process(self.switch.serve(request), name="exploit")
            except ExploitSucceeded as success:
                node = success.node
                outcome.shells_bound += 1
                # The attacker holds a guest-root shell for a while...
                yield self.sim.timeout(SHELL_SESSION_S)
                # ...tries to break out (provably cannot)...
                if node.vm.attacker_can_reach_host():
                    outcome.host_compromises += 1  # pragma: no cover
                for sibling in self.siblings:
                    if sibling.vm.compromised:
                        outcome.sibling_compromises += 1  # pragma: no cover
                # ...and crashes the guest; the honeypot operator has
                # its daemon restore the victim.
                node.vm.crash(cause="attacker rampage")
                outcome.guest_crashes += 1
                yield from node.daemon.reboot_node(node)
                outcome.reboots += 1
            except ServiceUnavailableError:
                # Victim still rebooting; try again shortly.
                yield self.sim.timeout(0.1)
            except SODAError:
                pass
        return outcome
