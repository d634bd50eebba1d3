"""Client-side request accounting shared by the run harnesses.

The scenario harness (:mod:`repro.scenario.run`) and the chaos harness
(:mod:`repro.faults.chaos`) serve every request through one
:class:`RequestLedger`, so both classify outcomes with the same
shed / timeout / failed / ok ladder and conserve
``served + failed + shed == issued`` the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Iterable, List, Tuple

from repro.core.errors import RequestSheddedError, RequestTimeoutError, SODAError
from repro.sim.kernel import Event, Simulator

__all__ = ["ClassStats", "RequestLedger"]


@dataclass
class ClassStats:
    """Request accounting for one tenant (or service class)."""

    issued: int = 0
    served: int = 0
    failed: int = 0
    shed: int = 0
    timeouts: int = 0  # sub-count of failed

    @property
    def accounted(self) -> int:
        return self.served + self.failed + self.shed

    @property
    def availability(self) -> float:
        """Fraction of issued requests that were served."""
        return self.served / self.issued if self.issued else 1.0


class RequestLedger:
    """Every request a harness serves, filed under its tenant.

    Holds per-tenant :class:`ClassStats`, one ``(time since start,
    tenant, "ok" | "failed" | "shed")`` tuple per request, and each
    tenant's response-time ``[sum, max]`` as exact floats.  Callers
    count ``issued`` themselves, at the moment they decide to send.
    """

    def __init__(self, sim: Simulator, tenants: Iterable[str]):
        self.sim = sim
        self.start = sim.now
        self.stats: Dict[str, ClassStats] = {tenant: ClassStats() for tenant in tenants}
        self.outcomes: List[Tuple[float, str, str]] = []
        self.response_s: Dict[str, List[float]] = {tenant: [0.0, 0.0] for tenant in self.stats}

    def _record(self, tenant: str, outcome: str) -> None:
        self.outcomes.append((self.sim.now - self.start, tenant, outcome))

    def shed(self, tenant: str) -> None:
        """File one request for ``tenant`` as shed (by the switch, or by
        the caller before it ever reaches one)."""
        self.stats[tenant].shed += 1
        self._record(tenant, "shed")

    def serve(self, tenant: str, switch, request) -> Generator[Event, Any, None]:
        """Serve ``request`` through ``switch`` and file its outcome."""
        stats = self.stats[tenant]
        issued_at = self.sim.now
        try:
            yield from switch.serve(request)
        except RequestSheddedError:
            self.shed(tenant)
        except SODAError as exc:
            stats.failed += 1
            if isinstance(exc, RequestTimeoutError):
                stats.timeouts += 1
            self._record(tenant, "failed")
        else:
            stats.served += 1
            elapsed = self.sim.now - issued_at
            totals = self.response_s[tenant]
            totals[0] += elapsed
            totals[1] = max(totals[1], elapsed)
            self._record(tenant, "ok")
