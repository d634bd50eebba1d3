"""Penalty settlement: violation records become billing credits.

The contract's :class:`~repro.sla.contract.PenaltySchedule` prices each
recorded :class:`~repro.sla.monitor.SLAViolation`; a
:class:`PenaltySettler` converts a monitor's violation stream into
:class:`~repro.core.billing.CreditNote` entries on the
:class:`~repro.core.billing.BillingLedger`, so the ASP's invoice nets
out accrual minus SLA credits.  Settlement is incremental and
idempotent per violation: settling twice never double-credits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence

from repro.core.billing import BillingLedger
from repro.obs import ambient_registry
from repro.obs.metrics import SLA_CREDIT
from repro.sla.contract import PenaltySchedule

if TYPE_CHECKING:  # annotations only
    from repro.sla.monitor import SLAViolation

__all__ = ["Settlement", "credit_for_violations", "PenaltySettler"]


@dataclass(frozen=True)
class Settlement:
    """Outcome of one settlement pass for one service."""

    service: str
    settled_at: float
    n_violations: int
    credit: float
    capped: bool


def credit_for_violations(
    schedule: PenaltySchedule,
    n_violations: int,
    gross: float,
    already_credited: float = 0.0,
) -> float:
    """Credit owed for ``n_violations`` new breaches.

    The uncapped credit is ``n * credit_per_violation``; the total
    credited against a service never exceeds ``cap_fraction * gross``
    (an SLA refunds charges, it never inverts the invoice).
    """
    if n_violations < 0:
        raise ValueError(f"violation count cannot be negative: {n_violations}")
    if gross < 0 or already_credited < 0:
        raise ValueError("gross and credited amounts cannot be negative")
    uncapped = schedule.credit_per_violation * n_violations
    headroom = max(0.0, schedule.cap_fraction * gross - already_credited)
    return min(uncapped, headroom)


class PenaltySettler:
    """Incrementally settles violation streams into ledger credits."""

    def __init__(self, ledger: BillingLedger):
        self.ledger = ledger
        self._settled: Dict[str, int] = {}  # service -> violations already priced
        self.settlements: list = []

    def settled_count(self, service: str) -> int:
        return self._settled.get(service, 0)

    def settle(
        self,
        service: str,
        asp: str,
        schedule: PenaltySchedule,
        violations: Sequence[SLAViolation],
        now: float,
    ) -> Settlement:
        """Price every not-yet-settled violation and post the credit.

        ``violations`` is the monitor's append-only record list; only
        entries beyond the last settled index are priced.
        """
        start = self._settled.get(service, 0)
        fresh = list(violations[start:])
        gross = self.ledger.service_gross(service, now)
        already = self.ledger.credit_total(service=service)
        credit = credit_for_violations(
            schedule, len(fresh), gross, already_credited=already
        )
        capped = credit < schedule.credit_per_violation * len(fresh)
        if credit > 0:
            kinds = sorted({v.kind for v in fresh})
            self.ledger.add_credit(
                service=service,
                asp=asp,
                now=now,
                amount=credit,
                reason=f"SLA: {len(fresh)} violation(s) [{', '.join(kinds)}]",
            )
            # The settler has no simulator handle, so its credit counter
            # reports through the ambiently active observability hub.
            registry = ambient_registry()
            if registry is not None:
                registry.series[SLA_CREDIT, service].inc(credit)
        self._settled[service] = start + len(fresh)
        settlement = Settlement(
            service=service,
            settled_at=now,
            n_violations=len(fresh),
            credit=credit,
            capped=capped,
        )
        self.settlements.append(settlement)
        return settlement
