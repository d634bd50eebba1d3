"""Reactive autoscaling over SODA_service_resizing (extension).

The paper gives ASPs a resizing API (§4.1) but leaves *when* to call it
to the ASP.  :class:`ReactiveAutoscaler` is that missing controller: a
simulated process that periodically inspects the service's recent mean
response time and scales the ``<n, M>`` requirement up when the SLO is
threatened and down when capacity sits idle — the elasticity loop every
modern platform runs, built from nothing but the paper's own API.

SLA integration: :meth:`ReactiveAutoscaler.notify_breach` queues a
resize request from outside the latency loop (wired from an
:class:`~repro.sla.monitor.SLOMonitor` through a
:class:`~repro.sla.enforcement.BreachEscalator`); the next control
period scales up even if the latency window alone would not, so
sustained SLO violations force capacity instead of just credits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Tuple

from repro.core.agent import SODAAgent
from repro.core.auth import Credentials
from repro.core.errors import SODAError
from repro.image.repository import ImageRepository
from repro.sim.kernel import Event, Simulator

__all__ = ["AutoscalerConfig", "ScalingDecision", "ReactiveAutoscaler"]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Controller parameters."""

    target_response_s: float
    min_units: int = 1
    max_units: int = 4
    check_period_s: float = 20.0
    scale_up_at: float = 0.9  # fraction of target triggering +1
    scale_down_at: float = 0.4  # fraction of target allowing -1
    min_samples: int = 5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.target_response_s) and self.target_response_s > 0):
            raise ValueError(
                f"target response time must be positive and finite, "
                f"got {self.target_response_s}"
            )
        if not 1 <= self.min_units <= self.max_units:
            raise ValueError(
                f"need 1 <= min_units <= max_units, got {self.min_units}/{self.max_units}"
            )
        if not (math.isfinite(self.check_period_s) and self.check_period_s > 0):
            raise ValueError(
                f"check period must be positive and finite, got {self.check_period_s}"
            )
        if not 0 < self.scale_down_at < self.scale_up_at:
            raise ValueError("need 0 < scale_down_at < scale_up_at")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


@dataclass(frozen=True)
class ScalingDecision:
    """One controller action, for the audit trail."""

    time: float
    observed_response_s: float
    from_units: int
    to_units: int
    reason: str


class ReactiveAutoscaler:
    """Periodically resizes one service based on observed latency."""

    def __init__(
        self,
        sim: Simulator,
        agent: SODAAgent,
        credentials: Credentials,
        service_name: str,
        repository: ImageRepository,
        config: AutoscalerConfig,
    ):
        self.sim = sim
        self.agent = agent
        self.credentials = credentials
        self.service_name = service_name
        self.repository = repository
        self.config = config
        self.decisions: List[ScalingDecision] = []
        self.capacity_timeline: List[Tuple[float, int]] = []
        # SLA breach requests queued for the next control period.
        self._pending_breaches: List[Any] = []

    def notify_breach(self, violation: Any = None) -> None:
        """Request a scale-up at the next control period (SLA hook).

        ``violation`` is typically an :class:`~repro.sla.monitor.SLAViolation`
        but any object (or None) is accepted; only its ``observed``
        attribute, if present, is used for the audit trail.
        """
        self._pending_breaches.append(violation)

    def _recent_mean_response(self, window_start: float) -> Optional[float]:
        record = self.agent.master.get_service(self.service_name)
        monitor = record.switch.response_times
        # The window is half-open; its end is the next float after now,
        # so a sample recorded this instant counts at any horizon.
        window = monitor.window(window_start, math.nextafter(self.sim.now, math.inf))
        if window.count < self.config.min_samples:
            return None
        return window.mean()

    def run(self, duration_s: float) -> Generator[Event, Any, List[ScalingDecision]]:
        """The control loop (a simulated process)."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        config = self.config
        deadline = self.sim.now + duration_s
        record = self.agent.master.get_service(self.service_name)
        self.capacity_timeline.append((self.sim.now, record.total_units))
        while self.sim.now < deadline:
            window_start = self.sim.now
            yield self.sim.timeout(config.check_period_s)
            observed = self._recent_mean_response(window_start)
            breaches, self._pending_breaches = self._pending_breaches, []
            if observed is None and not breaches:
                continue
            record = self.agent.master.get_service(self.service_name)
            units = record.total_units
            target = None
            reason = ""
            if breaches:
                # A breach request overrides the latency heuristics: the
                # SLO is already violated, never scale down now.
                if units < config.max_units:
                    target, reason = units + 1, "sla breach"
            elif observed > config.scale_up_at * config.target_response_s:
                if units < config.max_units:
                    target, reason = units + 1, "latency above threshold"
            elif observed < config.scale_down_at * config.target_response_s:
                if units > config.min_units:
                    target, reason = units - 1, "capacity idle"
            if target is None:
                continue
            if observed is None:
                # Breach-triggered with an empty latency window: audit
                # with the violation's own observed value.
                observed = float(getattr(breaches[-1], "observed", float("nan")))
            try:
                yield from self.agent.service_resizing(
                    self.credentials, self.service_name, self.repository, target
                )
            except SODAError:
                continue  # e.g. the HUP is full; try again next period
            self.decisions.append(
                ScalingDecision(
                    time=self.sim.now,
                    observed_response_s=observed,
                    from_units=units,
                    to_units=target,
                    reason=reason,
                )
            )
            self.capacity_timeline.append((self.sim.now, target))
        return self.decisions

    @property
    def scale_ups(self) -> int:
        return sum(1 for d in self.decisions if d.to_units > d.from_units)

    @property
    def scale_downs(self) -> int:
        return sum(1 for d in self.decisions if d.to_units < d.from_units)

    @property
    def breach_resizes(self) -> int:
        """Resizes triggered by SLA breach notifications."""
        return sum(1 for d in self.decisions if d.reason == "sla breach")
