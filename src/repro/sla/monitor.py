"""Runtime SLO monitoring.

The :class:`SLOMonitor` taps per-request outcomes from a service's
switch (success latency, failures, shed requests) into sliding windows
and periodically evaluates them against the service's
:class:`~repro.sla.contract.SLAContract`, emitting timestamped
:class:`SLAViolation` records.  Everything is driven off simulated time
and deterministic data structures, so two runs with the same seed
produce bit-identical violation streams.

The monitor never imports the control plane: it attaches to any object
exposing ``add_outcome_listener`` (duck-typed to
:class:`repro.core.switch.ServiceSwitch`), which keeps the SLA layer a
strict consumer of the serving path.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional

import numpy as np

from repro.obs.metrics import SLA_BREACHES, registry_of
from repro.sla.contract import SLAContract
from repro.sim.kernel import Event, Simulator

__all__ = ["OUTCOME_OK", "OUTCOME_FAILED", "OUTCOME_SHED", "SLAViolation", "SLOMonitor"]

# Request outcome tags delivered by the switch.
OUTCOME_OK = "ok"
OUTCOME_FAILED = "failed"
OUTCOME_SHED = "shed"


@dataclass(frozen=True)
class SLAViolation:
    """One detected breach of one objective at one evaluation instant."""

    time: float
    service: str
    kind: str  # "latency" | "availability" | "throughput"
    observed: float
    limit: float
    window_s: float
    detail: str = ""

    def __str__(self) -> str:
        return (
            f"t={self.time:.1f}s {self.service}: {self.kind} "
            f"{self.observed:.4g} vs limit {self.limit:.4g} "
            f"({self.detail or f'{self.window_s:g}s window'})"
        )


class SLOMonitor:
    """Sliding-window SLO evaluation for one service."""

    def __init__(
        self,
        sim: Simulator,
        service_name: str,
        contract: SLAContract,
        check_period_s: float = 5.0,
    ):
        if check_period_s <= 0:
            raise ValueError(f"check period must be positive, got {check_period_s}")
        self.sim = sim
        self.service_name = service_name
        self.contract = contract
        self.check_period_s = check_period_s
        # Time-sorted outcome streams (appends happen in sim-time order).
        self._ok_times: List[float] = []
        self._ok_latencies: List[float] = []
        self._fail_times: List[float] = []
        self._shed_times: List[float] = []
        # Cumulative counters for the compliance report.
        self.total_ok = 0
        self.total_failed = 0
        self.total_shed = 0
        self.first_shed_time: Optional[float] = None
        self.violations: List[SLAViolation] = []
        self.evaluations = 0
        self.breach_evaluations = 0
        self.breach_listeners: List[Callable[[SLAViolation], None]] = []

    # -- ingestion --------------------------------------------------------
    def attach(self, switch: Any) -> None:
        """Subscribe to a switch's per-request outcome feed."""
        switch.add_outcome_listener(self.observe)

    def observe(self, time: float, latency_s: Optional[float], outcome: str) -> None:
        """One request outcome (called by the switch)."""
        if outcome == OUTCOME_OK:
            if latency_s is None:
                raise ValueError("successful outcome needs a latency")
            self._ok_times.append(time)
            self._ok_latencies.append(latency_s)
            self.total_ok += 1
        elif outcome == OUTCOME_FAILED:
            self._fail_times.append(time)
            self.total_failed += 1
        elif outcome == OUTCOME_SHED:
            self._shed_times.append(time)
            self.total_shed += 1
            if self.first_shed_time is None:
                self.first_shed_time = time
        else:
            raise ValueError(f"unknown outcome {outcome!r}")

    # -- window arithmetic ------------------------------------------------
    @staticmethod
    def _count_since(times: List[float], start: float) -> int:
        return len(times) - bisect_left(times, start)

    def _latencies_since(self, start: float) -> List[float]:
        return self._ok_latencies[bisect_left(self._ok_times, start):]

    # -- evaluation -------------------------------------------------------
    def evaluate(self, now: Optional[float] = None) -> List[SLAViolation]:
        """Check every objective against its sliding window at ``now``.

        Returns (without recording) the violations detected; the
        :meth:`run` loop records them and notifies breach listeners.
        """
        now = self.sim.now if now is None else now
        contract = self.contract
        found: List[SLAViolation] = []
        for objective in contract.latency:
            window = self._latencies_since(now - objective.window_s)
            if len(window) < objective.min_samples:
                continue
            observed = float(np.percentile(window, objective.percentile))
            if observed > objective.threshold_s:
                found.append(
                    SLAViolation(
                        time=now,
                        service=self.service_name,
                        kind="latency",
                        observed=observed,
                        limit=objective.threshold_s,
                        window_s=objective.window_s,
                        detail=str(objective),
                    )
                )
        start = now - contract.window_s
        ok = self._count_since(self._ok_times, start)
        bad = self._count_since(self._fail_times, start) + self._count_since(
            self._shed_times, start
        )
        offered = ok + bad
        if contract.availability_floor is not None and offered >= contract.min_samples:
            availability = ok / offered
            if availability < contract.availability_floor:
                found.append(
                    SLAViolation(
                        time=now,
                        service=self.service_name,
                        kind="availability",
                        observed=availability,
                        limit=contract.availability_floor,
                        window_s=contract.window_s,
                    )
                )
        if contract.throughput_floor_rps is not None:
            goodput = ok / contract.window_s
            demand = offered / contract.window_s
            # Only a breach when demand was there and we under-delivered.
            if demand >= contract.throughput_floor_rps and (
                goodput < contract.throughput_floor_rps
            ):
                found.append(
                    SLAViolation(
                        time=now,
                        service=self.service_name,
                        kind="throughput",
                        observed=goodput,
                        limit=contract.throughput_floor_rps,
                        window_s=contract.window_s,
                    )
                )
        return found

    def run(self, duration_s: float) -> Generator[Event, Any, List[SLAViolation]]:
        """Evaluate periodically for ``duration_s`` (a sim process)."""
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        deadline = self.sim.now + duration_s
        while self.sim.now < deadline:
            yield self.sim.timeout(self.check_period_s)
            found = self.evaluate()
            self.evaluations += 1
            if found:
                self.breach_evaluations += 1
                self.violations.extend(found)
                registry = registry_of(self.sim)
                for violation in found:
                    if registry is not None:
                        registry.series[SLA_BREACHES, self.service_name, violation.kind].inc()
                    for listener in self.breach_listeners:
                        listener(violation)
        return self.violations

    # -- queries ----------------------------------------------------------
    @property
    def total_requests(self) -> int:
        return self.total_ok + self.total_failed + self.total_shed

    def violations_of(self, kind: str) -> List[SLAViolation]:
        return [v for v in self.violations if v.kind == kind]
