"""Spot pricing: utilization-driven repricing of HUP capacity.

The platform rate is not a constant: every ``interval_s`` of simulated
time the :class:`SpotPricer` reads platform utilization and moves the
rate by a multiplicative update,

    rate' = clamp(rate * (1 + sensitivity * (u - target)) * jitter,
                  floor, ceiling)

so scarce capacity (``u`` above target) gets more expensive and idle
capacity cheaper.  The jitter is a seeded lognormal factor drawn from a
named stream (median 1.0, ``sigma=0`` disables it), which makes the
whole price path a pure function of ``(seed, utilization history)`` —
the property the determinism guard and the hypothesis layer pin.

The pricer is sim-clock driven: :meth:`SpotPricer.run` is a simulated
process that reprices on its cadence, pushes the new rate into any
attached :class:`~repro.core.billing.BillingLedger` (whose
:meth:`~repro.core.billing.BillingLedger.set_rate` splits open segments
at the instant, never back-billing), notifies listeners (the scenario
harness uses this for outbid preemption), and exposes the price path as
a metrics gauge plus a queryable history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.core.billing import BillingLedger
from repro.obs.metrics import MARKET_SPOT_RATE, registry_of
from repro.sim.kernel import Event, Simulator
from repro.sim.rng import RandomStreams

__all__ = ["PricingParams", "reprice", "SpotPricer"]

#: Named random stream for price jitter (disjoint from load streams).
PRICE_STREAM = "market-spot-price"


@dataclass(frozen=True)
class PricingParams:
    """Everything that shapes the price path, in one value object."""

    base_rate: float = 1.0
    floor: float = 0.25
    ceiling: float = 8.0
    target_utilization: float = 0.7
    sensitivity: float = 0.5
    interval_s: float = 10.0
    jitter_sigma: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.floor <= self.base_rate <= self.ceiling:
            raise ValueError(
                f"need 0 < floor <= base_rate <= ceiling, got "
                f"{self.floor}/{self.base_rate}/{self.ceiling}"
            )
        if not 0 < self.target_utilization < 1:
            raise ValueError(
                f"target utilization must be in (0, 1), got "
                f"{self.target_utilization}"
            )
        # Chained comparisons are false for NaN, so each also rejects it.
        if not 0 <= self.sensitivity < math.inf:
            raise ValueError(f"sensitivity must be finite and >= 0: {self.sensitivity}")
        if not 0 < self.interval_s < math.inf:
            raise ValueError(f"interval must be positive and finite: {self.interval_s}")
        if not 0 <= self.jitter_sigma < math.inf:
            raise ValueError(f"jitter sigma must be finite and >= 0: {self.jitter_sigma}")


def reprice(rate: float, utilization: float, params: PricingParams, jitter: float = 1.0) -> float:
    """One price update — a pure function, so tests can pin it exactly."""
    if not 0 <= utilization <= 1:
        raise ValueError(f"utilization must be in [0, 1], got {utilization}")
    if jitter <= 0:
        raise ValueError(f"jitter factor must be positive, got {jitter}")
    moved = rate * (1.0 + params.sensitivity * (utilization - params.target_utilization))
    return min(params.ceiling, max(params.floor, moved * jitter))


class SpotPricer:
    """Reprices HUP capacity from utilization on a seeded cadence."""

    def __init__(
        self,
        params: PricingParams = PricingParams(),
        streams: Optional[RandomStreams] = None,
        utilization_fn: Optional[Callable[[], float]] = None,
    ):
        self.params = params
        self.streams = streams
        self.utilization_fn = utilization_fn
        self.rate = params.base_rate
        #: (time, utilization, rate) per repricing tick, in order.
        self.history: List[Tuple[float, float, float]] = []
        self._ledgers: List[BillingLedger] = []
        self._listeners: List[Callable[[float, float], None]] = []

    # -- wiring ----------------------------------------------------------
    def attach_ledger(self, ledger: BillingLedger) -> None:
        """Push every future rate change into ``ledger`` (split-at-instant)."""
        self._ledgers.append(ledger)

    def add_listener(self, listener: Callable[[float, float], None]) -> None:
        """Subscribe ``listener(now, new_rate)`` to every repricing."""
        self._listeners.append(listener)

    # -- the cadence -----------------------------------------------------
    def _jitter(self) -> float:
        if self.streams is None or self.params.jitter_sigma == 0:
            return 1.0
        return self.streams.lognormal_factor(PRICE_STREAM, self.params.jitter_sigma)

    def tick(self, now: float, utilization: float) -> float:
        """Apply one repricing step at simulated instant ``now``."""
        self.rate = reprice(self.rate, utilization, self.params, self._jitter())
        self.history.append((now, utilization, self.rate))
        for ledger in self._ledgers:
            ledger.set_rate(self.rate, now)
        for listener in self._listeners:
            listener(now, self.rate)
        return self.rate

    def run(
        self, sim: Simulator, duration_s: float = float("inf")
    ) -> Generator[Event, Any, None]:
        """Simulated process: reprice every ``interval_s`` until the
        horizon.  Requires a ``utilization_fn``."""
        if self.utilization_fn is None:
            raise ValueError("SpotPricer.run needs a utilization_fn")
        deadline = sim.now + duration_s
        while sim.now + self.params.interval_s <= deadline:
            yield sim.timeout(self.params.interval_s)
            self.tick(sim.now, self.utilization_fn())
            self._obs_gauge(sim)

    # -- observability (observes, never perturbs) ------------------------
    def _obs_gauge(self, sim: Simulator) -> None:
        registry = registry_of(sim)
        if registry is not None:
            registry.series[MARKET_SPOT_RATE].set(self.rate)

    # -- queries ---------------------------------------------------------
    def rate_at(self, t: float) -> float:
        """The rate in force at simulated instant ``t``."""
        rate = self.params.base_rate
        for changed_at, _u, new_rate in self.history:
            if changed_at > t:
                break
            rate = new_rate
        return rate

    @property
    def n_ticks(self) -> int:
        return len(self.history)
