"""Arrival traces.

Real hosting platforms are evaluated against recorded request traces.
An :class:`ArrivalTrace` holds one; :meth:`Siege.run_trace
<repro.workload.siege.Siege.run_trace>` fires its requests at the exact
recorded instants, next to Siege's open and closed loops.  The builders
create synthetic traces — homogeneous Poisson, and a diurnal
(sinusoidally-modulated) process via Lewis-Shedler thinning — so
experiments can exercise the time-varying load a long-lived application
service (§1) actually sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.sim.rng import RandomStreams

__all__ = [
    "ArrivalTrace",
    "poisson_trace",
    "diurnal_trace",
    "thinned_trace",
]


@dataclass(frozen=True)
class ArrivalTrace:
    """Recorded arrivals: (time offset, dataset MB) pairs, time-sorted."""

    arrivals: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        last = -1.0
        for offset, size in self.arrivals:
            # isfinite also rejects NaN, which the < comparisons below
            # would silently wave through (NaN compares False to all).
            if not (math.isfinite(offset) and math.isfinite(size)):
                raise ValueError(f"non-finite arrival entry: ({offset}, {size})")
            if offset < 0 or size < 0:
                raise ValueError(f"negative arrival entry: ({offset}, {size})")
            if offset < last:
                raise ValueError("trace is not time-sorted")
            last = offset

    def __len__(self) -> int:
        return len(self.arrivals)

    @property
    def duration(self) -> float:
        return self.arrivals[-1][0] if self.arrivals else 0.0

    def rate_in(self, start: float, end: float) -> float:
        """Mean arrival rate inside [start, end)."""
        if end <= start:
            raise ValueError(f"empty window [{start}, {end})")
        count = sum(1 for t, _ in self.arrivals if start <= t < end)
        return count / (end - start)


def _require_positive(**values: float) -> None:
    """Reject a non-positive or non-finite argument where it enters.

    A NaN or infinite horizon never satisfies ``t >= duration_s``, so the
    builders below would append arrivals forever; a NaN period makes
    every thinning probability NaN and silently yields an empty trace.
    """
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def poisson_trace(
    streams: RandomStreams, rate_rps: float, duration_s: float, dataset_mb: float = 0.25
) -> ArrivalTrace:
    """A homogeneous Poisson trace."""
    _require_positive(rate_rps=rate_rps, duration_s=duration_s)
    arrivals: List[Tuple[float, float]] = []
    t = 0.0
    while True:
        t += streams.exponential("trace-poisson", 1.0 / rate_rps)
        if t >= duration_s:
            break
        arrivals.append((t, dataset_mb))
    return ArrivalTrace(tuple(arrivals))


def thinned_trace(
    streams: RandomStreams,
    rate_fn: Callable[[float], float],
    max_rate: float,
    duration_s: float,
    size_fn: Callable[[float], float],
    gap_stream: str = "trace-thin-gap",
    thin_stream: str = "trace-thin",
) -> ArrivalTrace:
    """A non-homogeneous Poisson trace via Lewis-Shedler thinning.

    Candidate arrivals are drawn at the envelope rate ``max_rate`` from
    ``gap_stream``; each candidate at instant ``t`` survives with
    probability ``rate_fn(t) / max_rate`` (one uniform from
    ``thin_stream`` per candidate, drawn unconditionally so the draw
    sequence is independent of the rate shape), and surviving arrivals
    get a dataset size from ``size_fn(t)``.  Everything is a pure
    function of ``(streams, arguments)`` — the scenario layer's
    purity/digest contract rests on this.
    """
    _require_positive(max_rate=max_rate, duration_s=duration_s)
    arrivals: List[Tuple[float, float]] = []
    t = 0.0
    while True:
        t += streams.exponential(gap_stream, 1.0 / max_rate)
        if t >= duration_s:
            break
        rate_t = rate_fn(t)
        if rate_t < 0 or rate_t > max_rate * (1.0 + 1e-12):
            raise ValueError(
                f"rate_fn({t}) = {rate_t} escapes the envelope [0, {max_rate}]"
            )
        if streams.uniform(thin_stream, 0.0, 1.0) <= rate_t / max_rate:
            arrivals.append((t, size_fn(t)))
    return ArrivalTrace(tuple(arrivals))


def diurnal_trace(
    streams: RandomStreams,
    base_rps: float,
    peak_factor: float,
    period_s: float,
    duration_s: float,
    dataset_mb: float = 0.25,
) -> ArrivalTrace:
    """A sinusoidally-modulated Poisson trace (Lewis-Shedler thinning).

    Instantaneous rate: ``base * (1 + (peak_factor-1)/2 * (1 + sin))``,
    i.e. oscillating between ``base`` and ``base * peak_factor``.  With
    ``peak_factor == 1`` the modulation amplitude is zero and the
    process *is* homogeneous Poisson, so the call delegates to
    :func:`poisson_trace` — same draws, same arrivals, arrival for
    arrival (pinned by a regression test).
    """
    _require_positive(base_rps=base_rps, period_s=period_s, duration_s=duration_s)
    if not (math.isfinite(peak_factor) and peak_factor >= 1):
        raise ValueError(f"peak_factor must be finite and >= 1, got {peak_factor!r}")
    if peak_factor == 1:
        return poisson_trace(streams, base_rps, duration_s, dataset_mb)
    swing = (peak_factor - 1.0) / 2.0

    def rate(t: float) -> float:
        return base_rps * (1.0 + swing * (1.0 + math.sin(2 * math.pi * t / period_s)))

    return thinned_trace(
        streams,
        rate_fn=rate,
        max_rate=base_rps * peak_factor,
        duration_s=duration_s,
        size_fn=lambda _t: dataset_mb,
        gap_stream="trace-diurnal",
        thin_stream="trace-thin",
    )
