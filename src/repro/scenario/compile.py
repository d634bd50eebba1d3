"""Compile a :class:`ScenarioSpec` into seeded arrival traces.

``compile_scenario(spec, seed)`` is the purity boundary of the scenario
layer: everything stochastic about a scenario is realised here, on
**dedicated named RNG streams** —

* ``scenario:<name>:bursts`` — the correlated burst envelope windows;
* ``scenario:<name>:<tenant>:gap`` — candidate arrival gaps
  (Lewis-Shedler envelope process, see
  :func:`repro.workload.replay.thinned_trace`);
* ``scenario:<name>:<tenant>:thin`` — the thinning uniforms;
* ``scenario:<name>:<tenant>:size`` — per-arrival dataset sizes;
* ``scenario:<name>:bids`` — per-tenant spot-market bids (consumed by
  the ``market`` policy arm of :mod:`repro.scenario.run`).

Stream names embed the scenario *and* tenant name, and per-name seeds
are hash-derived from the master seed (:class:`repro.sim.rng.RandomStreams`),
so (a) the compiled result is a pure function of ``(spec, seed)`` — the
exact-float :meth:`CompiledScenario.digest` is bit-identical across
compilations, processes, and platforms — and (b) scenario draws cannot
perturb any platform stream (``boot-*``, ``siege-*``, ``fluid:*``, …):
the common-random-numbers discipline that lets policy arms share one
workload realisation.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.scenario.spec import ReplayArrivals, ScenarioSpec, SizeModel, TenantLoad
from repro.sim.rng import RandomStreams
from repro.workload.replay import ArrivalTrace, thinned_trace

__all__ = ["CompiledScenario", "compile_scenario", "burst_windows", "size_sampler"]


def burst_windows(
    spec: ScenarioSpec, streams: RandomStreams
) -> Tuple[Tuple[float, float], ...]:
    """The seeded (start, end) burst windows of the scenario's envelope.

    Episodes alternate calm/burst with exponential lengths drawn from
    the single ``scenario:<name>:bursts`` stream; drawing them *once*
    per scenario (not per tenant) is what correlates the bursts.
    """
    if spec.bursts is None:
        return ()
    stream = f"scenario:{spec.name}:bursts"
    windows = []
    t = 0.0
    while t < spec.duration_s:
        t += streams.exponential(stream, spec.bursts.mean_calm_s)
        if t >= spec.duration_s:
            break
        end = t + streams.exponential(stream, spec.bursts.mean_burst_s)
        windows.append((t, min(end, spec.duration_s)))
        t = end
    return tuple(windows)


def size_sampler(
    sizes: SizeModel, streams: RandomStreams, stream: str
) -> Callable[[float], float]:
    """A per-arrival dataset-MB sampler drawing from ``stream``."""
    if sizes.kind == "fixed":
        return lambda _t: sizes.mb
    if sizes.kind == "lognormal":
        log_mb = math.log(sizes.mb)

        def draw(_t: float) -> float:
            return min(streams.lognormal(stream, log_mb, sizes.sigma), sizes.cap_mb)

        return draw

    def draw_pareto(_t: float) -> float:
        # numpy's pareto() is the Lomax tail; 1 + tail is the classic
        # Pareto with minimum 1, scaled to the model's minimum size.
        value = sizes.mb * (1.0 + streams.pareto(stream, sizes.alpha))
        return min(value, sizes.cap_mb)

    return draw_pareto


def _burst_factor_fn(
    windows: Tuple[Tuple[float, float], ...], factor: float
) -> Callable[[float], float]:
    def at(t: float) -> float:
        for start, end in windows:
            if start <= t < end:
                return factor
            if t < start:
                break
        return 1.0

    return at


@dataclass(frozen=True)
class CompiledScenario:
    """The realised scenario: one :class:`ArrivalTrace` per tenant."""

    spec: ScenarioSpec
    seed: int
    traces: Tuple[Tuple[str, ArrivalTrace], ...]
    windows: Tuple[Tuple[float, float], ...]

    @property
    def total_arrivals(self) -> int:
        return sum(len(trace) for _tenant, trace in self.traces)

    def trace_of(self, tenant: str) -> ArrivalTrace:
        for name, trace in self.traces:
            if name == tenant:
                return trace
        raise KeyError(f"no load for tenant {tenant!r}")

    def digest(self) -> dict:
        """Exact-float digest: every arrival instant and size, plus the
        burst windows — bit-identical across compilations per seed."""
        return {
            "scenario": self.spec.name,
            "seed": self.seed,
            "duration_s": self.spec.duration_s,
            "windows": self.windows,
            "traces": {
                tenant: trace.arrivals for tenant, trace in self.traces
            },
        }

    def digest_sha(self) -> str:
        """A short hex fingerprint of the exact-float digest."""
        payload = json.dumps(self.digest(), sort_keys=True, default=repr)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _compile_load(
    spec: ScenarioSpec,
    load: TenantLoad,
    streams: RandomStreams,
    windows: Tuple[Tuple[float, float], ...],
) -> ArrivalTrace:
    if isinstance(load.arrivals, ReplayArrivals):
        return load.arrivals.trace  # recorded truth: offsets and sizes verbatim
    prefix = f"scenario:{spec.name}:{load.tenant}"
    factor = spec.bursts.factor if spec.bursts is not None else 1.0
    burst_at = _burst_factor_fn(windows, factor)
    model = load.arrivals

    def rate(t: float) -> float:
        return model.rate_at(t) * burst_at(t)

    return thinned_trace(
        streams,
        rate_fn=rate,
        max_rate=model.max_rate() * factor,
        duration_s=spec.duration_s,
        size_fn=size_sampler(load.sizes, streams, f"{prefix}:size"),
        gap_stream=f"{prefix}:gap",
        thin_stream=f"{prefix}:thin",
    )


def compile_scenario(
    spec: ScenarioSpec,
    seed: int = 0,
    streams: Optional[RandomStreams] = None,
) -> CompiledScenario:
    """Realise ``spec`` into per-tenant arrival traces.

    Pure in ``(spec, seed)``: compiling twice yields bit-identical
    traces and digests.  An existing :class:`RandomStreams` may be
    passed to share a testbed's stream factory — scenario streams are
    namespaced (``scenario:*``), so this never perturbs platform draws.
    """
    if streams is None:
        streams = RandomStreams(seed)
    elif streams.seed != seed:
        raise ValueError(
            f"streams seeded with {streams.seed}, scenario compiled for {seed}"
        )
    windows = burst_windows(spec, streams)
    traces = tuple(
        (load.tenant, _compile_load(spec, load, streams, windows))
        for load in spec.loads
    )
    return CompiledScenario(spec=spec, seed=seed, traces=traces, windows=windows)
