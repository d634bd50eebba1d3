"""Discrete-event simulation kernel.

This package provides the deterministic discrete-event substrate on which
the whole SODA reproduction runs: an event heap with a simulated clock
(:mod:`repro.sim.kernel`), generator-based simulated processes with
interrupt support, capacity-limited resources and stores
(:mod:`repro.sim.resources`), seeded named random streams
(:mod:`repro.sim.rng`) and measurement monitors
(:mod:`repro.sim.monitor`).

The design intentionally mirrors the small core of SimPy so the rest of
the codebase reads like standard simulation code, but it is implemented
from scratch (no external simulation dependency) and is fully
deterministic: two runs with the same seed produce identical event
orderings and identical measurements.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "kernel": [
        "AllOf",
        "AnyOf",
        "Event",
        "Interrupt",
        "Process",
        "SimulationError",
        "Simulator",
        "Timeout",
    ],
    "monitor": ["Monitor", "TimeWeightedMonitor"],
    "resources": ["Container", "Resource", "Store"],
    "rng": ["RandomStreams"],
})
