"""Kernel profiling: where does the event loop spend its wall-time?

A :class:`KernelProfiler` installed on a
:class:`~repro.sim.kernel.Simulator` (``sim.set_profiler(profiler)``)
makes the kernel's run loop dispatch every entry through its profiled
branch, which records, per *callback site*:

* how many events fired there, and
* the wall-clock (host) time their callbacks consumed,

plus the heap-depth high-water mark over the run.  Sites are derived
from what the kernel already knows — the resumed process's name, the
event type and its first callback's owner — and normalised so instance
suffixes (``siege-worker-3``, ``serve:web@seattle#0``) aggregate into
one row.

The profiler measures **wall time only**; it never reads or writes
simulated state, so a profiled run produces bit-identical simulation
results (the determinism guard pins this).  With no profiler installed
the loop takes its allocation-free branch — the opt-in costs one
``is None`` check on a local per event.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

__all__ = ["SiteStats", "KernelProfiler", "profiler_of"]

_INSTANCE_DIGITS = re.compile(r"\d+")


class SiteStats:
    """Aggregate for one callback site."""

    __slots__ = ("events", "wall_s")

    def __init__(self) -> None:
        self.events = 0
        self.wall_s = 0.0


class KernelProfiler:
    """Counts events and wall-time per callback site; tracks heap depth."""

    def __init__(self) -> None:
        #: site -> SiteStats
        self.sites: Dict[str, SiteStats] = {}
        self.events_total = 0
        self.wall_s_total = 0.0
        self.heap_high_water = 0
        self._site_cache: Dict[str, str] = {}

    # -- kernel-facing API (called from the profiled branch) -----------------
    def install(self, sim) -> "KernelProfiler":
        """Attach to ``sim``; subsequent runs take the profiled branch.

        Statistics **accumulate** across ``run(until=...)`` resumptions
        and re-installs — a federated shard advancing in epoch slices
        profiles the whole run, not the last slice.  Call :meth:`reset`
        to zero the site stats and heap high-water.
        """
        sim.set_profiler(self)
        return self

    def record(self, site: str, wall_s: float) -> None:
        """One dispatched entry at ``site`` costing ``wall_s``."""
        normalised = self._site_cache.get(site)
        if normalised is None:
            normalised = self._site_cache[site] = _INSTANCE_DIGITS.sub("N", site)
        stats = self.sites.get(normalised)
        if stats is None:
            stats = self.sites[normalised] = SiteStats()
        stats.events += 1
        stats.wall_s += wall_s
        self.events_total += 1
        self.wall_s_total += wall_s

    def note_heap_depth(self, depth: int) -> None:
        if depth > self.heap_high_water:
            self.heap_high_water = depth

    # -- reporting -----------------------------------------------------------
    def top_sites(self, n: int = 0) -> List[Tuple[str, SiteStats]]:
        """Sites by wall time, descending (``n`` truncates; 0 keeps all)."""
        rows = sorted(
            self.sites.items(), key=lambda kv: (-kv[1].wall_s, kv[0])
        )
        return rows[:n] if n > 0 else rows

    def snapshot(self) -> Dict[str, object]:
        return {
            "events_total": self.events_total,
            "wall_s_total": self.wall_s_total,
            "heap_high_water": self.heap_high_water,
            "sites": {
                site: {"events": s.events, "wall_s": s.wall_s}
                for site, s in sorted(self.sites.items())
            },
        }

    def render(self, top: int = 20) -> str:
        """Terminal table: the kernel's wall-time flame, widest first."""
        if not self.events_total:
            return "(no events profiled)"
        rows = self.top_sites(top)
        site_w = max(4, max(len(site) for site, _ in rows))
        lines = [
            f"kernel profile: {self.events_total} events, "
            f"{self.wall_s_total * 1e3:.2f} ms wall, "
            f"heap high-water {self.heap_high_water}",
            f"{'site':<{site_w}}  {'events':>9}  {'wall ms':>10}  "
            f"{'us/event':>9}  {'share':>6}",
        ]
        for site, stats in rows:
            share = stats.wall_s / self.wall_s_total if self.wall_s_total else 0.0
            lines.append(
                f"{site:<{site_w}}  {stats.events:>9}  {stats.wall_s * 1e3:>10.3f}  "
                f"{stats.wall_s / stats.events * 1e6:>9.2f}  {share:>6.1%}"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        """Zero all statistics: site stats, totals, heap high-water."""
        self.sites.clear()
        self._site_cache.clear()
        self.events_total = 0
        self.wall_s_total = 0.0
        self.heap_high_water = 0


def profiler_of(sim) -> Optional[KernelProfiler]:
    """The profiler installed on ``sim``, if any."""
    return getattr(sim, "_profiler", None)
