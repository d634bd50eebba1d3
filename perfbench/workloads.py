"""The benchmark's four workloads.

Each workload turns ``(seed, size)`` into a fixed list of *cells* — the
inputs one pass replays — and runs a cell through the program's public
harness (``run_scenario``, ``run_chaos_scenario``, ``run_federation``,
the host schedulers).  A cell returns a :class:`Cell`: its exact digest,
its request accounting and the counters the traced run reports.

Load is open loop in simulated time: arrivals come from compiled or
seeded traces and never wait for the platform, so a saturated platform
queues, sheds and fails instead of slowing the clients down.

Why each workload exists (see README.md for the layer table):

* ``scenario-contended`` — the discrete request path at saturation
  (LAN allocator, event kernel, switch and node).
* ``chaos-observed`` — the same switch and LAN under light load, where
  retries, timeouts, probes, reboots and span/metric recording do the
  work.
* ``federation-fleet`` — fluid fleets, aggregate LAN flows, WAN and the
  epoch barrier across two fork workers; no discrete switch.
* ``cpu-shares`` — the host CPU schedulers, which no request path uses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

SIZES = ("full", "tiny")


@dataclass
class Cell:
    """What one cell of a pass produced."""

    digest: str
    issued: float = 0
    served: float = 0
    failed: float = 0  # failed + shed (+ SLO misses where nothing is refused)
    response_sum_s: float = 0.0  # simulated seconds, over ``served``
    conserved: bool = True
    problems: List[str] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    #: the harness result (report, federation run or scheduler trace)
    result: Any = None


def sha(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _sub_seeds(seed: int, n: int) -> List[int]:
    """Cell seeds derived from the workload seed (disjoint across seeds)."""
    return [seed * 64 + i for i in range(n)]


class Workload:
    name = ""

    def __init__(self, size: str = "full"):
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r}; known: {SIZES}")
        self.size = size

    def params(self) -> Dict[str, Any]:
        raise NotImplementedError

    def prepare(self, seed: int) -> List[Any]:
        """Build the pass's cells (set-up work: compiling, topology)."""
        raise NotImplementedError

    def run_cell(self, cell: Any, observe: Optional[Callable] = None) -> Cell:
        raise NotImplementedError

    def first_arrival_hook(self, on_first: Callable[[], None]) -> None:
        """Call ``on_first()`` when the first simulated arrival is issued."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# scenario-contended
# ---------------------------------------------------------------------------

class ScenarioContended(Workload):
    name = "scenario-contended"

    ARMS = ("sla", "market")

    def params(self) -> Dict[str, Any]:
        if self.size == "tiny":
            return {"duration_s": 3.0, "scale": 4.0, "cells": 1, "arms": list(self.ARMS)}
        return {"duration_s": 10.0, "scale": 16.0, "cells": 6, "arms": list(self.ARMS)}

    def spec(self):
        from repro.scenario.spec import (
            BurstEnvelope,
            ConstantArrivals,
            ScenarioSpec,
            SizeModel,
            TenantLoad,
        )

        p = self.params()
        duration, scale = p["duration_s"], p["scale"]
        # The heavy-tail library family's tenants and payloads at ``scale``
        # times their rates, plus a multi-MB batch tenant, all under one
        # correlated burst envelope.
        return ScenarioSpec(
            name="perfbench-contended",
            duration_s=duration,
            bursts=BurstEnvelope(
                factor=2.0, mean_calm_s=duration / 10.0, mean_burst_s=duration / 20.0
            ),
            loads=(
                TenantLoad(
                    tenant="media",
                    arrivals=ConstantArrivals(rate_rps=2.5 * scale),
                    sizes=SizeModel(kind="pareto", mb=0.03, alpha=1.3, cap_mb=2.0),
                    sla_class="silver",
                ),
                TenantLoad(
                    tenant="api",
                    arrivals=ConstantArrivals(rate_rps=3.0 * scale),
                    sizes=SizeModel(kind="lognormal", mb=0.05, sigma=1.0, cap_mb=1.0),
                    sla_class="gold",
                ),
                TenantLoad(
                    tenant="archive",
                    arrivals=ConstantArrivals(rate_rps=0.25 * scale),
                    sizes=SizeModel(kind="lognormal", mb=1.5, sigma=0.5, cap_mb=6.0),
                    sla_class="bronze",
                    kind="batch",
                ),
            ),
        )

    def prepare(self, seed: int, compile_fn: Optional[Callable] = None) -> List[Any]:
        from repro.scenario.compile import compile_scenario

        compile_fn = compile_fn or compile_scenario
        spec = self.spec()
        cells = []
        for sub_seed in _sub_seeds(seed, self.params()["cells"]):
            compiled = compile_fn(spec, sub_seed)
            cells.extend((compiled, arm) for arm in self.ARMS)
        return cells

    def run_cell(self, cell, observe=None) -> Cell:
        from repro.scenario.run import run_scenario

        compiled, arm = cell
        call = lambda: run_scenario(  # noqa: E731
            compiled.spec, compiled.seed, arm, compiled=compiled
        )
        report = observe(call) if observe is not None else call()
        stats = report.stats.values()
        out = Cell(
            digest=sha(report.digest()),
            issued=report.issued,
            served=report.served,
            failed=sum(s.failed + s.shed for s in stats),
            response_sum_s=sum(total for total, _peak in report.response_s.values()),
            conserved=report.conservation_holds(),
            result=report,
        )
        out.counts = {
            "sla.shed": sum(s.shed for s in stats) if arm == "sla" else 0,
            "market.priced_out": report.priced_out,
            "market.reprices": len(report.price_history),
            "scenario.arrivals": compiled.total_arrivals,
        }
        return out

    def first_arrival_hook(self, on_first):
        import repro.scenario.run as harness

        harness.web_request = _first_call(harness.web_request, on_first)


def _first_call(fn: Callable, on_first: Callable[[], None]) -> Callable:
    fired = []

    def wrapper(*args, **kwargs):
        if not fired:
            fired.append(True)
            on_first()
        return fn(*args, **kwargs)

    return wrapper


# ---------------------------------------------------------------------------
# chaos-observed
# ---------------------------------------------------------------------------

class ChaosObserved(Workload):
    name = "chaos-observed"

    def params(self) -> Dict[str, Any]:
        if self.size == "tiny":
            return {"duration_s": 10.0, "cells": 1, "campaign": "default"}
        return {"duration_s": 30.0, "cells": 6, "campaign": "default"}

    def prepare(self, seed: int) -> List[Any]:
        return _sub_seeds(seed, self.params()["cells"])

    def run_cell(self, cell, observe=None, hub: bool = True, profiler=None) -> Cell:
        from repro.faults.chaos import run_chaos_scenario
        from repro.obs import Observability
        from repro.obs.federation import trace_completeness

        duration = self.params()["duration_s"]
        call = lambda: run_chaos_scenario(seed=cell, duration_s=duration)  # noqa: E731
        observability = Observability(tracing=True, metrics=True) if hub else None
        if observability is not None:
            observability.profiler = profiler
            with observability.activate():
                report = observe(call) if observe is not None else call()
        else:
            report = observe(call) if observe is not None else call()
        stats = report.stats.values()
        out = Cell(
            digest=sha(report.digest()),
            issued=sum(s.issued for s in stats),
            served=sum(s.served for s in stats),
            failed=sum(s.failed + s.shed for s in stats),
            conserved=all(s.accounted == s.issued for s in stats),
            result=report,
        )
        out.counts = {
            "faults.injected": len(report.fault_log),
            "faults.reboots": report.total_reboots,
        }
        if observability is not None:
            spans = observability.tracer.spans()
            completeness = trace_completeness([span.to_dict() for span in spans])
            out.counts["obs.spans"] = len(spans)
            out.counts["obs.spans_dropped"] = observability.tracer.dropped
            if observability.tracer.dropped:
                out.problems.append(f"{observability.tracer.dropped} spans dropped")
            if completeness["open_spans"]:
                out.problems.append(f"{completeness['open_spans']} spans left open")
            # The chaos harness keeps no response times; the switches'
            # response histograms hold every served request's.
            out.response_sum_s = _histogram_sum(
                observability.registry, "soda_switch_response_seconds"
            )
        return out

    def first_arrival_hook(self, on_first):
        import repro.faults.chaos as harness

        harness.web_request = _first_call(harness.web_request, on_first)


def _histogram_sum(registry, name: str) -> float:
    """Sum of every observation of histogram ``name`` across its children."""
    return sum(
        child["sum"]
        for family in registry.dump()
        if family["name"] == name
        for _labels, child in family["children"]
    )


# ---------------------------------------------------------------------------
# federation-fleet
# ---------------------------------------------------------------------------

class FederationFleet(Workload):
    name = "federation-fleet"

    WORKERS = 2

    def params(self) -> Dict[str, Any]:
        if self.size == "tiny":
            return {
                "duration_s": 1.0, "n_hosts": 10, "n_background": 1,
                "background_rps": 400.0, "slo_latency_s": 0.0032,
                "workers": self.WORKERS,
            }
        return {
            "duration_s": 6.0, "n_hosts": 50, "n_background": 4,
            "background_rps": 2000.0, "slo_latency_s": 0.0032,
            "workers": self.WORKERS,
        }

    def topology(self):
        from repro.experiments.federation_scale import build_topology

        p = self.params()
        topology = build_topology(
            n_hosts=p["n_hosts"], n_background=p["n_background"],
            background_rps=p["background_rps"],
        )
        # An SLO on every background service, so the fluid fleets' own
        # SLA accounting reports the requests the platform served late.
        clusters = tuple(
            dataclasses.replace(
                cluster,
                background=tuple(
                    dataclasses.replace(spec, slo_latency_s=p["slo_latency_s"])
                    for spec in cluster.background
                ),
            )
            for cluster in topology.clusters
        )
        return dataclasses.replace(topology, clusters=clusters)

    def prepare(self, seed: int) -> List[Any]:
        return [(self.topology(), seed)]

    def run_cell(self, cell, observe=None, obs=None, workers: Optional[int] = None) -> Cell:
        from repro.sim.parallel import run_federation

        topology, seed = cell
        call = lambda: run_federation(  # noqa: E731
            topology, duration_s=self.params()["duration_s"], seed=seed,
            n_workers=workers or self.WORKERS, obs=obs,
        )
        run = observe(call) if observe is not None else call()
        issued = served = late = remote = replied = 0
        response = 0.0
        fluid_batches = 0
        sent = received = pending = 0
        for digest in run.digests.values():
            for account in digest["fluid"]["services"].values():
                requests, batches, latency_sum, violations = account[:4]
                issued += requests
                served += requests
                late += violations
                response += latency_sum
                fluid_batches += batches
            local, remote_issued, _served, remote_replied, local_sum, remote_sum = digest["geo"]
            issued += local + remote_issued
            served += local + remote_replied
            response += local_sum + remote_sum
            remote += remote_issued
            replied += remote_replied
            sent += digest["msgs"][0]
            received += digest["msgs"][1]
            pending += digest["pending"]
        served_remote = sum(d["geo"][2] for d in run.digests.values())
        out = Cell(
            digest=run.digest_sha,
            issued=issued,
            served=served,
            failed=late + (remote - replied),
            response_sum_s=response,
            conserved=remote == served_remote == replied and sent == received and pending == 0,
            result=run,
        )
        out.counts = {
            "fluid.batches": fluid_batches,
            "fluid.requests": sum(
                a[0] for d in run.digests.values() for a in d["fluid"]["services"].values()
            ),
            "parallel.epochs": run.epochs,
            "parallel.messages": run.messages,
            "parallel.barrier_stall_frac": run.barrier_stall_fraction,
            "parallel.critical_path_s": run.critical_path_s,
            "parallel.worker_busy_s": sum(run.worker_busy_s),
        }
        return out

    def first_arrival_hook(self, on_first):
        from repro.sim.parallel import ClusterShard

        original = ClusterShard.advance
        fired: List[int] = []

        def advance(self_, horizon):
            # Runs in each fork worker; each reports its own first epoch.
            import os

            if os.getpid() not in fired:
                fired.append(os.getpid())
                on_first()
            return original(self_, horizon)

        ClusterShard.advance = advance


# ---------------------------------------------------------------------------
# cpu-shares
# ---------------------------------------------------------------------------

class CpuShares(Workload):
    name = "cpu-shares"

    def params(self) -> Dict[str, Any]:
        horizon = 20.0 if self.size == "tiny" else 120.0
        return {
            "horizon_s": horizon,
            "schedulers": ["vanilla-linux", "proportional-share"],
            "group_sets": ["figure5", "unequal-tickets"],
        }

    @staticmethod
    def group_sets():
        from repro.host.scheduler import TaskGroup, WorkloadSpec, figure5_groups

        unequal = [
            TaskGroup("web", [WorkloadSpec.web_server()] * 3, tickets=3.0),
            TaskGroup("comp", [WorkloadSpec.cpu_hog()] * 2, tickets=2.0),
            TaskGroup("log", [WorkloadSpec.disk_logger()] * 2, tickets=1.0),
            TaskGroup("batch", [WorkloadSpec.cpu_hog()] * 4, tickets=1.0),
        ]
        return {"figure5": figure5_groups, "unequal-tickets": lambda: list(unequal)}

    def prepare(self, seed: int) -> List[Any]:
        from repro.host.scheduler import ProportionalShareScheduler, VanillaLinuxScheduler

        classes = {
            "vanilla-linux": VanillaLinuxScheduler,
            "proportional-share": ProportionalShareScheduler,
        }
        sets = self.group_sets()
        return [
            (classes[s], sets[g], seed, f"perfbench-{s}-{g}")
            for s in self.params()["schedulers"]
            for g in self.params()["group_sets"]
        ]

    def run_cell(self, cell, observe=None) -> Cell:
        from repro.sim.rng import RandomStreams

        cls, groups_fn, seed, stream = cell
        groups = groups_fn()
        scheduler = cls(groups, RandomStreams(seed).spawn(stream))
        horizon = self.params()["horizon_s"]
        call = lambda: scheduler.run(horizon)  # noqa: E731
        trace = observe(call) if observe is not None else call()
        n_quanta = len(trace.times) - 1
        per_quantum = np.diff(trace.cumulative, axis=1)  # (groups, quanta)
        charged = per_quantum.sum(axis=0)
        # Conservation: every quantum goes to exactly one group or idles.
        conserved = bool(
            np.all(np.isclose(charged, 0.0) | np.isclose(charged, trace.quantum_s))
        )
        # "Failed" CPU: entitled share (by tickets) that a group did not get.
        tickets = np.array([g.tickets for g in groups])
        entitled = tickets / tickets.sum()
        got = trace.cumulative[:, -1] / trace.horizon_s
        shortfall = float(np.clip(entitled - got, 0.0, None).sum()) * n_quanta
        # "Response": the first group's (web's) waits between CPU slices.
        web_slices = np.flatnonzero(per_quantum[0] > 0)
        gaps = np.diff(trace.times[web_slices]) if web_slices.size > 1 else np.array([])
        digest = hashlib.sha256(
            repr(trace.group_names).encode() + trace.times.tobytes() + trace.cumulative.tobytes()
        ).hexdigest()
        out = Cell(
            digest=digest,
            issued=n_quanta,
            served=len(gaps),
            failed=shortfall,
            response_sum_s=float(gaps.sum()),
            conserved=conserved,
            result=trace,
        )
        out.counts = {"scheduler.quanta": n_quanta}
        return out

    def first_arrival_hook(self, on_first):
        from repro.host.scheduler import ProportionalShareScheduler, VanillaLinuxScheduler

        for cls in (VanillaLinuxScheduler, ProportionalShareScheduler):
            cls.run = _first_call(cls.run, on_first)


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (ScenarioContended, ChaosObserved, FederationFleet, CpuShares)
}


def workload(name: str, size: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    return WORKLOADS[name](size)


def aggregate(cells: List[Cell]) -> Tuple[float, float, float, float]:
    """(issued, failed, served, response sum) over one pass."""
    return (
        sum(c.issued for c in cells),
        sum(c.failed for c in cells),
        sum(c.served for c in cells),
        sum(c.response_sum_s for c in cells),
    )
