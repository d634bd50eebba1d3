"""Hybrid-fidelity substrate: fluid background load at fleet scale.

The discrete serving path (client -> switch -> node -> client) costs a
dozen kernel events *per request*, which caps runs at small-cluster
scale.  This module adds the platform's second fidelity level: traced
"focus" services keep full discrete per-request simulation, while
*background* services are aggregated into **fluid arrival batches** —
one kernel arrival event per batch of requests, not one per request —
with batch-level switch scheduling, LAN occupancy, and SLA/billing
accounting that matches the per-request path in expectation.

The pieces
----------
* :class:`FluidServiceSpec` — the workload shape of one background
  service: aggregate arrival rate, mean batch size, per-request service
  demand and payload sizes, optional SLO target and billing rate.
  Batch interarrival gaps and batch sizes are drawn from named RNG
  streams (``fluid:<service>:<cluster>:gap`` / ``...:size``), so fluid
  runs join the repository-wide determinism contract.
* :class:`FluidCluster` — an aggregate model of ``n_hosts`` background
  hosts behind one cluster switch.  Per-host state lives in
  preallocated numpy buffers keyed by host index (busy-until horizon,
  served count, busy seconds) — no per-host Python objects, which is
  what lets a single run carry 1000 hosts.  Each cluster owns its own
  LAN segment; batches occupy it with *one* aggregate flow per
  direction through the real max-min allocator.
* :class:`FluidBackgroundLoad` — drives a set of specs over a set of
  clusters in either fidelity: ``fluid`` (batched, the default) or
  ``discrete`` (one event chain per request, used by the determinism
  guard and the fleet-scale benchmark's comparison arm).  Both draw
  interarrival gaps from the *same* named stream.
* :class:`FluidReport` — per-service accounting (requests, batches,
  latency, SLA violations, CPU-seconds, bytes, billed CPU-hours) with
  an exact-float :meth:`~FluidReport.digest` for the determinism guard.

Why focus digests are bit-identical (the hybrid-fidelity contract)
------------------------------------------------------------------
Background clusters share the *kernel* with the focus cluster but no
mutable simulation state: each cluster has its own LAN segment (its
batches never enter the focus LAN's max-min pass), its own numpy host
ledgers, and its own named RNG streams (per-name seeds are hash-derived
from the master seed, so background draws cannot perturb focus draws).
Interleaved background events advance the shared heap's sequence
counter, but sequence numbers only break ties *between* events at one
instant — they never move an event's firing time, and the relative
order of any two focus events is preserved.  A focus service's request
digest is therefore a pure function of the focus subsystem, identical
whether the background fleet runs fluid, discrete, or not at all.  The
flip side — the documented divergence — is that fluid aggregation is
exact for focus services only because background load is modelled on
disjoint bottleneck resources; background services themselves match the
discrete path in expectation (means over many batches), not per event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

import numpy as np

from repro.net.lan import LAN
from repro.obs.metrics import FLUID_BATCHES, FLUID_SOJOURN, SWITCH_REQUESTS, registry_of
from repro.sim.kernel import Event, Simulator
from repro.sim.rng import RandomStreams

__all__ = [
    "CLASSIFY_MCYCLES",
    "FluidServiceSpec",
    "FluidCluster",
    "FluidReport",
    "FluidBackgroundLoad",
]

# CPU megacycles to classify and dispatch one request at a cluster's
# switch.  Mirrors ``repro.core.switch.SWITCH_CPU_MCYCLES`` (pinned by a
# test) — a fluid batch of n requests pays n of these in one slice.
CLASSIFY_MCYCLES = 0.6

# Fallback client population NIC rate: generous so the clients are never
# the modelled bottleneck (the cluster fabric and hosts are).
_CLIENT_POOL_MBPS = 40_000.0


@dataclass(frozen=True)
class FluidServiceSpec:
    """The workload shape of one background service.

    ``arrival_rps`` is the *aggregate* request rate; in fluid mode it is
    realised as batches of mean ``mean_batch`` requests arriving every
    ``mean_batch / arrival_rps`` seconds in expectation, so both
    fidelities issue the same request volume in expectation.
    """

    name: str
    arrival_rps: float
    mean_batch: int = 100
    service_s: float = 0.004  # per-request CPU demand at one worker
    request_mb: float = 0.002
    response_mb: float = 0.02
    slo_latency_s: Optional[float] = None
    rate_per_cpu_hour: float = 1.0  # billing tariff (utility accounting)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("spec needs a service name")
        if not math.isfinite(self.mean_batch) or self.mean_batch < 1:
            raise ValueError(f"mean_batch must be finite and >= 1, got {self.mean_batch}")
        for name in ("arrival_rps", "service_s", "request_mb", "response_mb"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        slo = self.slo_latency_s
        if slo is not None and (not math.isfinite(slo) or slo <= 0):
            raise ValueError(f"slo_latency_s must be positive and finite, got {slo}")
        if not math.isfinite(self.rate_per_cpu_hour) or self.rate_per_cpu_hour < 0:
            raise ValueError(
                f"rate_per_cpu_hour must be finite and >= 0, got {self.rate_per_cpu_hour}"
            )


def _host_sojourn(k, d, slack, sat, unit, b0):
    """One host's ``k`` requests: ``(sojourn sum, finish - t0)``.

    The closed form of the FIFO recursion documented on
    :meth:`FluidCluster.dispatch_batch`, for spacing ``d``, per-request
    slice ``unit``, ``slack = d - unit``, ``sat = slack <= 0`` and
    backlog ``b0``.  Plain float arithmetic: the same IEEE operations in
    the same order for every host, idle or backlogged.
    """
    if sat:
        # Saturated: sojourn_j = b0 + (j+1)u - jd, summed over j < k.
        return k * (b0 + unit) - slack * (k * (k - 1.0) / 2.0), b0 + k * unit
    # Unsaturated: the first m arrivals still see backlog
    # b0 - j*(d-u) > 0; everyone pays the base slice.
    queued = b0 / slack
    m = k if queued >= k else float(math.ceil(queued))
    return (
        k * unit + m * b0 - slack * (m * (m - 1.0) / 2.0),
        (k - 1.0) * d + unit + max(0.0, b0 - (k - 1.0) * slack),
    )


class FluidCluster:
    """Aggregate model of ``n_hosts`` background hosts behind one switch.

    Per-host state is three preallocated numpy buffers keyed by host
    index — the array twin of a rack of :class:`Host` objects.  A
    batch of ``n`` requests is spread across hosts round-robin (the
    fleet analogue of the switch's weighted rotation): host ``h`` gets
    ``n_h`` requests and serves them at ``workers_per_host`` parallel
    workers, extending its busy horizon by ``n_h * service_s / workers``.
    The batch completes when the slowest involved host drains.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        n_hosts: int,
        workers_per_host: int = 2,
        host_cpu_mhz: float = 1000.0,
        host_nic_mbps: float = 100.0,
        fabric_mbps: Optional[float] = None,
        lan_latency_s: float = 0.0002,
    ):
        if n_hosts < 1:
            raise ValueError(f"n_hosts must be >= 1, got {n_hosts}")
        if workers_per_host < 1:
            raise ValueError(f"workers_per_host must be >= 1, got {workers_per_host}")
        if not math.isfinite(host_cpu_mhz) or host_cpu_mhz <= 0:
            raise ValueError(f"host_cpu_mhz must be positive and finite, got {host_cpu_mhz}")
        self.sim = sim
        self.name = name
        self.n_hosts = n_hosts
        self.workers_per_host = workers_per_host
        self.host_cpu_mhz = host_cpu_mhz
        # The cluster owns its LAN segment: background batches occupy a
        # real max-min allocated fabric, but never the focus cluster's.
        if fabric_mbps is None:
            # A ToR-style fabric provisioned at half the sum of host NICs.
            fabric_mbps = max(host_nic_mbps, n_hosts * host_nic_mbps / 2.0)
        self.lan = LAN(sim, bandwidth_mbps=fabric_mbps, latency_s=lan_latency_s)
        # One aggregate NIC for the rack uplink and one for the client
        # population — flow endpoints for the per-batch transfers.
        self.nic = self.lan.nic(f"{name}-uplink", n_hosts * host_nic_mbps)
        self.clients = self.lan.nic(f"{name}-clients", _CLIENT_POOL_MBPS)
        # Per-host ledgers, keyed by host index.
        self.busy_until = np.zeros(n_hosts)
        self.served = np.zeros(n_hosts, dtype=np.int64)
        self.busy_s = np.zeros(n_hosts)
        self._cursor = 0  # round-robin rotation start

    def dispatch_batch(
        self, now: float, n: int, service_s: float, window_s: float = 0.0
    ):
        """Account ``n`` requests that arrived spread over ``window_s``.

        The batch event fires once, at the *end* of its aggregation
        window: it stands for requests that arrived evenly over the
        preceding ``window_s`` (the drawn interarrival gap), the last of
        them just now.  Modelling the spread is what keeps fluid
        host-queueing honest — dumping the whole batch at one instant
        would charge every request the queueing delay of its
        batch-mates, a delay the discrete system never sees at
        sub-saturation arrival rates.  Anchoring the window in the
        *past* matters too: all modelled arrivals precede ``now``, so a
        host's busy horizon never encodes future arrivals as present
        backlog for the next batch to queue behind.

        Per host with ``k`` requests, spacing ``d = window / k`` and
        per-request slice ``u = service_s / workers``, the FIFO recursion
        ``finish_j = max(arrive_j, finish_{j-1}) + u`` has a closed form:

        * saturated (``u >= d``): the host never idles, so request ``j``
          waits the initial backlog plus ``j`` net accumulations —
          mean sojourn ``b0 + u + (k-1)(u-d)/2``.
        * unsaturated (``u < d``): the backlog ``b0`` drains by ``d-u``
          per arrival, so only the first ``ceil(b0/(d-u))`` requests
          still queue; the rest pay exactly one slice.

        Returns ``(completion, mean_sojourn)``: when the slowest involved
        host drains and the batch-mean per-request sojourn.  With
        ``n == 1`` both reduce exactly to the discrete request's values
        (queue-behind-busy-host plus one slice), so the two fidelities
        account service time through this one code path.

        One pass per count run replaces ``n`` discrete dispatch
        decisions.  The involved hosts form at most three contiguous runs
        with one count ``k`` each, and every idle host of a run
        (``busy_until <= now``, so ``b0 == 0``) has the same closed form:
        it is evaluated once and written to the run's ledger slices.  Only
        the hosts still backlogged at ``now`` are evaluated one by one.
        The batch mean sums the per-host sojourns in host order with one
        ``np.sum``, so each value and the summation order are those of a
        host-by-host evaluation.  Deterministic: the rotation cursor makes
        the spread a function of call order only.
        """
        if n < 1:
            raise ValueError(f"batch size must be >= 1, got {n}")
        if not math.isfinite(window_s) or window_s < 0:
            raise ValueError(f"window must be finite and >= 0, got {window_s}")
        if not math.isfinite(service_s) or service_s <= 0:
            raise ValueError(f"service_s must be positive and finite, got {service_s}")
        h = self.n_hosts
        unit = service_s / self.workers_per_host
        t0 = now - window_s  # first modelled arrival of the window
        busy_until, served, busy_s = self.busy_until, self.served, self.busy_s
        # Cross-batch backlog: only work still owed *beyond this event*
        # queues ahead of the window's arrivals.  An unsaturated host's
        # busy_until is a last-finish timestamp, not standing backlog —
        # measuring from ``t0`` would charge a full window of phantom
        # queueing whenever another service's batch landed mid-window.
        # Read before any write: (host, b0) for every host still busy.
        backlog = (busy_until > now).nonzero()[0].tolist()
        owed = (busy_until[backlog] - now).tolist() if backlog else ()
        runs = self._count_runs(n)
        # Per-host sojourn sums of the involved hosts, in host order: the
        # array the batch mean is summed over.
        sojourns = np.empty(min(n, h))
        completion = -math.inf
        at = 0  # next unread backlog entry (both lists are in host order)
        pos = 0  # first sojourn slot of the run
        for start, stop, k in runs:
            d = window_s / k
            slack = d - unit
            sat = slack <= 0.0
            # Every host of a run with b0 == 0 has the same closed form.
            idle_sum, idle_finish = _host_sojourn(k, d, slack, sat, unit, 0.0)
            finish = t0 + idle_finish
            busy_until[start:stop] = finish
            served[start:stop] += k
            # CPU-seconds booked (one worker for service_s per request);
            # utilization() divides by full worker capacity.
            busy_s[start:stop] += k * service_s
            sojourns[pos:pos + stop - start] = idle_sum
            # Rounding is monotone, so no host of the run finishes before
            # the idle finish: it never raises the max over the finishes
            # written, even when every host of the run is backlogged.
            completion = max(completion, finish)
            while at < len(backlog) and backlog[at] < start:
                at += 1  # busy but not involved in this batch
            while at < len(backlog) and backlog[at] < stop:
                host = backlog[at]
                host_sum, host_finish = _host_sojourn(
                    k, d, slack, sat, unit, owed[at]
                )
                host_finish = t0 + host_finish
                busy_until[host] = host_finish
                sojourns[pos + host - start] = host_sum
                completion = max(completion, host_finish)
                at += 1
            pos += stop - start
        mean_sojourn = float(sojourns.sum()) / n
        return completion, mean_sojourn

    def _count_runs(self, n: int):
        """Split ``n`` round-robin requests into ``(start, stop, k)`` runs.

        Every host gets ``base`` requests and the ``extra`` hosts from the
        rotation cursor on get one more, so the involved hosts form at
        most three contiguous index runs, listed in host order.  Advances
        the cursor past the ``extra`` hosts.
        """
        h = self.n_hosts
        base, extra = divmod(n, h)
        if not extra:
            return [(0, h, base)]
        cursor = self._cursor
        end = cursor + extra
        self._cursor = end % h
        if end <= h:
            runs = [(0, cursor, base), (cursor, end, base + 1), (end, h, base)]
        else:
            end -= h
            runs = [(0, end, base + 1), (end, cursor, base), (cursor, h, base + 1)]
        return [run for run in runs if run[0] < run[1] and run[2]]

    def utilization(self, start: float, end: float) -> float:
        """Mean worker-CPU utilization of the cluster over [start, end]."""
        horizon = end - start
        if horizon <= 0:
            return 0.0
        capacity = self.n_hosts * self.workers_per_host * horizon
        return float(self.busy_s.sum()) / capacity

    @property
    def total_served(self) -> int:
        return int(self.served.sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FluidCluster({self.name!r}, {self.n_hosts} hosts)"


@dataclass
class _ServiceAccount:
    """Per-service accumulators (exact floats, deterministic order)."""

    requests: int = 0
    batches: int = 0
    latency_sum: float = 0.0
    sla_violations: int = 0
    cpu_s: float = 0.0
    mb_in: float = 0.0
    mb_out: float = 0.0
    billed: float = 0.0


@dataclass
class FluidReport:
    """Aggregated accounting of one background-load run.

    The same accumulators are filled by both fidelities, so a fluid run
    and a discrete run of the same spec are directly comparable: request
    and byte totals match in expectation, CPU-seconds and billing match
    by construction per served request, and latency/SLA figures agree in
    the mean (fluid charges each request its batch-mean sojourn).
    """

    mode: str = "fluid"
    services: Dict[str, _ServiceAccount] = field(default_factory=dict)
    started_at: float = 0.0
    finished_at: float = 0.0

    def account(self, service: str) -> _ServiceAccount:
        if service not in self.services:
            self.services[service] = _ServiceAccount()
        return self.services[service]

    def record_batch(
        self,
        spec: FluidServiceSpec,
        n: int,
        mean_latency_s: float,
        service_s: float,
    ) -> None:
        """Fold one completed batch (n=1 in discrete mode) into the books.

        SLA: every request in the batch is charged the batch's mean
        sojourn, so a batch whose mean breaches the SLO counts all its
        requests as violations — the expectation-level twin of per-request
        SLO monitoring.  Billing: CPU-seconds convert to CPU-hours at the
        spec's tariff, exactly as the discrete path bills served work.
        """
        account = self.account(spec.name)
        account.requests += n
        account.batches += 1
        account.latency_sum += n * mean_latency_s
        if spec.slo_latency_s is not None and mean_latency_s > spec.slo_latency_s:
            account.sla_violations += n
        cpu = n * service_s
        account.cpu_s += cpu
        account.mb_in += n * spec.request_mb
        account.mb_out += n * spec.response_mb
        account.billed += spec.rate_per_cpu_hour * cpu / 3600.0

    @property
    def total_requests(self) -> int:
        return sum(a.requests for a in self.services.values())

    def mean_latency_s(self, service: str) -> float:
        account = self.services[service]
        if account.requests == 0:
            return 0.0
        return account.latency_sum / account.requests

    def digest(self) -> Dict[str, Any]:
        """Everything observable, exact floats — the determinism pin."""
        return {
            "mode": self.mode,
            "window": (self.started_at, self.finished_at),
            "services": {
                name: (
                    a.requests, a.batches, a.latency_sum, a.sla_violations,
                    a.cpu_s, a.mb_in, a.mb_out, a.billed,
                )
                for name, a in sorted(self.services.items())
            },
        }


class FluidBackgroundLoad:
    """Drives background services over fluid clusters at either fidelity.

    ``fidelity="fluid"`` (default): one arrival event per *batch*; the
    batch pays one aggregate ingress flow, one batch classify slice, one
    host dispatch, and one aggregate response flow.
    ``fidelity="discrete"``: the same workload as one event chain per
    *request* — the comparison arm.  Both modes draw interarrival gaps
    from the stream ``fluid:<service>:gap``.
    """

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        clusters: List[FluidCluster],
        specs: List[FluidServiceSpec],
        fidelity: str = "fluid",
    ):
        if not clusters:
            raise ValueError("need at least one cluster")
        if not specs:
            raise ValueError("need at least one service spec")
        if fidelity not in ("fluid", "discrete"):
            raise ValueError(f"unknown fidelity {fidelity!r}")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate service names: {names}")
        self.sim = sim
        self.streams = streams
        self.clusters = clusters
        self.specs = specs
        self.fidelity = fidelity
        self.report = FluidReport(mode=fidelity)
        self._inflight = 0
        self._drained: Optional[Event] = None

    @property
    def n_hosts(self) -> int:
        return sum(c.n_hosts for c in self.clusters)

    # -- lifecycle ---------------------------------------------------------
    def run(self, duration_s: float) -> Generator[Event, Any, FluidReport]:
        """Drive every spec for ``duration_s``; returns the report.

        A simulated-process generator: ``testbed.run(load.run(60.0))`` or
        ``sim.process(load.run(60.0))`` for hybrid runs alongside focus
        traffic.
        """
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        self.report.started_at = self.sim.now
        arrivals = [
            self.sim.process(
                self._drive(spec, cluster, duration_s),
                name=f"fluid:{spec.name}:{cluster.name}",
            )
            for spec in self.specs
            for cluster in self.clusters
        ]
        for proc in arrivals:
            yield proc
        # Arrivals done; wait for in-flight batches/requests to drain.
        if self._inflight:
            self._drained = Event(self.sim)
            yield self._drained
            self._drained = None
        self.report.finished_at = self.sim.now
        return self.report

    def start(self, duration_s: float):
        """Spawn :meth:`run` as a background process (hybrid runs)."""
        return self.sim.process(self.run(duration_s), name="fluid-background")

    # -- the two fidelities -------------------------------------------------
    def _drive(
        self, spec: FluidServiceSpec, cluster: FluidCluster, duration_s: float
    ) -> Generator[Event, Any, None]:
        """Arrival loop for one (service, cluster) pair.

        The spec's aggregate rate splits evenly across clusters — the
        fluid twin of per-request round-robin: a thinned Poisson stream
        per cluster, so each cluster sees the same long-run utilization
        at either fidelity.  One event per batch (fluid) or per request
        (discrete); both draw gaps from the stream
        ``fluid:<service>:<cluster>:gap``.
        """
        sim = self.sim
        deadline = sim.now + duration_s
        gap_stream = f"fluid:{spec.name}:{cluster.name}:gap"
        size_stream = f"fluid:{spec.name}:{cluster.name}:size"
        fluid = self.fidelity == "fluid"
        share = spec.arrival_rps / len(self.clusters)
        mean_gap = spec.mean_batch / share if fluid else 1.0 / share
        while True:
            gap = self.streams.exponential(gap_stream, mean_gap)
            if sim.now + gap > deadline:
                return
            yield sim.timeout(gap)
            if fluid:
                n = 1 + self.streams.poisson(size_stream, spec.mean_batch - 1)
            else:
                n = 1
            self._inflight += 1
            # Fluid batches aggregate the preceding gap's arrivals; a
            # discrete "batch" is one request arriving exactly now.
            window = gap if fluid else 0.0
            sim.process(
                self._batch(spec, cluster, n, window), name=f"batch:{spec.name}"
            )

    def _batch(
        self,
        spec: FluidServiceSpec,
        cluster: FluidCluster,
        n: int,
        window_s: float,
    ) -> Generator[Event, Any, None]:
        """One batch through the cluster: ingress, classify, serve, respond.

        With ``n == 1`` this *is* the discrete per-request chain — the two
        fidelities share one serving path, so their accounting matches in
        expectation by construction.

        Latency is recorded *analytically*, not as the batch's wall
        sojourn: the batch occupies the fabric and the hosts for its real
        aggregate duration, but each request is charged its expected
        share — an amortized slice of each aggregate transfer (a request
        only waits for its own bytes; propagation is paid once per
        request), one classify slice (discrete requests classify
        independently, not serialized behind their batch-mates), and the
        mean host sojourn from :meth:`FluidCluster.dispatch_batch`.  With
        ``n == 1`` every share reduces to the whole, so a discrete-mode
        record equals the request's true wall sojourn exactly.
        """
        sim = self.sim
        prop = cluster.lan.latency_s
        # 1. Aggregate ingress: clients -> cluster switch, one flow.
        inbound = cluster.lan.transfer(
            cluster.clients, cluster.nic, n * spec.request_mb,
            label=f"fluid:{spec.name}:in",
        )
        yield inbound.done
        # 2. Switch scheduling: the batch coalesces n classify slices of
        # switch-CPU *accounting* into one kernel event, but waits only
        # one slice — per-request classify latency matches discrete.
        classify = CLASSIFY_MCYCLES / cluster.host_cpu_mhz
        yield sim.timeout(classify)
        # 3. Host dispatch; sleep until the batch drains.
        completion, mean_sojourn = cluster.dispatch_batch(
            sim.now, n, spec.service_s, window_s
        )
        if completion > sim.now:
            yield sim.timeout(completion - sim.now)
        # 4. Aggregate response: cluster -> clients, one flow.
        outbound = cluster.lan.transfer(
            cluster.nic, cluster.clients, n * spec.response_mb,
            label=f"fluid:{spec.name}:out",
        )
        yield outbound.done
        mean_latency = (
            (inbound.elapsed - prop) / n + prop
            + classify
            + mean_sojourn
            + (outbound.elapsed - prop) / n + prop
        )
        self.report.record_batch(spec, n, mean_latency, spec.service_s)
        self._record_metrics(spec, cluster, n, mean_sojourn)
        self._inflight -= 1
        if self._inflight == 0 and self._drained is not None:
            self._drained.succeed()

    def _record_metrics(
        self,
        spec: FluidServiceSpec,
        cluster: FluidCluster,
        n: int,
        mean_sojourn: float,
    ) -> None:
        """Metrics parity with the discrete path (observe, never perturb).

        Request volume reuses the discrete switch counter — the
        semantics match (requests completing a serving path, by outcome)
        — while batch count and mean host sojourn are fluid-specific.
        The batch is recorded first: its family's group registers the
        switch counter without the switch's other families.
        """
        registry = registry_of(self.sim)
        if registry is None:
            return
        registry.series[FLUID_BATCHES, spec.name, cluster.name].inc()
        registry.series[FLUID_SOJOURN, spec.name, cluster.name].set(mean_sojourn)
        registry.series[SWITCH_REQUESTS, spec.name, "ok"].inc(n)
