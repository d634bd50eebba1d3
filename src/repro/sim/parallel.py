"""Parallel federated simulation: per-cluster sub-kernels, WAN lookahead.

A federated hosting utility is many autonomous clusters coupled only by
WAN links (the utility/grid decomposition of PAPERS.md), and that makes
it exactly the workload conservative parallel discrete-event simulation
was built for: a cluster's internal events can never be influenced by a
remote cluster faster than the WAN latency between them, so each WAN
link's ``latency_s`` is a guaranteed **lookahead** bound.

This module shards a federated run across sub-kernels:

* :class:`ClusterShard` — one cluster as a self-contained simulation:
  its own :class:`~repro.sim.kernel.Simulator`, its own spawned RNG
  namespace, its own LAN segment and numpy host ledgers (a
  :class:`~repro.sim.fluid.FluidCluster` fleet), plus geo-routed demand
  and its slice of the two-level broker protocol.  A shard interacts
  with the rest of the federation **only** through picklable
  :class:`ShardMessage` values — never live object references.
* The **epoch coordinator** (:func:`run_federation`) advances global
  time in epochs of ``min(latency_s)`` over all inter-cluster links.
  It is one loop over N workers: each worker steps its shards
  (:class:`_Shards`), in-process when N = 1 and behind a pipe in a fork
  worker when N > 1, and the coordinator records every shard's epoch
  CPU in one :class:`~repro.obs.federation.FederationProfiler` ledger.
  Within an epoch ``[T, T + L)`` every shard simulates independently
  (``Simulator.run(until=horizon)`` parks each kernel exactly at the
  barrier; ``Simulator.schedule_at`` re-injects work for the next leg).
  At the barrier, the messages every shard emitted are gathered, sorted
  by ``(deliver_at, src, seq)`` — the stable sequence key — and handed
  to their destination shards before any shard starts the next epoch.
* **Why this is safe**: a message sent at ``t in [T, T+L)`` over a link
  with latency ``lat >= L`` is delivered at ``t + lat >= T + L`` — at
  or after the next barrier.  No shard can ever receive a message from
  the epoch it is currently simulating, so no rollback is needed.
* **Why worker counts cannot change results**: each shard is a pure
  function of its spec and its (sorted) inbound message stream, both of
  which are identical whatever the process layout; and the barrier sort
  key is global and total, so same-instant deliveries are scheduled in
  the same kernel order everywhere.  ``run_federation`` therefore
  produces **bit-identical digests** for 1 (in-process), 2, 4, ...
  worker processes — the determinism guard pins this.

The cross-cluster message kinds exercised by the shard model:

* ``dispatch`` / ``reply`` — geo-routed request batches served by a
  remote replica, round-trip accounted at the origin,
* ``place`` / ``placed`` — broker placement calls: a shard asks the
  global :class:`GeoBroker` (hosted on its home shard) to place a new
  service; the decision is broadcast,
* ``xfer`` — the service image pushed over the WAN to the chosen host
  (a latency-plus-bandwidth :class:`~repro.net.wan.WanTransferDescriptor`
  delay); dispatches that beat the image wait in a pending queue.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.net.wan import WanTransferDescriptor
from repro.obs.federation import (
    FederatedMetrics,
    FederationObsResult,
    FederationObservability,
    FederationProfiler,
    TraceContext,
    merge_shard_spans,
)
from repro.obs.metrics import (
    BROKER_PLACEMENTS,
    GEO_REQUESTS,
    SHARD_MESSAGES,
    MetricsRegistry,
)
from repro.obs.profiler import KernelProfiler
from repro.obs.tracing import RequestTracer
from repro.sim.fluid import (
    CLASSIFY_MCYCLES,
    FluidBackgroundLoad,
    FluidCluster,
    FluidServiceSpec,
)
from repro.sim.kernel import Event, Simulator
from repro.sim.rng import RandomStreams

__all__ = [
    "ShardMessage",
    "GeoServiceSpec",
    "ClusterSpec",
    "WanEdgeSpec",
    "FederationTopology",
    "GeoBroker",
    "ClusterShard",
    "FederationRun",
    "run_federation",
]


# ---------------------------------------------------------------------------
# Pure-data topology (everything picklable: specs cross process boundaries).
# ---------------------------------------------------------------------------

def _require(value: float, name: str, positive: bool = False) -> None:
    """Reject NaN, inf and negatives (and zero when ``positive``)."""
    if not math.isfinite(value) or value < 0 or (positive and value == 0):
        bound = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be finite and {bound}, got {value}")


@dataclass(frozen=True)
class ShardMessage:
    """One cross-shard message, exchanged at epoch barriers.

    ``seq`` is the sender's monotonic counter; ``(deliver_at, src, seq)``
    is therefore globally unique and totally ordered — the stable
    sequence key every barrier sorts by, so delivery order (and hence
    each receiving kernel's tie-breaking) is identical for any worker
    layout.
    """

    deliver_at: float
    src: str
    dst: str
    seq: int
    kind: str
    payload: Tuple
    send_time: float
    #: Cross-shard trace propagation: the originating request's
    #: :class:`~repro.obs.federation.TraceContext` (or ``None`` with
    #: tracing off).  Pure observability — never read by handlers for
    #: simulation decisions and never part of a digest.
    trace: Optional[TraceContext] = None

    @property
    def sort_key(self) -> Tuple[float, str, int]:
        return (self.deliver_at, self.src, self.seq)


@dataclass(frozen=True)
class GeoServiceSpec:
    """A federation-wide service replica set entry."""

    name: str
    home: str  # hosting cluster
    service_s: float = 0.004
    request_mb: float = 0.002
    response_mb: float = 0.02

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("geo service needs a name")
        _require(self.service_s, "service_s", positive=True)
        _require(self.request_mb, "request_mb")
        _require(self.response_mb, "response_mb")


@dataclass(frozen=True)
class ClusterSpec:
    """One autonomous cluster of the federation (picklable)."""

    name: str
    n_hosts: int = 50
    workers_per_host: int = 2
    host_cpu_mhz: float = 1000.0
    background: Tuple[FluidServiceSpec, ...] = ()
    geo_rps: float = 0.0  # aggregate geo-routed request rate issued here
    geo_mean_batch: int = 20
    n_placements: int = 0  # broker placement calls issued during the run

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("cluster needs a name")
        if self.n_hosts < 1:
            raise ValueError(f"n_hosts must be >= 1, got {self.n_hosts}")
        _require(self.host_cpu_mhz, "host_cpu_mhz", positive=True)
        _require(self.geo_rps, "geo_rps")
        if self.geo_mean_batch < 1:
            raise ValueError(f"geo_mean_batch must be >= 1, got {self.geo_mean_batch}")
        if self.n_placements < 0:
            raise ValueError(f"n_placements must be >= 0, got {self.n_placements}")


@dataclass(frozen=True)
class WanEdgeSpec:
    """A WAN link between two clusters; ``latency_s`` is its lookahead."""

    a: str
    b: str
    latency_s: float
    bandwidth_mbps: float = 622.0

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("a WAN edge joins two distinct clusters")
        if not (math.isfinite(self.latency_s) and self.latency_s > 0):
            raise ValueError(
                "conservative synchronization needs a positive latency "
                f"(lookahead), got {self.latency_s}"
            )
        _require(self.bandwidth_mbps, "bandwidth_mbps", positive=True)

    def descriptor(self, size_mb: float, label: str = "") -> WanTransferDescriptor:
        return WanTransferDescriptor(
            src=self.a, dst=self.b, size_mb=size_mb,
            bandwidth_mbps=self.bandwidth_mbps, lookahead_s=self.latency_s,
            label=label,
        )


@dataclass(frozen=True)
class FederationTopology:
    """The federated deployment: clusters, WAN mesh, global services."""

    clusters: Tuple[ClusterSpec, ...]
    edges: Tuple[WanEdgeSpec, ...]
    geo_services: Tuple[GeoServiceSpec, ...] = ()
    broker: str = ""  # broker's home cluster (default: first cluster)
    image_mb: float = 64.0  # service image pushed per placement
    placed_service_s: float = 0.004
    placed_request_mb: float = 0.002
    placed_response_mb: float = 0.02

    def __post_init__(self) -> None:
        names = [c.name for c in self.clusters]
        if len(names) < 2:
            raise ValueError("a federation needs at least two clusters")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate cluster names: {names}")
        _require(self.image_mb, "image_mb", positive=True)
        _require(self.placed_service_s, "placed_service_s", positive=True)
        _require(self.placed_request_mb, "placed_request_mb")
        _require(self.placed_response_mb, "placed_response_mb")
        broker = self.broker or names[0]
        if broker not in names:
            raise ValueError(f"broker cluster {broker!r} not in {sorted(names)}")
        object.__setattr__(self, "broker", broker)
        known = set(names)
        pairs = set()
        for edge in self.edges:
            if edge.a not in known or edge.b not in known:
                raise ValueError(f"edge {edge.a}-{edge.b} references unknown cluster")
            pairs.add(frozenset((edge.a, edge.b)))
        missing = [
            (a, b)
            for i, a in enumerate(names)
            for b in names[i + 1:]
            if frozenset((a, b)) not in pairs
        ]
        if missing:
            raise ValueError(
                f"the WAN mesh must cover every cluster pair; missing {missing}"
            )
        for service in self.geo_services:
            if service.home not in known:
                raise ValueError(
                    f"service {service.name!r} homed on unknown cluster "
                    f"{service.home!r}"
                )

    @property
    def lookahead_s(self) -> float:
        """The epoch length: min latency over all inter-cluster links."""
        return min(edge.latency_s for edge in self.edges)

    def edge(self, a: str, b: str) -> WanEdgeSpec:
        for candidate in self.edges:
            if {candidate.a, candidate.b} == {a, b}:
                return candidate
        raise KeyError(f"no WAN edge between {a!r} and {b!r}")

    def latency_map(self) -> Dict[tuple, float]:
        return {(e.a, e.b): e.latency_s for e in self.edges}

    def spec(self, name: str) -> ClusterSpec:
        for cluster in self.clusters:
            if cluster.name == name:
                return cluster
        raise KeyError(f"no cluster named {name!r}")


# ---------------------------------------------------------------------------
# The sub-kernel: one cluster as a self-contained simulation.
# ---------------------------------------------------------------------------

class _DirectoryEntry:
    """A shard's view of one federation service."""

    __slots__ = ("host", "service_s", "request_mb", "response_mb", "ready")

    def __init__(
        self, host: str, service_s: float, request_mb: float,
        response_mb: float, ready: bool,
    ):
        self.host = host
        self.service_s = service_s
        self.request_mb = request_mb
        self.response_mb = response_mb
        self.ready = ready


class GeoBroker:
    """The global tier of a two-level federation: geo-aware placement.

    Per-cluster masters stay autonomous; the broker only decides *which*
    cluster hosts a new service, from (a) the WAN latency between the
    requesting cluster and each candidate and (b) the candidates'
    advertised capacity and current placement load.  The broker is pure
    decision logic — it holds **no live references to remote clusters**.
    Its inter-cluster calls (placement requests in, placement broadcasts
    and image pushes out) travel the epoch-barrier message plane of its
    home :class:`ClusterShard` instead of direct object calls, which is
    what lets the federation simulate in parallel.

    Determinism: decisions depend only on the latency map, the capacity
    advertisements, and the order of :meth:`place` calls (ties break by
    cluster name), so every shard layout replays them identically.
    """

    def __init__(
        self,
        home: str,
        latency_s: Dict[tuple, float],
        capacity: Dict[str, int],
    ):
        if home not in capacity:
            raise ValueError(f"broker home {home!r} not among clusters {sorted(capacity)}")
        if not capacity or any(n < 1 for n in capacity.values()):
            raise ValueError("every cluster needs a positive advertised capacity")
        self.home = home
        self._latency = dict(latency_s)
        self.capacity = dict(capacity)
        self.placements: Dict[str, str] = {}  # service -> hosting cluster
        self.load: Dict[str, int] = {name: 0 for name in capacity}
        self._registry: Optional[MetricsRegistry] = None

    def instrument(self, registry) -> "GeoBroker":
        """Count placement decisions in ``registry``, by chosen cluster.

        Observe-only: the counter never feeds back into :meth:`place`,
        so instrumented and bare brokers decide identically.
        """
        self._registry = registry
        return self

    def latency(self, a: str, b: str) -> float:
        """One-way WAN latency between two clusters (0 for a == b)."""
        if a == b:
            return 0.0
        lat = self._latency.get((a, b), self._latency.get((b, a)))
        if lat is None:
            raise KeyError(f"no WAN latency declared between {a!r} and {b!r}")
        return lat

    def seed(self, service: str, cluster: str) -> None:
        """Record a pre-existing placement (initial topology state)."""
        if service in self.placements:
            raise ValueError(f"service {service!r} already placed")
        if cluster not in self.capacity:
            raise ValueError(f"unknown cluster {cluster!r}")
        self.placements[service] = cluster
        self.load[cluster] += 1

    def place(self, service: str, origin: str) -> str:
        """Choose the hosting cluster for ``service`` requested by ``origin``.

        Geo-aware first (lowest WAN latency from the requester), then
        least-loaded relative to advertised capacity, then name — a
        total order, so the choice is deterministic.
        """
        if service in self.placements:
            raise ValueError(f"service {service!r} already placed")
        if origin not in self.capacity:
            raise ValueError(f"unknown origin cluster {origin!r}")
        chosen = min(
            self.capacity,
            key=lambda c: (
                self.latency(origin, c),
                self.load[c] / self.capacity[c],
                c,
            ),
        )
        self.placements[service] = chosen
        self.load[chosen] += 1
        if self._registry is not None:
            self._registry.series[BROKER_PLACEMENTS, chosen].inc()
        return chosen


class ClusterShard:
    """One cluster's sub-kernel: LAN, hosts, fleet, and message handlers.

    Everything inside a shard is a pure function of ``(spec, topology,
    seed, inbound messages)``: the kernel is private, the RNG namespace
    is spawned from the master seed by cluster name (stable whatever the
    process layout), and the fluid cluster's LAN/host ledgers are
    touched by no one else.  Outbound effects queue in :attr:`outbox`
    as :class:`ShardMessage` values for the coordinator to route.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        topology: FederationTopology,
        seed: int,
        obs: Optional[FederationObservability] = None,
    ):
        self.spec = spec
        self.topology = topology
        self.name = spec.name
        self.sim = Simulator()
        self.streams = RandomStreams(seed).spawn(f"shard:{spec.name}")
        self.cluster = FluidCluster(
            self.sim, spec.name, spec.n_hosts,
            workers_per_host=spec.workers_per_host,
            host_cpu_mhz=spec.host_cpu_mhz,
        )
        self.fleet: Optional[FluidBackgroundLoad] = None
        if spec.background:
            self.fleet = FluidBackgroundLoad(
                self.sim, self.streams, [self.cluster], list(spec.background)
            )
        # The federation service directory (insertion-ordered: initial
        # services in topology order, then placements in delivery order
        # — deterministic, so RNG picks over it are too).
        self.directory: Dict[str, _DirectoryEntry] = {}
        for service in topology.geo_services:
            self.directory[service.name] = _DirectoryEntry(
                service.home, service.service_s, service.request_mb,
                service.response_mb, True,
            )
        # Dispatches for services not yet known/ready here (image in
        # flight): drained in arrival order when the image lands.
        self._pending: Dict[str, List[tuple]] = {}
        self._peers = tuple(
            c.name for c in topology.clusters if c.name != spec.name
        )
        self.broker: Optional[GeoBroker] = None
        if topology.broker == spec.name:
            self.broker = GeoBroker(
                home=spec.name,
                latency_s=topology.latency_map(),
                capacity={c.name: c.n_hosts for c in topology.clusters},
            )
            for service in topology.geo_services:
                self.broker.seed(service.name, service.home)
        self.outbox: List[ShardMessage] = []
        self._msg_seq = 0
        self._handlers = {
            "dispatch": self._on_dispatch,
            "reply": self._on_reply,
            "place": self._on_place,
            "placed": self._on_placed,
            "xfer": self._on_xfer,
        }
        # Accounting (exact floats; folded into the digest).
        self.issued_local = 0
        self.issued_remote = 0
        self.served_remote = 0
        self.replied = 0
        self.latency_local_sum = 0.0
        self.latency_remote_sum = 0.0
        self.msgs_sent = 0
        self.msgs_received = 0
        self._classify_s = CLASSIFY_MCYCLES / spec.host_cpu_mhz
        # Per-shard observability (observe, never perturb: nothing below
        # schedules events, draws RNG, or feeds the digest).
        self.obs = obs if obs is not None and obs.enabled else None
        self.tracer: Optional[RequestTracer] = None
        self.registry: Optional[MetricsRegistry] = None
        self.profiler: Optional[KernelProfiler] = None
        #: Open root spans by trace id, finished when the round trip
        #: (reply / placed broadcast) lands back here.
        self._open_roots: Dict[Any, Any] = {}
        if self.obs is not None:
            if self.obs.tracing:
                # Namespaced IDs: stable across process layouts, so the
                # reassembled federation traces are bit-identical for
                # any worker count.
                self.tracer = RequestTracer(
                    capacity=self.obs.span_capacity, namespace=self.name
                )
                self.tracer.begin_epoch()
                self.sim.obs_tracer = self.tracer
            if self.obs.metrics:
                self.registry = MetricsRegistry()
                self.sim.metrics = self.registry
                if self.broker is not None:
                    self.broker.instrument(self.registry)
            if self.obs.profile:
                self.profiler = KernelProfiler().install(self.sim)

    # -- lifecycle ---------------------------------------------------------
    def start(self, duration_s: float) -> None:
        """Spawn the shard's driving processes (call once, at t=0)."""
        _require(duration_s, "duration", positive=True)
        if self.fleet is not None:
            self.fleet.start(duration_s)
        if self.spec.geo_rps > 0:
            self.sim.process(
                self._geo_client(duration_s), name=f"geo:{self.name}"
            )
        if self.spec.n_placements > 0:
            self.sim.process(
                self._placement_client(duration_s), name=f"place:{self.name}"
            )

    def advance(self, horizon: float) -> None:
        """Simulate up to (and including) ``horizon``, then park there."""
        self.sim.run(until=horizon)

    def deliver(self, messages: Sequence[ShardMessage]) -> None:
        """Schedule inbound messages (pre-sorted by the coordinator)."""
        for message in messages:
            if message.deliver_at < self.sim.now:
                raise RuntimeError(
                    f"causality violation: {message.kind!r} for {self.name} "
                    f"at {message.deliver_at} delivered at {self.sim.now} "
                    "(lookahead bug)"
                )
            handler = self._handlers[message.kind]
            self.sim.schedule_at(
                message.deliver_at,
                lambda handler=handler, message=message: handler(message),
            )
            self.msgs_received += 1
            if self.registry is not None:
                self.registry.series[SHARD_MESSAGES, "received", message.kind].inc()

    def drain_outbox(self) -> List[ShardMessage]:
        drained, self.outbox = self.outbox, []
        return drained

    def quiet(self) -> bool:
        """True when the shard has no pending events or outbound messages."""
        return not self.outbox and self.sim.peek() == float("inf")

    # -- message plane ------------------------------------------------------
    def send(
        self,
        kind: str,
        dst: str,
        payload: Tuple,
        size_mb: float = 0.0,
        ctx: Optional[TraceContext] = None,
    ) -> None:
        """Queue a cross-cluster message; delivery = latency + bytes/rate.

        ``ctx`` propagates the originating trace: it rides the message,
        and the hop itself becomes a finished ``wan_transfer`` span
        ``[now, deliver_at]`` — exactly latency + transfer time, so the
        reassembled trace's wan segments tile the end-to-end latency.
        """
        edge = self.topology.edge(self.name, dst)
        descriptor = edge.descriptor(size_mb, label=kind)
        self._msg_seq += 1
        deliver_at = descriptor.delivery_time(self.sim.now)
        if ctx is not None and self.tracer is not None:
            segments = descriptor.segments(self.sim.now)
            self.tracer.start_span(
                "wan_transfer",
                f"wan:{self.name}->{dst}",
                self.sim.now,
                parent=ctx,
                kind=kind,
                latency_s=segments["latency_s"],
                transfer_s=segments["transfer_s"],
                size_mb=size_mb,
            ).finish(deliver_at)
        self.outbox.append(
            ShardMessage(
                deliver_at=deliver_at,
                src=self.name,
                dst=dst,
                seq=self._msg_seq,
                kind=kind,
                payload=payload,
                send_time=self.sim.now,
                trace=ctx,
            )
        )
        self.msgs_sent += 1
        if self.registry is not None:
            self.registry.series[SHARD_MESSAGES, "sent", kind].inc()

    # -- workload: geo-routed demand ---------------------------------------
    def _geo_client(self, duration_s: float) -> Generator[Event, Any, None]:
        """Issue geo-routed request batches against the service directory."""
        sim = self.sim
        deadline = sim.now + duration_s
        gap_stream = f"geo:{self.name}:gap"
        size_stream = f"geo:{self.name}:size"
        pick_stream = f"geo:{self.name}:pick"
        mean_gap = self.spec.geo_mean_batch / self.spec.geo_rps
        while True:
            gap = self.streams.exponential(gap_stream, mean_gap)
            if sim.now + gap > deadline:
                return
            yield sim.timeout(gap)
            n = 1 + self.streams.poisson(size_stream, self.spec.geo_mean_batch - 1)
            names = list(self.directory)
            service = names[self.streams.choice(pick_stream, len(names))]
            entry = self.directory[service]
            if entry.host == self.name:
                self._serve_local(entry, n, gap)
            else:
                self.issued_remote += n
                if self.registry is not None:
                    self.registry.series[GEO_REQUESTS, "remote"].inc(n)
                ctx = None
                if self.tracer is not None:
                    root = self.tracer.start_span(
                        "geo_request", f"geo:{self.name}", sim.now,
                        service=service, n=n, target=entry.host,
                    )
                    self._open_roots[root.context.trace_id] = root
                    ctx = self._context_for(root)
                self.send(
                    "dispatch", entry.host, (service, n, sim.now),
                    size_mb=n * entry.request_mb, ctx=ctx,
                )

    def _context_for(self, root) -> TraceContext:
        """The picklable handle for a locally-rooted trace."""
        return TraceContext(root.context.trace_id, root.context.span_id, self.name)

    def _serve_local(self, entry: _DirectoryEntry, n: int, window_s: float) -> None:
        _, mean_sojourn = self.cluster.dispatch_batch(
            self.sim.now, n, entry.service_s, window_s
        )
        self.issued_local += n
        self.latency_local_sum += n * (self._classify_s + mean_sojourn)
        if self.registry is not None:
            self.registry.series[GEO_REQUESTS, "local"].inc(n)

    # -- workload: broker placement calls ------------------------------------
    def _placement_client(self, duration_s: float) -> Generator[Event, Any, None]:
        """Ask the global broker to place new services during the run."""
        sim = self.sim
        deadline = sim.now + duration_s
        mean_gap = duration_s / (self.spec.n_placements + 1)
        for i in range(self.spec.n_placements):
            gap = self.streams.exponential(f"place:{self.name}:gap", mean_gap)
            if sim.now + gap > deadline:
                return
            yield sim.timeout(gap)
            service = f"svc-{self.name}-{i}"
            ctx = None
            if self.tracer is not None:
                root = self.tracer.start_span(
                    "placement", f"place:{self.name}", sim.now, service=service
                )
                self._open_roots[root.context.trace_id] = root
                ctx = self._context_for(root)
            if self.broker is not None:
                # The broker lives here: a local call, not a WAN message.
                self._handle_place(service, self.name, ctx)
                if ctx is not None:
                    self._open_roots.pop(ctx.trace_id).finish(sim.now)
            else:
                self.send(
                    "place", self.topology.broker, (service, self.name), ctx=ctx
                )

    # -- message handlers (run inside the kernel at deliver_at) -------------
    def _on_dispatch(self, message: ShardMessage) -> None:
        service, n, origin_time = message.payload
        entry = self.directory.get(service)
        if entry is None or not entry.ready:
            # Placement broadcast or image still in flight: queue; the
            # drain replays arrival order when the service comes up.
            self._pending.setdefault(service, []).append(
                (message.src, n, origin_time, message.trace, self.sim.now)
            )
            return
        self._serve_remote(
            message.src, service, entry, n, origin_time, message.trace
        )

    def _serve_remote(
        self, origin: str, service: str, entry: _DirectoryEntry,
        n: int, origin_time: float, ctx: Optional[TraceContext] = None,
    ) -> None:
        completion, _ = self.cluster.dispatch_batch(
            self.sim.now, n, entry.service_s, 0.0
        )
        self.served_remote += n
        if self.registry is not None:
            self.registry.series[GEO_REQUESTS, "served"].inc(n)
        if ctx is not None and self.tracer is not None:
            self.tracer.start_span(
                "remote_service", f"serve:{self.name}", self.sim.now,
                parent=ctx, service=service, n=n,
            ).finish(completion)
        self.sim.schedule_at(
            completion,
            lambda: self.send(
                "reply", origin, (service, n, origin_time),
                size_mb=n * entry.response_mb, ctx=ctx,
            ),
        )

    def _on_reply(self, message: ShardMessage) -> None:
        _service, n, origin_time = message.payload
        self.replied += n
        self.latency_remote_sum += n * (self.sim.now - origin_time)
        if self.registry is not None:
            self.registry.series[GEO_REQUESTS, "replied"].inc(n)
        if message.trace is not None and self.tracer is not None:
            root = self._open_roots.pop(message.trace.trace_id, None)
            if root is not None:
                root.finish(self.sim.now)

    def _on_place(self, message: ShardMessage) -> None:
        service, origin = message.payload
        self._handle_place(service, origin, message.trace)

    def _handle_place(
        self, service: str, origin: str, ctx: Optional[TraceContext] = None
    ) -> None:
        """Broker-side placement: decide, broadcast, push the image."""
        assert self.broker is not None, "place call reached a non-broker shard"
        host = self.broker.place(service, origin)
        if ctx is not None and self.tracer is not None:
            self.tracer.start_span(
                "place_decide", f"broker:{self.name}", self.sim.now,
                parent=ctx, service=service, host=host,
            ).finish(self.sim.now)
        for peer in self._peers:
            self.send("placed", peer, (service, host), ctx=ctx)
        # The broker cluster hosts the image repository: remote hosts
        # serve only once the image crosses the WAN ("xfer"), but the
        # broker itself may route there immediately — early dispatches
        # wait in the host's pending queue behind the image.
        self._install(service, host, ready=True)
        if host != self.name:
            self.send(
                "xfer", host, (service,),
                size_mb=self.topology.image_mb, ctx=ctx,
            )

    def _on_placed(self, message: ShardMessage) -> None:
        service, host = message.payload
        # The hosting shard serves only after the image lands ("xfer" —
        # strictly later than this broadcast on the same edge); everyone
        # else may route to the service immediately.
        self._install(service, host, ready=host != self.name)
        # The decision broadcast landing back at the requesting shard
        # closes its placement root span.
        if (
            message.trace is not None
            and self.tracer is not None
            and message.trace.origin == self.name
        ):
            root = self._open_roots.pop(message.trace.trace_id, None)
            if root is not None:
                root.finish(self.sim.now)

    def _install(self, service: str, host: str, ready: bool) -> None:
        topology = self.topology
        self.directory[service] = _DirectoryEntry(
            host, topology.placed_service_s, topology.placed_request_mb,
            topology.placed_response_mb, ready,
        )
        if ready:
            self._drain_pending(service)

    def _on_xfer(self, message: ShardMessage) -> None:
        (service,) = message.payload
        entry = self.directory[service]
        entry.ready = True
        self._drain_pending(service)

    def _drain_pending(self, service: str) -> None:
        entry = self.directory[service]
        for origin, n, origin_time, ctx, arrived in self._pending.pop(service, ()):
            # The image-wait segment, so traces through a pending queue
            # still tile end to end: [dispatch arrival, image ready].
            if ctx is not None and self.tracer is not None:
                self.tracer.start_span(
                    "pending_wait", f"serve:{self.name}", arrived,
                    parent=ctx, service=service, n=n,
                ).finish(self.sim.now)
            self._serve_remote(origin, service, entry, n, origin_time, ctx)

    # -- results -------------------------------------------------------------
    def digest(self) -> Dict[str, Any]:
        """Everything observable, exact floats — the determinism pin."""
        return {
            "events": self.sim.events_scheduled,
            "fluid": self.fleet.report.digest() if self.fleet is not None else None,
            "geo": (
                self.issued_local, self.issued_remote, self.served_remote,
                self.replied, self.latency_local_sum, self.latency_remote_sum,
            ),
            "directory": tuple(
                (name, entry.host, entry.ready)
                for name, entry in sorted(self.directory.items())
            ),
            "placements": (
                tuple(sorted(self.broker.placements.items()))
                if self.broker is not None
                else None
            ),
            "msgs": (self.msgs_sent, self.msgs_received),
            "pending": sum(len(queue) for queue in self._pending.values()),
            "cluster": (
                self.cluster.total_served, float(self.cluster.busy_s.sum()),
            ),
        }

    def obs_payload(self) -> Dict[str, Any]:
        """Everything this shard observed, as picklable data.

        Crosses the worker→coordinator pipe once at the end of a run;
        the coordinator reassembles all shards' payloads into one
        :class:`~repro.obs.federation.FederationObsResult`.
        """
        payload: Dict[str, Any] = {
            "spans": [],
            "spans_dropped": 0,
            "metrics": None,
            "profile": None,
        }
        if self.tracer is not None:
            payload["spans"] = [span.to_dict() for span in self.tracer.spans()]
            payload["spans_dropped"] = self.tracer.dropped
        if self.registry is not None:
            payload["metrics"] = self.registry.dump()
        if self.profiler is not None:
            payload["profile"] = self.profiler.snapshot()
        return payload


# ---------------------------------------------------------------------------
# The epoch coordinator: one loop over N workers (serial is N = 1).
# ---------------------------------------------------------------------------

@dataclass
class FederationRun:
    """Result of one federated run (any worker count)."""

    digests: Dict[str, Dict[str, Any]]
    n_workers: int
    wall_s: float
    epochs: int
    messages: int
    lookahead_s: float
    #: Per worker: CPU seconds its shards spent stepping epochs.
    worker_busy_s: List[float] = field(default_factory=list)
    #: Sum over epochs of the slowest worker's CPU time: the wall time
    #: the barrier structure would cost on dedicated cores.
    critical_path_s: float = 0.0
    #: Fraction of worker-slots spent waiting at barriers for the
    #: slowest worker (load imbalance; exactly 0.0 with one worker).
    barrier_stall_fraction: float = 0.0
    #: Reassembled federation-wide observability (``None`` unless an
    #: observability spec was passed).  Deliberately outside
    #: :attr:`digest_sha`: digests stay bit-identical obs on vs off.
    observability: Optional[FederationObsResult] = None

    @property
    def msgs_per_epoch(self) -> float:
        return self.messages / self.epochs if self.epochs else 0.0

    @property
    def digest_sha(self) -> str:
        """A stable hash over the exact per-cluster digests."""
        canonical = repr(
            [(name, self.digests[name]) for name in sorted(self.digests)]
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    @property
    def total_requests(self) -> int:
        total = 0
        for digest in self.digests.values():
            fluid = digest["fluid"]
            if fluid is not None:
                total += sum(s[0] for s in fluid["services"].values())
            geo = digest["geo"]
            total += geo[0] + geo[1]  # local + remote issued
        return total


def _route(messages: List[ShardMessage]) -> Dict[str, List[ShardMessage]]:
    """Sort globally by the stable sequence key, then split by destination."""
    routed: Dict[str, List[ShardMessage]] = {}
    for message in sorted(messages, key=lambda m: m.sort_key):
        routed.setdefault(message.dst, []).append(message)
    return routed


class _Shards:
    """One worker's shards: built, started and stepped together.

    The same object serves every worker count.  With one worker the
    coordinator holds it and :meth:`post` answers at once; with more,
    each fork worker holds one behind its pipe (:func:`_worker_main`).
    Shards are independent within an epoch, so stepping them one after
    another — deliver, advance, drain — equals stepping them phase by
    phase.
    """

    def __init__(
        self,
        specs: Sequence[ClusterSpec],
        topology: FederationTopology,
        seed: int,
        duration_s: float,
        obs: Optional[FederationObservability],
    ):
        self.shards = {
            spec.name: ClusterShard(spec, topology, seed, obs=obs)
            for spec in sorted(specs, key=lambda spec: spec.name)
        }
        for shard in self.shards.values():
            shard.start(duration_s)
        self.names = list(self.shards)
        self._reply: Any = None

    def advance(
        self, horizon: float, inbound: Dict[str, List[ShardMessage]]
    ) -> Tuple[List[ShardMessage], Dict[str, float], bool]:
        """One epoch: outbound messages, per-shard CPU, and quiescence."""
        outbox: List[ShardMessage] = []
        busy: Dict[str, float] = {}
        for name, shard in self.shards.items():
            began = time.process_time()
            shard.deliver(inbound.get(name, ()))
            shard.advance(horizon)
            outbox.extend(shard.drain_outbox())
            busy[name] = time.process_time() - began
        return outbox, busy, all(shard.quiet() for shard in self.shards.values())

    def digest(self) -> Dict[str, Dict[str, Any]]:
        return {name: shard.digest() for name, shard in self.shards.items()}

    def obs_payload(self) -> Dict[str, Dict[str, Any]]:
        return {name: shard.obs_payload() for name, shard in self.shards.items()}

    # -- the worker protocol, in-process: every post answers at once -------
    def post(self, verb: str, *args: Any) -> None:
        self._reply = getattr(self, verb)(*args)

    def collect(self) -> Any:
        return self._reply

    def close(self) -> None:
        pass


def _worker_main(conn, specs, topology, seed, duration_s, obs) -> None:
    """A fork worker: one :class:`_Shards` serving the coordinator's verbs.

    A verb that raises is answered with the exception and its formatted
    traceback, so the coordinator re-raises what an in-process run would.
    """
    try:
        shards = _Shards(specs, topology, seed, duration_s, obs)
        while True:
            verb, args = conn.recv()
            if verb == "stop":
                break
            try:
                conn.send((True, getattr(shards, verb)(*args)))
            except Exception as exc:
                conn.send((False, (exc, traceback.format_exc())))
    finally:
        conn.close()


class _Forked:
    """A fork worker seen from the coordinator: post a verb, collect its reply."""

    def __init__(self, ctx, specs: Sequence[ClusterSpec], *build: Any):
        self.names = sorted(spec.name for spec in specs)
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main, args=(child, specs, *build), daemon=True
        )
        self.process.start()
        child.close()

    def post(self, verb: str, *args: Any) -> None:
        self.conn.send((verb, args))

    def collect(self) -> Any:
        ok, reply = self.conn.recv()
        if ok:
            return reply
        from multiprocessing.pool import RemoteTraceback

        exc, formatted = reply
        raise exc from RemoteTraceback(formatted)

    def close(self) -> None:
        try:
            self.conn.send(("stop", ()))
        except OSError:  # the worker is already gone
            pass
        self.conn.close()
        self.process.join(timeout=30)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout=5)


def _gather(workers: Sequence[Any], verb: str) -> Dict[str, Any]:
    """Post ``verb`` to every worker, then merge their per-shard replies."""
    for worker in workers:
        worker.post(verb)
    merged: Dict[str, Any] = {}
    for worker in workers:
        merged.update(worker.collect())
    return merged


def run_federation(
    topology: FederationTopology,
    duration_s: float,
    seed: int = 0,
    n_workers: int = 1,
    obs: Optional[FederationObservability] = None,
) -> FederationRun:
    """Run the federated topology to quiescence; any worker count.

    Shards are assigned round-robin (in name order) to ``n_workers``
    workers: with one worker the coordinator steps them in-process, with
    more each worker is a persistent fork process.  Either way the same
    loop exchanges messages at every epoch barrier, and digests are
    bit-identical across worker counts by construction (see the module
    docstring).  A shard that raises surfaces here as the same exception
    at every worker count.

    Passing an ``obs`` spec turns on federation-wide observability:
    every shard runs its own tracer/registry/profiler, contexts ride the
    message plane, and the coordinator reassembles the result
    (:attr:`FederationRun.observability`).  Digests are bit-identical
    with ``obs`` on or off — observability observes, never perturbs.
    """
    _require(duration_s, "duration", positive=True)
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if obs is not None and not obs.enabled:
        obs = None
    started = time.perf_counter()
    names = sorted(spec.name for spec in topology.clusters)
    n_workers = min(n_workers, len(names))
    owners = {name: index % n_workers for index, name in enumerate(names)}
    assignment = [
        [topology.spec(name) for name in names if owners[name] == worker]
        for worker in range(n_workers)
    ]
    build = (topology, seed, duration_s, obs)
    epoch_s = topology.lookahead_s
    guard = 4 * (int(duration_s / epoch_s) + 64)  # quiescence backstop
    profiler = FederationProfiler(epoch_s, owners)
    workers: List[Any] = []
    try:
        if n_workers == 1:
            workers.append(_Shards(assignment[0], *build))
        else:
            import multiprocessing as mp

            methods = mp.get_all_start_methods()
            ctx = mp.get_context("fork" if "fork" in methods else "spawn")
            for specs in assignment:
                workers.append(_Forked(ctx, specs, *build))
        horizon = 0.0
        epochs = 0
        messages = 0
        inflight: List[ShardMessage] = []
        while True:
            horizon += epoch_s
            routed = _route(inflight)
            for worker in workers:
                inbound = {n: routed[n] for n in worker.names if n in routed}
                worker.post("advance", horizon, inbound)
            inflight = []
            epoch_busy: Dict[str, float] = {}
            all_quiet = True
            for worker in workers:
                outbox, busy, quiet = worker.collect()
                inflight.extend(outbox)
                epoch_busy.update(busy)
                all_quiet = all_quiet and quiet
            profiler.record_epoch(epoch_busy)
            messages += len(inflight)
            epochs += 1
            if horizon >= duration_s and not inflight and all_quiet:
                break
            if epochs > guard:
                raise RuntimeError(
                    f"federation failed to quiesce within {guard} epochs "
                    f"(horizon {horizon:.3f}s); check for self-sustaining "
                    "message loops"
                )
        digests = _gather(workers, "digest")
        payloads = _gather(workers, "obs_payload") if obs is not None else {}
    finally:
        for worker in workers:
            worker.close()
    wall = time.perf_counter() - started
    return FederationRun(
        digests={name: digests[name] for name in sorted(digests)},
        n_workers=n_workers,
        wall_s=wall,
        epochs=epochs,
        messages=messages,
        lookahead_s=epoch_s,
        worker_busy_s=profiler.worker_totals(),
        critical_path_s=profiler.critical_path_s,
        barrier_stall_fraction=profiler.stall_fraction,
        observability=(
            _assemble_obs(obs, profiler, payloads, epochs, messages)
            if obs is not None
            else None
        ),
    )


def _assemble_obs(
    obs: FederationObservability,
    profiler: FederationProfiler,
    payloads: Dict[str, Dict[str, Any]],
    epochs: int,
    messages: int,
) -> FederationObsResult:
    """Reassemble per-shard observability payloads coordinator-side.

    Each shard's registry ships once, in its end-of-run payload: dumps
    are cumulative, so the final one is the whole run.
    """
    spans: List[Dict[str, Any]] = []
    if obs.tracing:
        spans = merge_shard_spans(
            {name: payload["spans"] for name, payload in payloads.items()}
        )
    fed_metrics = None
    if obs.metrics:
        fed_metrics = FederatedMetrics()
        for name in sorted(payloads):
            fed_metrics.update(name, payloads[name]["metrics"])
        fed_metrics.note_epoch(epochs, messages)
        fed_metrics.note_barrier_wait(
            {
                str(worker): wait
                for worker, wait in enumerate(profiler.barrier_wait_by_worker())
            }
        )
    return FederationObsResult(
        spans=spans,
        spans_dropped=sum(p["spans_dropped"] for p in payloads.values()),
        metrics=fed_metrics,
        profiler=profiler,
        kernel_profiles={
            name: payload["profile"]
            for name, payload in sorted(payloads.items())
            if payload["profile"] is not None
        },
    )
