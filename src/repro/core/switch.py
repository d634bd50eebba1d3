"""The per-service request switch.

"After the SODA Daemons have finished service priming, the SODA Master
will create a service switch for S [...] Co-located in one of the
virtual service nodes of S, the service switch will accept and direct
each client request to one of the virtual service nodes" (paper §3.4).

The serving path modelled per request:

1. the client's request message travels over the LAN to the switch's
   home node;
2. the switch spends a small slice of its home host's CPU classifying
   the request and consulting the policy (this serialises through a
   queue — a flooded switch backs up, the §3.5 DDoS caveat);
3. the request is forwarded to the chosen back-end node (loopback when
   co-located);
4. the back-end serves it; the response body returns directly from the
   back-end's host to the client (direct-server-return, so the switch
   never carries response bandwidth).

Crashed nodes are skipped at dispatch time; if no healthy node remains
the request fails with :class:`ServiceUnavailableError`.

SLA hooks (extension): a shedder installed by the SODA Master drops
requests when backlog saturates (class-priority load shedding, bronze
first — see :mod:`repro.sla.enforcement`), and outcome listeners (e.g.
an :class:`~repro.sla.monitor.SLOMonitor`) receive every per-request
outcome — ``(time, latency, "ok" | "failed" | "shed")`` — as it happens.

Failover hooks (extension): with a :attr:`ServiceSwitch.retry_policy`
(capped exponential backoff, see :class:`repro.faults.retry.BackoffPolicy`
— duck-typed: anything with ``max_attempts`` and ``delay(attempt)``)
and/or a :attr:`ServiceSwitch.request_timeout_s` budget installed, the
switch re-runs failed dispatches against replicas it has not tried yet,
backing off between attempts, until the request succeeds, the attempts
are exhausted, or the timeout budget runs out
(:class:`~repro.core.errors.RequestTimeoutError`).  A health checker
(:class:`repro.faults.health.SwitchHealthChecker`) can additionally
:meth:`~ServiceSwitch.quarantine` nodes so dispatch never even tries a
dead replica between watchdog reboots.  Both hooks default to off, in
which case the serving path is exactly the pre-failover one.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Set

from repro.core.config import ServiceConfigFile
from repro.core.errors import RequestSheddedError, RequestTimeoutError, SODAError
from repro.core.node import (
    NodeResponse,
    Request,
    ServiceUnavailableError,
    VirtualServiceNode,
)
from repro.obs.metrics import MetricsRegistry, registry_of
from repro.obs.tracing import tracer_of
from repro.core.policies import SwitchingPolicy, WeightedRoundRobinPolicy
from repro.net.http import REQUEST_SIZE_MB
from repro.net.lan import LAN
from repro.sim.kernel import Event, Simulator
from repro.sim.monitor import Monitor
from repro.sim.resources import Resource

__all__ = ["ServiceSwitch"]

# CPU work to accept, parse and dispatch one request at the switch,
# megacycles (a user-space L7 dispatcher).
SWITCH_CPU_MCYCLES = 0.6


class _SwitchMetrics:
    """One switch's metric families in one registry, children bound lazily.

    Each child is bound through the family's ``labels()`` the first time
    the switch touches it — the moment a family-level ``inc(**labels)``
    would have created it — so the exposition is unchanged, and every
    later request pays a dict lookup instead of label validation.
    """

    __slots__ = (
        "registry", "service", "_requests", "_latency", "_dispatch",
        "_failovers", "_timeouts", "_tenant_requests",
        "_by_outcome", "_latency_child", "_by_node", "_failover_child",
        "_timeout_child", "_by_tenant_outcome",
    )

    def __init__(self, registry: MetricsRegistry, service: str):
        self.registry = registry
        self.service = service
        self._requests = registry.counter(
            "soda_switch_requests_total",
            "Requests seen by a service switch, by outcome.",
            ("service", "outcome"),
        )
        self._latency = registry.histogram(
            "soda_switch_response_seconds",
            "Client-visible response time through the switch.",
            ("service",),
        )
        self._dispatch = registry.counter(
            "soda_switch_dispatch_total",
            "Requests dispatched to each back-end node.",
            ("service", "node"),
        )
        self._failovers = registry.counter(
            "soda_switch_failovers_total",
            "Dispatch attempts retried on another replica.",
            ("service",),
        )
        self._timeouts = registry.counter(
            "soda_switch_timeouts_total",
            "Requests that exhausted their timeout budget.",
            ("service",),
        )
        self._tenant_requests = registry.counter(
            "soda_tenant_requests_total",
            "Requests by owning tenant and outcome (market extension).",
            ("tenant", "service", "outcome"),
        )
        self._by_outcome: Dict[str, Any] = {}
        self._latency_child: Any = None
        self._by_node: Dict[str, Any] = {}
        self._failover_child: Any = None
        self._timeout_child: Any = None
        self._by_tenant_outcome: Dict[tuple, Any] = {}

    def outcome(self, outcome: str, latency_s: Optional[float], tenant: Optional[str]) -> None:
        child = self._by_outcome.get(outcome)
        if child is None:
            child = self._by_outcome[outcome] = self._requests.labels(
                service=self.service, outcome=outcome
            )
        child.inc()
        if latency_s is not None:
            child = self._latency_child
            if child is None:
                child = self._latency_child = self._latency.labels(service=self.service)
            child.observe(latency_s)
        if tenant is not None:
            key = (tenant, outcome)
            child = self._by_tenant_outcome.get(key)
            if child is None:
                child = self._by_tenant_outcome[key] = self._tenant_requests.labels(
                    tenant=tenant, service=self.service, outcome=outcome
                )
            child.inc()

    def dispatched(self, node: str) -> None:
        child = self._by_node.get(node)
        if child is None:
            child = self._by_node[node] = self._dispatch.labels(
                service=self.service, node=node
            )
        child.inc()

    def failover(self) -> None:
        if self._failover_child is None:
            self._failover_child = self._failovers.labels(service=self.service)
        self._failover_child.inc()

    def timeout(self) -> None:
        if self._timeout_child is None:
            self._timeout_child = self._timeouts.labels(service=self.service)
        self._timeout_child.inc()


class ServiceSwitch:
    """Directs client requests of one service to its nodes."""

    def __init__(
        self,
        sim: Simulator,
        service_name: str,
        lan: LAN,
        nodes: List[VirtualServiceNode],
        config: ServiceConfigFile,
        policy: Optional[SwitchingPolicy] = None,
        home_node: Optional[VirtualServiceNode] = None,
    ):
        if not nodes:
            raise ValueError(f"switch for {service_name!r} needs at least one node")
        self.sim = sim
        self.service_name = service_name
        self.lan = lan
        self.nodes = list(nodes)
        self.config = config
        self.policy = policy or WeightedRoundRobinPolicy()
        self.home_node = home_node or nodes[0]
        if self.home_node not in self.nodes:
            raise ValueError("home node must be one of the service's nodes")
        # Switch processing serialises: one dispatcher thread.
        self._dispatcher = Resource(sim, capacity=1)
        self.dispatched = 0
        self.rejected = 0
        self.shedded = 0
        self.response_times = Monitor(f"switch:{service_name}")
        self.per_node_count: Dict[str, int] = {n.name: 0 for n in nodes}
        # SLA hooks: a shedder decides drops under load; outcome
        # listeners tap the per-request outcome stream.
        self.shedder: Optional[Any] = None
        self._outcome_listeners: List[Callable[[float, Optional[float], str], None]] = []
        # Failover hooks (off by default — the plain serving path runs
        # unchanged unless one of these is installed).
        self.retry_policy: Optional[Any] = None
        self._request_timeout_s: Optional[float] = None
        self.quarantined: Set[str] = set()
        self.failovers = 0
        self.timeouts = 0
        # Always 0 (the switch no longer batches); kept because the
        # perfbench traced counters still read it.
        self.batches_dispatched = 0
        # Market hook (extension): the owning tenant/ASP, set by the
        # SODA Master so per-request metrics and spans carry a tenant
        # dimension for isolation accounting.
        self.tenant: Optional[str] = None
        # Observability: metric children bound against whichever registry
        # is attached to the simulator (rebound if it changes).
        self._obs_cache: Optional[_SwitchMetrics] = None

    # -- observability (observes, never perturbs) ----------------------------
    def _obs_metrics(self) -> Optional[_SwitchMetrics]:
        """This switch's metric children for the attached registry, or None."""
        registry = registry_of(self.sim)
        if registry is None:
            return None
        cache = self._obs_cache
        if cache is None or cache.registry is not registry:
            cache = self._obs_cache = _SwitchMetrics(registry, self.service_name)
        return cache

    # -- SLA hooks (extension) ----------------------------------------------
    def add_outcome_listener(
        self, listener: Callable[[float, Optional[float], str], None]
    ) -> None:
        """Subscribe ``listener(time, latency_s, outcome)`` to every request."""
        self._outcome_listeners.append(listener)

    # -- failover configuration ----------------------------------------------
    @property
    def request_timeout_s(self) -> Optional[float]:
        return self._request_timeout_s

    @request_timeout_s.setter
    def request_timeout_s(self, timeout_s: Optional[float]) -> None:
        if timeout_s is not None and not (math.isfinite(timeout_s) and timeout_s > 0):
            raise ValueError(
                f"request timeout must be positive and finite, got {timeout_s}"
            )
        self._request_timeout_s = timeout_s

    # -- policy management (the ASP-facing hook, §3.4) -----------------------
    def set_policy(self, policy: SwitchingPolicy) -> None:
        """Replace the request switching policy with an ASP-specific one."""
        if not isinstance(policy, SwitchingPolicy):
            raise TypeError("policy must be a SwitchingPolicy")
        self.policy = policy

    # -- node management (SODA Master's resizing hooks) ------------------------
    def add_node(self, node: VirtualServiceNode) -> None:
        if node in self.nodes:
            raise ValueError(f"node {node.name} already behind the switch")
        self.nodes.append(node)
        self.per_node_count.setdefault(node.name, 0)

    def remove_node(self, node: VirtualServiceNode) -> None:
        if node not in self.nodes:
            raise ValueError(f"node {node.name} not behind the switch")
        if node is self.home_node and len(self.nodes) > 1:
            raise ValueError("cannot remove the switch's home node")
        self.nodes.remove(node)
        self.quarantined.discard(node.name)

    # -- health quarantine (failover extension) -------------------------------
    def quarantine(self, node: VirtualServiceNode) -> None:
        """Take a node out of dispatch rotation (health check failed).

        Idempotent; the node object stays behind the switch so the
        watchdog can still reboot it in place.
        """
        if node not in self.nodes:
            raise ValueError(f"node {node.name} not behind the switch")
        self.quarantined.add(node.name)

    def unquarantine(self, node: VirtualServiceNode) -> None:
        """Return a recovered node to dispatch rotation.  Idempotent."""
        self.quarantined.discard(node.name)

    def weights(self) -> Dict[str, int]:
        """Node name -> relative capacity, read from the config file."""
        by_endpoint = {(n.endpoint.ip, n.endpoint.port): n for n in self.nodes}
        weights: Dict[str, int] = {}
        for directive in self.config.backends:
            node = by_endpoint.get((directive.ip, directive.port))
            if node is not None:
                weights[node.name] = directive.capacity
        return weights

    # -- dispatch ------------------------------------------------------------
    def _healthy(self) -> List[VirtualServiceNode]:
        if self.quarantined:
            return [
                n for n in self.nodes
                if n.is_available and n.name not in self.quarantined
            ]
        return [n for n in self.nodes if n.is_available]

    def select(
        self,
        request: Optional[Request] = None,
        exclude: Iterable[str] = (),
    ) -> VirtualServiceNode:
        """Pick a back-end (no simulated time; used by serve and tests).

        Requests targeting a component of a partitionable service are
        restricted to that component's nodes.  ``exclude`` removes nodes
        by name — the failover path uses it to avoid re-trying a replica
        that already failed this request.
        """
        candidates = self._healthy()
        if exclude:
            candidates = [n for n in candidates if n.name not in exclude]
        if request is not None and request.component:
            candidates = [n for n in candidates if n.component == request.component]
        if not candidates:
            what = (
                f"component {request.component!r}"
                if request is not None and request.component
                else "node"
            )
            raise ServiceUnavailableError(
                f"service {self.service_name!r} has no healthy {what}"
            )
        choice = self.policy.choose(candidates, self.weights())
        if choice not in candidates:
            # Ill-behaving custom policy (§5): contain the damage to this
            # service by falling back to the first healthy node.
            choice = candidates[0]
        return choice

    def serve(self, request: Request) -> Generator[Event, Any, NodeResponse]:
        """Full client-visible request path (simulated-process step)."""
        if self.home_node.torn_down:
            raise ServiceUnavailableError(f"switch of {self.service_name!r} is gone")
        started = self.sim.now
        # Observability: open the dispatch segment (and, for requests
        # arriving without a workload-created root span, the root too —
        # ``owned``, which this switch must then close).  Spans only
        # read the clock — the timing model is untouched.
        tracer = tracer_of(self.sim)
        lane = f"switch:{self.service_name}"
        root = dispatch = owned = None
        if tracer is not None:
            root = request.trace
            if root is None:
                root = owned = tracer.start_span(
                    "request", lane=lane, start=started, service=self.service_name
                )
                request = request.with_trace(root)
            dispatch = tracer.start_span("dispatch", lane=lane, start=started, parent=root)
            if self.tenant is not None:
                dispatch.annotate(tenant=self.tenant)
        # 1. Client -> switch home node.
        inbound = self.lan.transfer(
            request.client, self.home_node.host.nic, REQUEST_SIZE_MB,
            label=f"switch:{self.service_name}:in",
        )
        yield inbound.done
        # SLA class-priority shedding: drop at ingress while backlog
        # saturates, before the request consumes a dispatcher slot.
        if self.shedder is not None and self.shedder.should_shed(self):
            self.shedded += 1
            self._refused("shed", dispatch, owned)
            raise RequestSheddedError(
                f"service {self.service_name!r} shed a request under load"
            )
        # Failover path (extension): with a retry policy or a timeout
        # budget installed, dispatch attempts run — and re-run — through
        # the failover engine.  Neither installed: the plain path below.
        if self.retry_policy is not None or self._request_timeout_s is not None:
            return (yield from self._serve_with_failover(
                request, started, lane, root, dispatch, owned
            ))
        # 2. Switch processing (serialised).
        slot = self._dispatcher.request()
        try:
            yield slot
            yield self.sim.timeout(
                SWITCH_CPU_MCYCLES / self.home_node.host.cpu_mhz
            )
            try:
                backend = self.select(request)
            except ServiceUnavailableError:
                self._refused("failed", dispatch, owned)
                raise
        finally:
            self._dispatcher.release(slot)
        # 3. Forward to the back-end (loopback when co-located).
        yield from self._forward(backend)
        if dispatch is not None:
            # The back-end process bootstraps at this same instant, so
            # closing the dispatch segment here makes it contiguous with
            # the node's queue_wait segment.
            dispatch.finish(self.sim.now).annotate(node=backend.name)
        # 4. Back-end serves; response returns directly to the client.
        try:
            response = yield self.sim.process(
                backend.serve(request), name=f"serve:{backend.name}"
            )
        except SODAError:
            self.rejected += 1
            self._refused("failed", dispatch, owned)
            raise
        self._served(started, response, owned)
        return response

    def _forward(self, backend: VirtualServiceNode) -> Generator[Event, Any, None]:
        """Forward a request to ``backend`` over the LAN and count it."""
        forward = self.lan.transfer(
            self.home_node.host.nic, backend.host.nic, REQUEST_SIZE_MB,
            label=f"switch:{self.service_name}:fwd",
        )
        yield forward.done
        self.dispatched += 1
        self.per_node_count[backend.name] = self.per_node_count.get(backend.name, 0) + 1
        cache = self._obs_metrics()
        if cache is not None:
            cache.dispatched(backend.name)

    def _outcome(self, outcome: str, latency_s: Optional[float]) -> None:
        """Hand one request outcome to the listeners, then the metrics."""
        for listener in self._outcome_listeners:
            listener(self.sim.now, latency_s, outcome)
        cache = self._obs_metrics()
        if cache is not None:
            cache.outcome(outcome, latency_s, self.tenant)

    def _served(self, started: float, response: NodeResponse, root) -> None:
        """Account a served request: listeners, metrics, then its root span."""
        now = self.sim.now
        elapsed = now - started
        self.response_times.record(now, elapsed)
        self._outcome("ok", elapsed)
        if root is not None:
            root.finish(now).annotate(node=response.node_name)

    def _refused(self, outcome: str, dispatch, root) -> None:
        """Account a shed or failed request: listeners, metrics, then
        whichever of its spans are still open (None skips a span)."""
        self._outcome(outcome, None)
        now = self.sim.now
        if dispatch is not None and not dispatch.finished:
            dispatch.finish(now, outcome)
        if root is not None and not root.finished:
            root.finish(now, outcome)

    # -- failover engine (extension) -----------------------------------------
    def _serve_with_failover(
        self, request: Request, started: float, lane: str,
        root, dispatch, owned,
    ) -> Generator[Event, Any, NodeResponse]:
        """Serving tail with retry, failover, and a timeout budget.

        Runs after ingress and the shed check.  Each attempt pays the
        dispatcher slot + classify CPU again (the switch really does
        re-dispatch), picks a replica the request has not failed on yet,
        and races the attempt against the remaining timeout budget.  A
        failed attempt backs off per the retry policy before the next
        one; when every live replica has been tried, the exclusion set
        resets so watchdog-rebooted nodes get a chance.  A timed-out
        attempt is abandoned, not cancelled — the back-end finishes the
        work like a real server whose client hung up.
        """
        policy = self.retry_policy
        max_attempts = policy.max_attempts if policy is not None else 1
        deadline = (
            None if self._request_timeout_s is None
            else started + self._request_timeout_s
        )
        tracer = tracer_of(self.sim)
        cache = self._obs_metrics()
        tried: Set[str] = set()
        failure: Optional[SODAError] = None
        any_dispatched = False
        attempt = 0
        while attempt < max_attempts:
            attempt += 1
            # Switch processing (serialised), once per attempt.
            backend = None
            slot = self._dispatcher.request()
            try:
                yield slot
                yield self.sim.timeout(
                    SWITCH_CPU_MCYCLES / self.home_node.host.cpu_mhz
                )
                try:
                    backend = self.select(request, exclude=tried)
                except ServiceUnavailableError as exc:
                    failure = exc
                    if tried:
                        # Every replica failed this request once already;
                        # a watchdog reboot may have revived one — widen
                        # the net before writing the attempt off.
                        tried.clear()
                        try:
                            backend = self.select(request)
                            failure = None
                        except ServiceUnavailableError as again:
                            failure = again
            finally:
                self._dispatcher.release(slot)
            if dispatch is not None and not dispatch.finished:
                dispatch.finish(self.sim.now).annotate(
                    node=backend.name if backend is not None else "-"
                )
            if backend is not None:
                if deadline is not None and deadline - self.sim.now <= 0:
                    failure = self._timeout_failure(cache)
                    break
                span = None
                if tracer is not None:
                    span = tracer.start_span(
                        "attempt", lane=lane, start=self.sim.now, parent=root,
                        node=backend.name, attempt=attempt,
                    )
                any_dispatched = True
                proc = self.sim.process(
                    self._attempt(backend, request), name=f"attempt:{backend.name}"
                )
                if deadline is None:
                    response, exc = yield proc
                else:
                    guard = self.sim.timeout(deadline - self.sim.now)
                    yield self.sim.any_of([proc, guard])
                    if proc.is_alive:
                        # Budget exhausted mid-attempt; abandon it.
                        if span is not None:
                            span.finish(self.sim.now, "timeout")
                        failure = self._timeout_failure(cache)
                        break
                    response, exc = proc.value
                if exc is None:
                    if span is not None:
                        span.finish(self.sim.now)
                    self._served(started, response, owned)
                    return response
                failure = exc
                tried.add(backend.name)
                if span is not None:
                    span.finish(self.sim.now, "failed")
            if attempt >= max_attempts:
                break
            # Back off before the next attempt, clamped to the budget.
            self.failovers += 1
            if cache is not None:
                cache.failover()
            delay = policy.delay(attempt) if policy is not None else 0.0
            if deadline is not None:
                remaining = deadline - self.sim.now
                if remaining <= 0:
                    failure = self._timeout_failure(cache)
                    break
                if delay > remaining:
                    delay = remaining
            if delay > 0:
                yield self.sim.timeout(delay)
        if failure is None:  # pragma: no cover - defensive
            failure = ServiceUnavailableError(
                f"service {self.service_name!r} exhausted its attempts"
            )
        if any_dispatched:
            self.rejected += 1
        self._refused("failed", dispatch, owned)
        raise failure

    def _timeout_failure(self, cache) -> RequestTimeoutError:
        self.timeouts += 1
        if cache is not None:
            cache.timeout()
        return RequestTimeoutError(
            f"service {self.service_name!r} request exceeded its "
            f"{self.request_timeout_s:g}s budget"
        )

    def _attempt(
        self, backend: VirtualServiceNode, request: Request
    ) -> Generator[Event, Any, tuple]:
        """One dispatch attempt; returns ``(response, exc)``, never raises.

        Catching :class:`SODAError` inside the child process keeps an
        abandoned (timed-out) attempt from failing a process nobody is
        left awaiting.
        """
        yield from self._forward(backend)
        try:
            response = yield self.sim.process(
                backend.serve(request), name=f"serve:{backend.name}"
            )
        except SODAError as exc:
            return None, exc
        return response, None
