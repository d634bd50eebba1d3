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

Steps 2-4 are one *attempt*, and one attempt loop is the only serving
engine.  Crashed and quarantined nodes are skipped at dispatch time; if
no healthy node remains the attempt fails with
:class:`ServiceUnavailableError`.

SLA hooks (extension): a shedder installed by the SODA Master drops
requests when backlog saturates (class-priority load shedding, bronze
first — see :mod:`repro.sla.enforcement`), and outcome listeners (e.g.
an :class:`~repro.sla.monitor.SLOMonitor`) receive every per-request
outcome — ``(time, latency, "ok" | "failed" | "shed")`` — as it happens.

Failover (extension): a :attr:`ServiceSwitch.retry_policy` (capped
exponential backoff, see :class:`repro.faults.retry.BackoffPolicy` —
duck-typed: anything with ``max_attempts`` and ``delay(attempt)``) lets
the loop re-run a failed attempt against replicas it has not tried yet,
backing off in between; without one the switch makes one attempt.  A
:attr:`ServiceSwitch.request_timeout_s` budget gives the request a
deadline (:class:`~repro.core.errors.RequestTimeoutError`); each attempt
then runs in an ``attempt:<node>`` child process raced against the
remaining budget.  Without a budget the attempt runs inline, inside the
request's own simulated process.  A health checker
(:class:`repro.faults.health.SwitchHealthChecker`) can additionally
:meth:`~ServiceSwitch.quarantine` nodes so dispatch never even tries a
dead replica between watchdog reboots.
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
from repro.obs.metrics import (
    SWITCH_DISPATCH,
    SWITCH_FAILOVERS,
    SWITCH_REQUESTS,
    SWITCH_RESPONSE,
    SWITCH_TIMEOUTS,
    TENANT_REQUESTS,
    registry_of,
)
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
        # Span lane and LAN flow labels, built once rather than per request.
        self._lane = f"switch:{service_name}"
        self._in_label = self._lane + ":in"
        self._fwd_label = self._lane + ":fwd"
        self.response_times = Monitor(self._lane)
        self.per_node_count: Dict[str, int] = {n.name: 0 for n in nodes}
        # SLA hooks: a shedder decides drops under load; outcome
        # listeners tap the per-request outcome stream.
        self.shedder: Optional[Any] = None
        self._outcome_listeners: List[Callable[[float, Optional[float], str], None]] = []
        # Failover hooks: no policy means one attempt, no timeout no
        # deadline.
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
        by name — the attempt loop uses it to avoid re-trying a replica
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
        """Full client-visible request path (simulated-process step).

        After ingress and the shed check, each attempt pays the
        dispatcher slot + classify CPU (the switch really does
        re-dispatch) and picks a replica the request has not failed on
        yet.  A failed attempt backs off per the retry policy before
        the next one; when every live replica has been tried, the
        exclusion set resets so watchdog-rebooted nodes get a chance.
        A timed-out attempt is abandoned, not cancelled — the back-end
        finishes the work like a real server whose client hung up.
        """
        if self.home_node.torn_down:
            raise ServiceUnavailableError(f"switch of {self.service_name!r} is gone")
        started = self.sim.now
        # Observability: open the dispatch segment (and, for requests
        # arriving without a workload-created root span, the root too —
        # ``owned``, which this switch must then close).  Spans only
        # read the clock — the timing model is untouched.
        tracer = tracer_of(self.sim)
        root = segment = owned = None
        if tracer is not None:
            root = request.trace
            if root is None:
                root = owned = tracer.start_span(
                    "request", lane=self._lane, start=started, service=self.service_name
                )
                request = request.with_trace(root)
            segment = tracer.start_span("dispatch", lane=self._lane, start=started, parent=root)
            if self.tenant is not None:
                segment.annotate(tenant=self.tenant)
        # 1. Client -> switch home node.
        inbound = self.lan.transfer(
            request.client, self.home_node.host.nic, REQUEST_SIZE_MB,
            label=self._in_label,
        )
        yield inbound.done
        # SLA class-priority shedding: drop at ingress while backlog
        # saturates, before the request consumes a dispatcher slot.
        if self.shedder is not None and self.shedder.should_shed(self):
            self.shedded += 1
            self._refused("shed", segment, owned)
            raise RequestSheddedError(
                f"service {self.service_name!r} shed a request under load"
            )
        policy = self.retry_policy
        max_attempts = policy.max_attempts if policy is not None else 1
        deadline = (
            None if self._request_timeout_s is None
            else started + self._request_timeout_s
        )
        tried: Set[str] = set()
        failure: Optional[SODAError] = None
        any_dispatched = False
        attempt = 0
        while True:
            attempt += 1
            # 2. Switch processing (serialised), once per attempt.
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
                        except ServiceUnavailableError as again:
                            failure = again
            finally:
                self._dispatcher.release(slot)
            if backend is not None:
                if deadline is not None and deadline - self.sim.now <= 0:
                    failure = self._timeout_failure()
                    break
                any_dispatched = True
                if deadline is None:
                    # 3-4. No budget to race: forward, then the back-end
                    # serves inside this process.  Calling it here rather
                    # than through _attempt keeps one generator fewer alive
                    # (and resumed through) per request in service.
                    yield from self._forward(backend, segment)
                    try:
                        response, error = (yield from backend.serve(request)), None
                    except SODAError as exc:
                        response, error = None, exc
                else:
                    proc = self.sim.process(
                        self._attempt(backend, request, segment),
                        name=f"attempt:{backend.name}",
                    )
                    yield self.sim.any_of(
                        [proc, self.sim.timeout(deadline - self.sim.now)]
                    )
                    if proc.is_alive:
                        # Budget exhausted mid-attempt; abandon it.
                        failure = self._timeout_failure()
                        break
                    response, error = proc.value
                if error is None:
                    self._served(started, response, owned)
                    failure = None  # an earlier attempt's: see the raise below
                    return response
                failure = error
                tried.add(backend.name)
            if attempt >= max_attempts:
                break
            # Back off before the next attempt, clamped to the budget.
            self.failovers += 1
            registry = registry_of(self.sim)
            if registry is not None:
                registry.series[SWITCH_FAILOVERS, self.service_name].inc()
            delay = policy.delay(attempt)
            if deadline is not None:
                remaining = deadline - self.sim.now
                if remaining <= 0:
                    failure = self._timeout_failure()
                    break
                if delay > remaining:
                    delay = remaining
            if segment is not None:
                # The next attempt's segment runs from this failure
                # through the backoff to its own forward.
                if not segment.finished:  # no replica took this attempt
                    segment.finish(self.sim.now, "failed")
                segment = tracer.start_span(
                    "redispatch", lane=self._lane, start=self.sim.now,
                    parent=root, attempt=attempt + 1,
                )
            if delay > 0:
                yield self.sim.timeout(delay)
        if any_dispatched:
            self.rejected += 1
        self._refused("failed", segment, owned)
        try:
            raise failure
        finally:
            # A traceback through this generator holds its frame, so a
            # local still naming the failure (or the attempt that
            # returned it) would tie both into a cycle that only the
            # cyclic GC frees.  Drop them as it leaves.
            failure = error = proc = None

    def _forward(self, backend: VirtualServiceNode, segment) -> Generator[Event, Any, None]:
        """Forward a request to ``backend`` over the LAN (loopback when
        co-located) and count it.

        The switch's open span ``segment`` closes when the forward
        lands, the instant the back-end's ``queue_wait`` opens, unless
        a timeout already closed it and abandoned this attempt.
        """
        forward = self.lan.transfer(
            self.home_node.host.nic, backend.host.nic, REQUEST_SIZE_MB,
            label=self._fwd_label,
        )
        yield forward.done
        self.dispatched += 1
        self.per_node_count[backend.name] = self.per_node_count.get(backend.name, 0) + 1
        registry = registry_of(self.sim)
        if registry is not None:
            registry.series[SWITCH_DISPATCH, self.service_name, backend.name].inc()
        if segment is not None and not segment.finished:
            segment.finish(self.sim.now).annotate(node=backend.name)

    def _attempt(
        self, backend: VirtualServiceNode, request: Request, segment
    ) -> Generator[Event, Any, tuple]:
        """A budgeted attempt (the ``attempt:`` child process): forward and
        serve; returns ``(response, exc)``, never raises a :class:`SODAError`.

        Returning the error keeps an abandoned (timed-out) attempt from
        failing a process nobody is left awaiting.
        """
        yield from self._forward(backend, segment)
        try:
            return (yield from backend.serve(request)), None
        except SODAError as exc:
            return None, exc

    def _outcome(self, outcome: str, latency_s: Optional[float]) -> None:
        """Hand one request outcome to the listeners, then the metrics."""
        for listener in self._outcome_listeners:
            listener(self.sim.now, latency_s, outcome)
        registry = registry_of(self.sim)
        if registry is not None:
            service = self.service_name
            registry.series[SWITCH_REQUESTS, service, outcome].inc()
            if latency_s is not None:
                registry.series[SWITCH_RESPONSE, service].observe(latency_s)
            if self.tenant is not None:
                registry.series[TENANT_REQUESTS, self.tenant, service, outcome].inc()

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

    def _timeout_failure(self) -> RequestTimeoutError:
        self.timeouts += 1
        registry = registry_of(self.sim)
        if registry is not None:
            registry.series[SWITCH_TIMEOUTS, self.service_name].inc()
        return RequestTimeoutError(
            f"service {self.service_name!r} request exceeded its "
            f"{self.request_timeout_s:g}s budget"
        )
