"""A siege-like HTTP load generator.

"The requests are generated by machines in the same LAN using *siege*,
an HTTP request generation program" (§5).  Three modes:

* **open loop** — Poisson arrivals at a target rate; each arrival is an
  independent client exchange.  Used for Figure 4, where "we reduce the
  request arrival rate with the increase in dataset size".
* **closed loop** — a fixed population of workers, each issuing the
  next request after a think time.  Used for controlled single-stream
  measurements (Figure 6).
* **recorded trace** — requests fired at the exact instants (and with
  the dataset sizes) of an :class:`~repro.workload.replay.ArrivalTrace`.

Every completed request records its response time, tagged by the node
that served it, into a :class:`SiegeReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional

from repro.core.errors import RequestSheddedError, SODAError
from repro.core.switch import ServiceSwitch
from repro.obs.tracing import tracer_of
from repro.sim.kernel import Event, Simulator
from repro.sim.monitor import Monitor
from repro.sim.rng import RandomStreams
from repro.workload.apps import web_request
from repro.workload.clients import ClientPool
from repro.workload.replay import ArrivalTrace

__all__ = ["SiegeReport", "Siege"]


@dataclass
class SiegeReport:
    """Aggregated outcome of one siege run."""

    dataset_mb: float
    overall: Monitor = field(default_factory=lambda: Monitor("siege:overall"))
    by_node: Dict[str, Monitor] = field(default_factory=dict)
    failures: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0

    def node_monitor(self, node_name: str) -> Monitor:
        if node_name not in self.by_node:
            self.by_node[node_name] = Monitor(f"siege:{node_name}")
        return self.by_node[node_name]

    @property
    def completed(self) -> int:
        return self.overall.count

    def mean_response_s(self, node_name: Optional[str] = None) -> float:
        monitor = self.overall if node_name is None else self.by_node[node_name]
        return monitor.mean()

    def requests_served_by(self, node_name: str) -> int:
        monitor = self.by_node.get(node_name)
        return monitor.count if monitor else 0

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    def throughput_rps(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.completed / self.duration


class Siege:
    """Drives a service switch with HTTP load."""

    def __init__(
        self,
        sim: Simulator,
        switch: ServiceSwitch,
        clients: ClientPool,
        streams: Optional[RandomStreams] = None,
        dataset_mb: float = 1.0,
    ):
        if not (math.isfinite(dataset_mb) and dataset_mb >= 0):
            raise ValueError(f"dataset size must be finite and >= 0, got {dataset_mb}")
        self.sim = sim
        self.switch = switch
        self.clients = clients
        self.streams = streams or RandomStreams(seed=0)
        self.dataset_mb = dataset_mb

    def _one_request(self, report: SiegeReport, size_mb: float) -> Generator[Event, Any, None]:
        client = self.clients.next_client()
        request = web_request(client, size_mb)
        started = self.sim.now
        # Observability: the workload client roots the request's trace;
        # the switch and node hang their timed segments off it.  The
        # switch process bootstraps at this same instant, so the root
        # span starts exactly where the dispatch segment does.
        tracer = tracer_of(self.sim)
        root = None
        if tracer is not None:
            root = tracer.start_span(
                "request", lane=client.name, start=started,
                service=self.switch.service_name,
            )
            request = request.with_trace(root)
        try:
            response = yield self.sim.process(
                self.switch.serve(request), name="siege-request"
            )
        except SODAError as exc:
            report.failures += 1
            if root is not None:
                status = "shed" if isinstance(exc, RequestSheddedError) else "failed"
                root.finish(self.sim.now, status)
            return
        elapsed = self.sim.now - started
        report.overall.record(self.sim.now, elapsed)
        report.node_monitor(response.node_name).record(self.sim.now, elapsed)
        if root is not None:
            root.finish(self.sim.now).annotate(node=response.node_name)

    # -- open loop ----------------------------------------------------------
    def run_open_loop(
        self, rate_rps: float, duration_s: float
    ) -> Generator[Event, Any, SiegeReport]:
        """Poisson arrivals at ``rate_rps`` for ``duration_s``.

        Returns after all in-flight requests complete.
        """
        if not (math.isfinite(rate_rps) and rate_rps > 0):
            raise ValueError(f"rate must be positive and finite, got {rate_rps}")
        if not (math.isfinite(duration_s) and duration_s > 0):
            raise ValueError(f"duration must be positive and finite, got {duration_s}")
        report = SiegeReport(dataset_mb=self.dataset_mb, started_at=self.sim.now)
        deadline = self.sim.now + duration_s
        in_flight = []
        while True:
            gap = self.streams.exponential("siege-arrivals", 1.0 / rate_rps)
            if self.sim.now + gap > deadline:
                break
            yield self.sim.timeout(gap)
            in_flight.append(
                self.sim.process(
                    self._one_request(report, self.dataset_mb), name="siege-arrival"
                )
            )
        for proc in in_flight:
            yield proc
        report.finished_at = self.sim.now
        return report

    # -- closed loop ----------------------------------------------------------
    def run_closed_loop(
        self,
        n_workers: int,
        requests_per_worker: int,
        think_s: float = 0.0,
    ) -> Generator[Event, Any, SiegeReport]:
        """``n_workers`` clients, each issuing ``requests_per_worker``
        back-to-back requests separated by ``think_s``."""
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got {n_workers}")
        if requests_per_worker < 1:
            raise ValueError(f"need at least one request, got {requests_per_worker}")
        if not (math.isfinite(think_s) and think_s >= 0):
            raise ValueError(f"think time must be finite and >= 0, got {think_s}")
        report = SiegeReport(dataset_mb=self.dataset_mb, started_at=self.sim.now)

        def worker(sim: Simulator) -> Generator[Event, Any, None]:
            for _ in range(requests_per_worker):
                yield sim.process(self._one_request(report, self.dataset_mb))
                if think_s > 0:
                    yield sim.timeout(think_s)

        workers = [
            self.sim.process(worker(self.sim), name=f"siege-worker-{i}")
            for i in range(n_workers)
        ]
        for proc in workers:
            yield proc
        report.finished_at = self.sim.now
        return report

    # -- recorded trace -------------------------------------------------------
    def run_trace(self, trace: ArrivalTrace) -> Generator[Event, Any, SiegeReport]:
        """Fire ``trace``'s requests at their recorded offsets from now.

        Each arrival carries its own dataset size (the report's
        ``dataset_mb`` is -1: there is no single size).  Returns after
        all in-flight requests complete.
        """
        report = SiegeReport(dataset_mb=-1.0, started_at=self.sim.now)
        origin = self.sim.now
        in_flight = []
        for offset, size_mb in trace.arrivals:
            gap = origin + offset - self.sim.now
            if gap > 0:
                yield self.sim.timeout(gap)
            in_flight.append(
                self.sim.process(
                    self._one_request(report, size_mb), name="siege-arrival"
                )
            )
        for proc in in_flight:
            yield proc
        report.finished_at = self.sim.now
        return report
