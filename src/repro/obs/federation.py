"""Federation-wide observability: traces, metrics and profiles that
survive the shard boundary.

The PR 4 observability stack is single-kernel: one tracer, one registry,
one profiler attached to one simulator.  A federated run
(:mod:`repro.sim.parallel`) is many sub-kernels in many processes, so
each pillar needs a federation layer:

* **Cross-shard trace propagation** — a picklable :class:`TraceContext`
  (trace id, parent span id, origin shard) rides every
  :class:`~repro.sim.parallel.ShardMessage`.  Each shard runs its own
  :class:`~repro.obs.tracing.RequestTracer` whose span/trace IDs are
  *namespaced by shard name* (``"us-east:00000042"``): IDs depend only
  on the shard's deterministic event order, never on the process
  layout, so the reassembled federation-wide trace set is bit-identical
  across worker counts.  :func:`merge_shard_spans` is the reassembly:
  concatenate per-shard span logs and sort on ``(trace, span)`` — the
  zero-padded IDs make lexical order creation order.
* **Metrics federation** — per-shard registry snapshots
  (:meth:`~repro.obs.metrics.MetricsRegistry.dump`) ship to the
  coordinator once, at the end of the run; :class:`FederatedMetrics`
  keeps the newest snapshot per shard and merges them into one exposition
  with a ``shard`` label: counters *sum* into any existing child,
  gauges are last-write-wins per ``(shard, name, labels)``, histogram
  bucket counts add.  Federation-level gauges report the epoch number,
  per-worker barrier wait, and messages exchanged.
* **Epoch critical-path profiler** — :class:`FederationProfiler` takes
  the coordinator's per-epoch per-shard ``process_time`` accounting and
  attributes wall time to compute vs barrier stall per worker: the
  critical path is the sum over epochs of the slowest worker's CPU, the
  achievable-speedup bound is total CPU over critical path, and the
  multi-lane Chrome export draws one lane per shard with epoch barriers
  as instant events (``soda-obs federation-summary`` /
  ``chrome-export --federated``).

Everything here observes and never perturbs: no events are scheduled,
no RNG streams are touched, and nothing feeds back into a shard digest
— federated digests are bit-identical with the whole stack on or off
(pinned by the determinism guard).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.metrics import (
    FEDERATION_BARRIER_WAIT,
    FEDERATION_EPOCH,
    FEDERATION_MESSAGES,
    MetricsRegistry,
)

__all__ = [
    "TraceContext",
    "FederationObservability",
    "FederatedMetrics",
    "FederationProfiler",
    "FederationObsResult",
    "merge_shard_spans",
    "trace_completeness",
    "FEDPROFILE_FORMAT",
]

#: On-disk format tag for a federation profile document.
FEDPROFILE_FORMAT = "soda-fedprofile/1"


@dataclass(frozen=True)
class TraceContext:
    """The picklable trace handle that rides a cross-shard message.

    Pure data — shards cannot share live :class:`~repro.obs.tracing.Span`
    objects across process boundaries, so the message plane carries the
    identifying pair plus the origin shard.  IDs are the shard-namespaced
    strings minted by a namespaced tracer, so a context is meaningful on
    any shard and any worker layout.
    """

    trace_id: str
    span_id: str
    origin: str


@dataclass(frozen=True)
class FederationObservability:
    """Which observability pillars a federated run enables (picklable).

    Passed to :func:`repro.sim.parallel.run_federation`; each shard —
    wherever its process lives — builds its own tracer/registry/profiler
    from this spec.  All pillars default on: constructing the spec *is*
    the opt-in.
    """

    tracing: bool = True
    metrics: bool = True
    profile: bool = True
    span_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.span_capacity is not None and self.span_capacity < 1:
            raise ValueError(
                f"span_capacity must be >= 1, got {self.span_capacity}"
            )

    @property
    def enabled(self) -> bool:
        return self.tracing or self.metrics or self.profile


# ---------------------------------------------------------------------------
# Trace reassembly.
# ---------------------------------------------------------------------------

def merge_shard_spans(
    per_shard: Dict[str, List[Dict[str, Any]]]
) -> List[Dict[str, Any]]:
    """Reassemble per-shard span logs into one federation-wide list.

    Sorted by ``(trace, span)``: shard-namespaced IDs are zero-padded,
    so lexical order is per-shard creation order, and the merged order
    is a pure function of the span set — identical for every worker
    layout.
    """
    merged = [
        dict(span) for shard in sorted(per_shard) for span in per_shard[shard]
    ]
    merged.sort(key=lambda s: (str(s.get("trace")), str(s.get("span"))))
    return merged


def trace_completeness(spans: List[Dict[str, Any]]) -> Dict[str, int]:
    """Audit a merged span set: orphan parents and unfinished spans.

    A parent reference is *orphaned* when no span in the same trace
    carries that span id — a propagation bug (or ring-buffer eviction).
    The CI smoke job fails on any non-zero count here.
    """
    ids_by_trace: Dict[Any, set] = {}
    for span in spans:
        ids_by_trace.setdefault(span.get("trace"), set()).add(span.get("span"))
    orphans = 0
    open_spans = 0
    for span in spans:
        parent = span.get("parent")
        if parent is not None and parent not in ids_by_trace[span.get("trace")]:
            orphans += 1
        if span.get("end") is None:
            open_spans += 1
    return {
        "spans": len(spans),
        "traces": len(ids_by_trace),
        "orphan_parents": orphans,
        "open_spans": open_spans,
    }


# ---------------------------------------------------------------------------
# Metrics federation.
# ---------------------------------------------------------------------------

class FederatedMetrics:
    """Merges per-shard registry snapshots into one exposition.

    The coordinator calls :meth:`update` once per shard with its final
    :meth:`~repro.obs.metrics.MetricsRegistry.dump` (newest snapshot
    wins — dumps are cumulative, so the last covers the run) and
    :meth:`note_epoch` / :meth:`note_barrier_wait` with its own
    accounting.  :meth:`merge_into` applies the merge rules against any
    registry; :meth:`render` produces the standalone Prometheus text.
    """

    def __init__(self) -> None:
        self._dumps: Dict[str, List[Dict[str, Any]]] = {}
        self.epoch = 0
        self.messages = 0
        self.barrier_wait_s: Dict[str, float] = {}

    def update(self, shard: str, dump: List[Dict[str, Any]]) -> None:
        """Adopt a shard's cumulative registry snapshot (newest wins)."""
        self._dumps[shard] = dump

    def note_epoch(self, epoch: int, messages: int) -> None:
        self.epoch = epoch
        self.messages = messages

    def note_barrier_wait(self, wait_by_worker: Dict[str, float]) -> None:
        self.barrier_wait_s = dict(wait_by_worker)

    @property
    def shards(self) -> List[str]:
        return sorted(self._dumps)

    def merge_into(self, registry: MetricsRegistry) -> None:
        """Apply the merge rules into ``registry``, adding a ``shard`` label.

        Counters ``inc`` into any existing child (the *sum* rule),
        gauges ``set`` — last write wins per ``(shard, name, labels)``,
        which is deterministic because shards merge in sorted order and
        each shard contributes exactly its newest snapshot — and
        histogram bucket counts, sums and counts add element-wise.
        """
        for shard in self.shards:
            for family in self._dumps[shard]:
                labels = ("shard",) + tuple(family["labels"])
                kind = family["kind"]
                if kind == "histogram":
                    metric = registry.histogram(
                        family["name"], family["help"], labels,
                        buckets=family["buckets"],
                    )
                    for key, state in family["children"]:
                        child = metric.labels(
                            **dict(zip(labels, (shard,) + tuple(key)))
                        )
                        child.sum += state["sum"]
                        child.count += state["count"]
                        for i, count in enumerate(state["counts"]):
                            child.counts[i] += count
                elif kind == "gauge":
                    metric = registry.gauge(
                        family["name"], family["help"], labels
                    )
                    for key, value in family["children"]:
                        metric.set(
                            value, **dict(zip(labels, (shard,) + tuple(key)))
                        )
                else:
                    metric = registry.counter(
                        family["name"], family["help"], labels
                    )
                    for key, value in family["children"]:
                        metric.inc(
                            value, **dict(zip(labels, (shard,) + tuple(key)))
                        )
        registry.series[FEDERATION_EPOCH].set(float(self.epoch))
        registry.series[FEDERATION_MESSAGES].set(float(self.messages))
        for worker in sorted(self.barrier_wait_s):
            registry.series[FEDERATION_BARRIER_WAIT, worker].set(
                self.barrier_wait_s[worker]
            )

    def render(self) -> str:
        """The merged Prometheus text exposition (a fresh registry)."""
        registry = MetricsRegistry()
        self.merge_into(registry)
        return registry.render()


# ---------------------------------------------------------------------------
# The epoch critical-path profiler.
# ---------------------------------------------------------------------------

class FederationProfiler:
    """Attributes federated wall time to compute vs barrier stall.

    Fed one ``{shard: cpu_seconds}`` record per epoch (the coordinator's
    ``process_time`` accounting), with a fixed shard→worker assignment.
    Per epoch the slowest worker sets the barrier: every other worker
    *stalls* for the difference.  The **critical path** is the sum over
    epochs of the slowest worker's CPU — the wall time the barrier
    structure would cost on dedicated cores — and the
    **achievable-speedup bound** is total CPU over critical path.
    """

    def __init__(self, epoch_s: float, shard_worker: Dict[str, int]):
        if epoch_s <= 0:
            raise ValueError(f"epoch_s must be positive, got {epoch_s}")
        if not shard_worker:
            raise ValueError("profiler needs at least one shard")
        self.epoch_s = epoch_s
        self.shard_worker = dict(shard_worker)
        self.shards = sorted(shard_worker)
        self.n_workers = 1 + max(shard_worker.values())
        #: Per epoch: {shard: cpu seconds} (every shard present).
        self.epochs: List[Dict[str, float]] = []

    # -- recording ----------------------------------------------------------
    def record_epoch(self, busy_by_shard: Dict[str, float]) -> None:
        unknown = set(busy_by_shard) - set(self.shard_worker)
        if unknown:
            raise ValueError(f"unknown shards in epoch record: {sorted(unknown)}")
        self.epochs.append(
            {s: float(busy_by_shard.get(s, 0.0)) for s in self.shards}
        )

    # -- attribution --------------------------------------------------------
    def worker_busy(self, epoch_busy: Dict[str, float]) -> List[float]:
        """One epoch's ``{shard: cpu}`` summed per worker."""
        busy = [0.0] * self.n_workers
        for shard, cpu in epoch_busy.items():
            busy[self.shard_worker[shard]] += cpu
        return busy

    @property
    def n_epochs(self) -> int:
        return len(self.epochs)

    @property
    def critical_path_s(self) -> float:
        return sum(max(self.worker_busy(e)) for e in self.epochs)

    @property
    def total_busy_s(self) -> float:
        return sum(sum(e.values()) for e in self.epochs)

    def worker_totals(self) -> List[float]:
        totals = [0.0] * self.n_workers
        for epoch in self.epochs:
            for worker, busy in enumerate(self.worker_busy(epoch)):
                totals[worker] += busy
        return totals

    def shard_totals(self) -> Dict[str, float]:
        return {
            shard: sum(epoch[shard] for epoch in self.epochs)
            for shard in self.shards
        }

    def barrier_wait_by_worker(self) -> List[float]:
        """Per worker: CPU-seconds idled waiting for the epoch's slowest."""
        waits = [0.0] * self.n_workers
        for epoch in self.epochs:
            busy = self.worker_busy(epoch)
            slowest = max(busy)
            for worker, b in enumerate(busy):
                waits[worker] += slowest - b
        return waits

    @property
    def barrier_wait_s(self) -> float:
        return sum(self.barrier_wait_by_worker())

    @property
    def stall_fraction(self) -> float:
        denominator = self.n_workers * self.critical_path_s
        return self.barrier_wait_s / denominator if denominator else 0.0

    @property
    def achievable_speedup(self) -> float:
        """Upper bound on dedicated-core speedup given the barriers."""
        critical = self.critical_path_s
        return self.total_busy_s / critical if critical else 1.0

    # -- reporting ----------------------------------------------------------
    def render(self) -> str:
        """The terminal report: per-worker compute vs stall attribution."""
        if not self.epochs:
            return "(no epochs profiled)"
        totals = self.worker_totals()
        waits = self.barrier_wait_by_worker()
        critical = self.critical_path_s
        by_worker: Dict[int, List[str]] = {}
        for shard in self.shards:
            by_worker.setdefault(self.shard_worker[shard], []).append(shard)
        lines = [
            f"federation profile: {len(self.shards)} shards on "
            f"{self.n_workers} workers, {self.n_epochs} epochs "
            f"(lookahead {self.epoch_s * 1e3:.0f} ms)",
            f"worker CPU {self.total_busy_s:.4f} s; critical path "
            f"{critical:.4f} s; achievable speedup "
            f"{self.achievable_speedup:.2f}x; barrier stall "
            f"{self.stall_fraction:.1%}",
        ]
        shard_w = max(
            [len(", ".join(by_worker.get(w, ()))) for w in range(self.n_workers)]
            + [6]
        )
        lines.append(
            f"{'worker':<6}  {'shards':<{shard_w}}  {'busy s':>9}  "
            f"{'stall s':>9}  {'stall':>6}"
        )
        for worker in range(self.n_workers):
            wall = totals[worker] + waits[worker]
            share = waits[worker] / wall if wall else 0.0
            lines.append(
                f"{worker:<6}  {', '.join(by_worker.get(worker, ())):<{shard_w}}  "
                f"{totals[worker]:>9.4f}  {waits[worker]:>9.4f}  {share:>6.1%}"
            )
        slowest = max(self.shard_totals().items(), key=lambda kv: (kv[1], kv[0]))
        lines.append(
            f"slowest shard: {slowest[0]} ({slowest[1]:.4f} s CPU)"
        )
        return "\n".join(lines)

    # -- serialization ------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """The ``soda-fedprofile/1`` JSON document."""
        return {
            "format": FEDPROFILE_FORMAT,
            "epoch_s": self.epoch_s,
            "shard_worker": dict(self.shard_worker),
            "epochs": [dict(epoch) for epoch in self.epochs],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FederationProfiler":
        if (
            not isinstance(payload, dict)
            or payload.get("format") != FEDPROFILE_FORMAT
        ):
            raise ValueError(f"not a {FEDPROFILE_FORMAT} document")
        profiler = cls(payload["epoch_s"], payload["shard_worker"])
        for epoch in payload["epochs"]:
            profiler.record_epoch(epoch)
        return profiler

    # -- Chrome export ------------------------------------------------------
    def chrome_trace(self) -> Dict[str, Any]:
        """A multi-lane Chrome trace: one lane per shard, barriers as
        instant events.

        The timeline is *dedicated-core* time: epoch ``e`` starts at the
        cumulative critical path before it; shards sharing a worker
        stack sequentially (sorted order — the worker's real execution
        order), and the barrier instant marks where the epoch's slowest
        worker finishes.
        """
        events: List[Dict[str, Any]] = [
            {
                "name": "process_name", "ph": "M", "ts": 0,
                "pid": 1, "tid": 0, "args": {"name": "federation"},
            },
            {
                "name": "thread_name", "ph": "M", "ts": 0,
                "pid": 1, "tid": 0, "args": {"name": "epoch barriers"},
            },
        ]
        tids = {shard: i + 1 for i, shard in enumerate(self.shards)}
        for shard, tid in tids.items():
            events.append(
                {
                    "name": "thread_name", "ph": "M", "ts": 0,
                    "pid": 1, "tid": tid,
                    "args": {
                        "name": f"shard:{shard} [w{self.shard_worker[shard]}]"
                    },
                }
            )
        t = 0.0
        for number, epoch in enumerate(self.epochs, start=1):
            offsets = [t] * self.n_workers
            for shard in self.shards:
                worker = self.shard_worker[shard]
                busy = epoch[shard]
                events.append(
                    {
                        "name": f"epoch {number}",
                        "cat": "compute",
                        "ph": "X",
                        "ts": offsets[worker] * 1e6,
                        "dur": busy * 1e6,
                        "pid": 1,
                        "tid": tids[shard],
                        "args": {"epoch": number, "busy_s": busy},
                    }
                )
                offsets[worker] += busy
            t += max(self.worker_busy(epoch))
            events.append(
                {
                    "name": f"barrier {number}",
                    "ph": "i",
                    "s": "g",
                    "ts": t * 1e6,
                    "pid": 1,
                    "tid": 0,
                    "args": {"epoch": number},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# The assembled result.
# ---------------------------------------------------------------------------

@dataclass
class FederationObsResult:
    """Everything a federated run observed, reassembled coordinator-side.

    Attached to :class:`~repro.sim.parallel.FederationRun` when an
    observability spec was passed; never part of the digest.
    """

    spans: List[Dict[str, Any]] = field(default_factory=list)
    spans_dropped: int = 0
    metrics: Optional[FederatedMetrics] = None
    profiler: Optional[FederationProfiler] = None
    kernel_profiles: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def trace_stats(self) -> Dict[str, int]:
        return trace_completeness(self.spans)
