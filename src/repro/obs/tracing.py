"""Distributed request tracing over the simulated request path.

A :class:`RequestTracer` attached to a simulator (``sim.obs_tracer``)
collects :class:`Span` records.  Instrumented components — the workload
client, :meth:`repro.core.switch.ServiceSwitch.serve`, the virtual
service node — open one *root* span per request and one child span per
segment of the serving path:

``dispatch``
    client → switch transfer, switch queueing, request classification
    and the forward hop to the chosen back-end.
``queue_wait``
    waiting for a free worker at the virtual service node.
``cpu_service``
    guest CPU service time (syscall-interposition model, plus the
    proxy relay cost in proxy mode).
``tx``
    response transmission back to the client over the LAN.

The segments tile the request interval — each starts where the previous
one ended — so their durations sum to the measured response time (the
determinism guard asserts this to 1e-9).

Span and trace IDs are **deterministic**: they are per-tracer sequence
numbers (never ``uuid4``/``Date.now``-style wall-clock material), so a
seeded run produces bit-identical traces.  Timestamps are simulated
seconds.

Federated runs (:mod:`repro.sim.parallel`) give each shard its own
tracer constructed with a ``namespace`` — the shard name — and IDs
become zero-padded strings like ``"us-east:00000042"``.  Because each
shard's sequence depends only on its own deterministic event order,
namespaced IDs are stable across process layouts, and the zero padding
makes lexical order equal creation order so the reassembled federation
trace set (:func:`repro.obs.federation.merge_shard_spans`) is
bit-identical across worker counts.  A remote parent crosses the
process boundary as a :class:`repro.obs.federation.TraceContext`;
``start_span`` accepts it anywhere a :class:`Span` parent is accepted.

Observes-never-perturbs: starting or finishing a span touches no
simulated state and schedules no events.  With no tracer attached,
instrumentation sites cost one attribute lookup.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

__all__ = [
    "Span",
    "SpanContext",
    "RequestTracer",
    "tracer_of",
    "STATUS_OK",
    "STATUS_FAILED",
    "STATUS_SHED",
    "STATUS_OPEN",
]

_INF = float("inf")

STATUS_OPEN = "open"
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_SHED = "shed"


class SpanContext:
    """The identifying triple of a span, cheap to pass around."""

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(self, trace_id: int, span_id: int, parent_id: Optional[int]):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpanContext(trace={self.trace_id}, span={self.span_id})"


class Span(SpanContext):
    """One named, timed segment of work attributed to a lane.

    ``lane`` names where the work happened (a node, a switch, a client)
    and becomes the per-node row in the Chrome trace export.

    A span *is* its own :class:`SpanContext` — it carries the identifying
    triple in its own slots, so recording a span allocates one object —
    and :attr:`context` returns the span itself.
    """

    __slots__ = ("name", "lane", "start", "end", "status", "epoch", "attrs")

    def __init__(
        self,
        trace_id: Any,
        span_id: Any,
        parent_id: Any,
        name: str,
        lane: str,
        start: float,
        epoch: int,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        if not -_INF < start < _INF:
            raise ValueError(f"span {name!r} start must be finite; got {start}")
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.lane = lane
        self.start = start
        self.end: Optional[float] = None
        self.status = STATUS_OPEN
        self.epoch = epoch
        self.attrs: Optional[Dict[str, Any]] = attrs

    @property
    def context(self) -> "Span":
        """The identifying triple — the span itself."""
        return self

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start

    def annotate(self, **attrs: Any) -> "Span":
        """Attach key/value detail (kept out of the timing model)."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs.update(attrs)
        return self

    def finish(self, end: float, status: str = STATUS_OK) -> "Span":
        """Close the span at simulated time ``end``."""
        if self.end is not None:
            raise ValueError(f"span {self.name!r} already finished")
        if not self.start <= end < _INF:
            if end < self.start:
                raise ValueError(f"span {self.name!r} ends before it starts")
            raise ValueError(f"span {self.name!r} end must be finite; got {end}")
        self.end = end
        self.status = status
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (see :mod:`repro.obs.export`)."""
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "lane": self.lane,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "epoch": self.epoch,
            "attrs": dict(self.attrs) if self.attrs else {},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        end = f"{self.end:.6f}" if self.end is not None else "…"
        return f"<Span {self.name!r} lane={self.lane!r} [{self.start:.6f}, {end}] {self.status}>"


class RequestTracer:
    """Collects spans for one observability session.

    One tracer may serve several consecutive simulators (an experiment
    that builds a fresh testbed per data point): call
    :meth:`begin_epoch` per simulator and spans record which epoch they
    belong to, which the Chrome export maps to one process block each.

    ``capacity`` bounds memory as a ring buffer over *spans*: when full,
    the oldest spans are evicted (``dropped`` counts them) and the
    newest are retained, so a bounded trace of a long run shows how
    it ended.
    """

    def __init__(self, capacity: Optional[int] = None, namespace: Optional[str] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.namespace = namespace
        self._spans: Deque[Span] = deque(maxlen=capacity)
        self.dropped = 0
        self.epoch = 0
        self._next_trace = 0
        self._next_span = 0

    def _id(self, n: int):
        """Sequence number ``n`` as an ID: a plain int, or — namespaced —
        a zero-padded string whose lexical order is creation order."""
        if self.namespace is None:
            return n
        return f"{self.namespace}:{n:08d}"

    # -- session management -------------------------------------------------
    def begin_epoch(self) -> int:
        """Start a new epoch (one per simulator attached); returns it."""
        self.epoch += 1
        return self.epoch

    def clear(self) -> None:
        self._spans.clear()
        self.dropped = 0

    # -- span creation ------------------------------------------------------
    def start_span(
        self,
        name: str,
        lane: str,
        start: float,
        parent: Optional[Any] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span; with ``parent=None`` it roots a new trace.

        ``parent`` is anything carrying ``trace_id``/``span_id``: a local
        :class:`Span`, a :class:`SpanContext`, or a remote
        :class:`repro.obs.federation.TraceContext` that rode a
        cross-shard message.
        """
        self._next_span += 1
        if parent is None:
            self._next_trace += 1
            trace_id = self._id(self._next_trace)
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(
            trace_id, self._id(self._next_span), parent_id,
            name, lane, start, self.epoch, attrs or None,
        )
        self._append(span)
        return span

    def adopt(self, span) -> Span:
        """Append an externally-built span (federated reassembly).

        Accepts a :class:`Span` or its :meth:`Span.to_dict` form; the
        span keeps its original IDs and counts against ``capacity`` like
        any locally-created span.
        """
        if isinstance(span, dict):
            adopted = Span(
                span["trace"],
                span["span"],
                span.get("parent"),
                span["name"],
                span["lane"],
                span["start"],
                span.get("epoch", self.epoch),
                dict(span["attrs"]) if span.get("attrs") else None,
            )
            if span.get("end") is not None:
                adopted.finish(span["end"], span.get("status", STATUS_OK))
        else:
            adopted = span
        self._append(adopted)
        return adopted

    def _append(self, span: Span) -> None:
        if self.capacity is not None and len(self._spans) == self.capacity:
            self.dropped += 1
        self._spans.append(span)

    # -- queries ------------------------------------------------------------
    def spans(self) -> List[Span]:
        """All retained spans, in creation order."""
        return list(self._spans)

    def finished_spans(self) -> List[Span]:
        return [s for s in self._spans if s.finished]

    def roots(self, status: Optional[str] = None) -> List[Span]:
        """Every root span (requests, faults, ...), optionally by status."""
        return [
            s
            for s in self._spans
            if s.parent_id is None and (status is None or s.status == status)
        ]

    def children_of(self, root: Span) -> List[Span]:
        """Direct children of ``root`` in start order (ties: creation order)."""
        trace_id = root.trace_id
        parent_id = root.span_id
        kids = [
            s
            for s in self._spans
            if s.trace_id == trace_id and s.parent_id == parent_id
        ]
        kids.sort(key=lambda s: s.start)
        return kids

    def requests(self, status: Optional[str] = None) -> List[Tuple[Span, List[Span]]]:
        """``(root, segments)`` pairs for every traced request.

        Only roots named ``request`` count: other roots (a ``fault:*``
        span, a federation placement) are not requests and have no
        segments to tile.  Segments are :meth:`children_of` each root,
        found through one pass over the spans.
        """
        roots = []
        children: Dict[Tuple[Any, Any], List[Span]] = {}
        for s in self._spans:
            if s.parent_id is not None:
                children.setdefault((s.trace_id, s.parent_id), []).append(s)
            elif s.name == "request" and (status is None or s.status == status):
                roots.append(s)
        pairs = []
        for root in roots:
            kids = children.get((root.trace_id, root.span_id), [])
            kids.sort(key=lambda s: s.start)
            pairs.append((root, kids))
        return pairs

    def __len__(self) -> int:
        return len(self._spans)


def tracer_of(sim) -> Optional[RequestTracer]:
    """The tracer attached to ``sim``, if any (else ``None``)."""
    return getattr(sim, "obs_tracer", None)
