"""Tests for the span model and the request tracer."""

import math

import pytest

from repro.obs.tracing import RequestTracer, SpanContext, tracer_of


def test_span_lifecycle():
    tracer = RequestTracer()
    span = tracer.start_span("request", lane="client-0", start=1.0)
    assert not span.finished
    assert span.status == "open"
    with pytest.raises(ValueError, match="still open"):
        _ = span.duration
    span.finish(3.5)
    assert span.finished
    assert span.status == "ok"
    assert span.duration == 2.5


def test_span_double_finish_raises():
    tracer = RequestTracer()
    span = tracer.start_span("x", lane="l", start=0.0)
    span.finish(1.0)
    with pytest.raises(ValueError, match="already finished"):
        span.finish(2.0)


def test_span_cannot_end_before_start():
    tracer = RequestTracer()
    span = tracer.start_span("x", lane="l", start=5.0)
    with pytest.raises(ValueError, match="ends before it starts"):
        span.finish(4.0)


@pytest.mark.parametrize("end", [math.nan, math.inf])
def test_span_rejects_non_finite_end(end):
    tracer = RequestTracer()
    span = tracer.start_span("x", lane="l", start=5.0)
    with pytest.raises(ValueError, match="finite"):
        span.finish(end)
    assert not span.finished  # still open, can be closed properly
    span.finish(6.0)
    assert span.duration == 1.0


@pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
def test_start_span_rejects_non_finite_start(start):
    tracer = RequestTracer()
    with pytest.raises(ValueError, match="finite"):
        tracer.start_span("x", lane="l", start=start)
    assert len(tracer) == 0
    with pytest.raises(ValueError, match="finite"):
        tracer.adopt({"trace": 1, "span": 1, "name": "x", "lane": "l", "start": start})


def test_span_is_its_own_context():
    tracer = RequestTracer()
    root = tracer.start_span("request", lane="c", start=0.0)
    child = tracer.start_span("dispatch", lane="s", start=0.0, parent=root)
    assert isinstance(root, SpanContext)
    assert root.context is root
    assert (child.trace_id, child.parent_id) == (root.trace_id, root.span_id)
    # A bare SpanContext parents a span exactly like the span it names.
    via_context = tracer.start_span(
        "tx", lane="s", start=0.0, parent=SpanContext(root.trace_id, root.span_id, None)
    )
    assert (via_context.trace_id, via_context.parent_id) == (root.trace_id, root.span_id)


def test_adopt_round_trips_to_dict():
    tracer = RequestTracer()
    span = tracer.start_span("request", lane="c", start=0.25, service="web")
    span.finish(0.75, "failed")
    adopted = RequestTracer().adopt(span.to_dict())
    assert adopted.to_dict() == span.to_dict()
    assert adopted.context.span_id == span.span_id


def test_span_annotate_merges_attrs():
    tracer = RequestTracer()
    span = tracer.start_span("x", lane="l", start=0.0, service="web")
    span.annotate(node="web@seattle#0").annotate(node="web@tacoma#0", extra=1)
    assert span.attrs == {"service": "web", "node": "web@tacoma#0", "extra": 1}


def test_ids_are_deterministic_sequence_counters():
    def build():
        tracer = RequestTracer()
        root = tracer.start_span("request", lane="c", start=0.0)
        child = tracer.start_span("dispatch", lane="s", start=0.0, parent=root)
        other = tracer.start_span("request", lane="c", start=1.0)
        return [
            (s.context.trace_id, s.context.span_id, s.context.parent_id)
            for s in (root, child, other)
        ]

    first, second = build(), build()
    assert first == second  # no wall-clock / uuid material
    root_ids, child_ids, other_ids = first
    assert child_ids[0] == root_ids[0]  # child shares the trace
    assert child_ids[2] == root_ids[1]  # and points at the root span
    assert other_ids[0] == root_ids[0] + 1  # new request, new trace


def test_capacity_ring_retains_newest_spans():
    tracer = RequestTracer(capacity=2)
    for i in range(5):
        tracer.start_span(f"s{i}", lane="l", start=float(i))
    assert [s.name for s in tracer.spans()] == ["s3", "s4"]
    assert tracer.dropped == 3
    with pytest.raises(ValueError):
        RequestTracer(capacity=0)


def test_epochs_stamp_spans():
    tracer = RequestTracer()
    assert tracer.begin_epoch() == 1
    a = tracer.start_span("a", lane="l", start=0.0)
    assert tracer.begin_epoch() == 2
    b = tracer.start_span("b", lane="l", start=0.0)
    assert (a.epoch, b.epoch) == (1, 2)


def test_roots_children_and_requests():
    tracer = RequestTracer()
    root = tracer.start_span("request", lane="c", start=0.0)
    late = tracer.start_span("tx", lane="n", start=2.0, parent=root)
    early = tracer.start_span("dispatch", lane="s", start=0.0, parent=root)
    root.finish(3.0, "failed")
    other = tracer.start_span("request", lane="c", start=1.0)
    other.finish(2.0)
    fault = tracer.start_span("fault:node_crash", lane="faults", start=1.5)
    fault.finish(1.5)

    assert tracer.roots() == [root, other, fault]
    assert tracer.roots(status="failed") == [root]
    assert tracer.children_of(root) == [early, late]  # start order
    # A fault root is a root but not a request.
    requests = tracer.requests(status="ok")
    assert requests == [(other, [])]
    assert tracer.requests() == [(root, [early, late]), (other, [])]
    assert len(tracer.finished_spans()) == 3


def test_to_dict_is_json_ready():
    tracer = RequestTracer()
    span = tracer.start_span("request", lane="c", start=0.25, service="web")
    span.finish(0.75)
    data = span.to_dict()
    assert data["name"] == "request"
    assert data["start"] == 0.25 and data["end"] == 0.75
    assert data["status"] == "ok"
    assert data["attrs"] == {"service": "web"}
    assert data["parent"] is None


def test_tracer_of_defaults_to_none():
    class FakeSim:
        pass

    sim = FakeSim()
    assert tracer_of(sim) is None
    sim.obs_tracer = RequestTracer()
    assert tracer_of(sim) is sim.obs_tracer
