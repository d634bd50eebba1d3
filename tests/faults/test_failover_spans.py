"""Every served request's spans tile its interval, retried ones included.

The switch serves every request through one attempt loop.  Its
``dispatch`` segment closes when the first forward lands, the instant
the back-end's ``queue_wait`` opens (or, when no replica can take the
attempt, at that failure).  Each later attempt opens a ``redispatch``
segment that runs from the failure through the backoff to its own
forward.  So a served request's children cover its interval with no
gap and no overlap, with or without a retry policy or a timeout budget.
"""

import re

import pytest

from repro.core.errors import RequestTimeoutError
from repro.faults.chaos import run_chaos_scenario
from repro.faults.retry import BackoffPolicy
from repro.obs import Observability
from repro.workload.apps import web_request
from repro.workload.clients import ClientPool

from tests.faults.conftest import create_service, serve_through_queued_crash

# Child span names of a served request, in start order.  A failed
# attempt whose forward landed may leave a failed ``queue_wait`` before
# the next ``redispatch``.
SERVED = re.compile(r"dispatch( (queue_wait )?redispatch)* queue_wait cpu_service tx")


def assert_tiles(root, segments):
    assert segments[0].start == root.start
    assert segments[-1].end == root.end
    for left, right in zip(segments, segments[1:]):
        assert left.end == right.start, (left, right)


@pytest.fixture(scope="module")
def chaos_hub():
    hub = Observability(tracing=True)
    with hub.activate():
        report = run_chaos_scenario(seed=0, duration_s=30.0)
    return hub, report


def test_every_served_chaos_request_tiles(chaos_hub):
    hub, report = chaos_hub
    served = hub.tracer.requests(status="ok")
    assert len(served) == sum(outcome == "ok" for _t, _cls, outcome in report.outcomes)
    retried = 0
    for root, segments in served:
        names = [s.name for s in segments]
        assert re.fullmatch(r"dispatch( redispatch)* queue_wait cpu_service tx", " ".join(names))
        assert_tiles(root, segments)
        retried += "redispatch" in names
    assert retried > 0  # the campaign really did make the switch retry


@pytest.mark.parametrize("status", [None, "ok", "shed"])
def test_requests_index_matches_children_of_each_root(chaos_hub, status):
    """``requests()`` indexes children in one pass; it must return what
    ``children_of`` gives root by root, in the same (start, creation)
    order."""
    tracer = chaos_hub[0].tracer
    expected = [
        (root, tracer.children_of(root))
        for root in tracer.roots(status)
        if root.name == "request"
    ]
    assert expected
    assert tracer.requests(status) == expected


@pytest.mark.parametrize("timeout_s", [None, 5.0])
def test_retried_request_tiles_inline_and_under_a_budget(spread_testbed, timeout_s):
    """A request that dies queued on one replica and is served by another
    (:func:`serve_through_queued_crash`).

    With no budget the attempts run inline; with one, each runs in an
    ``attempt:`` child process.  The span layout is the same.
    """
    tb = spread_testbed
    hub = Observability(tracing=True)
    hub.attach(tb.sim)
    record = create_service(tb, n=2)
    switch = record.switch
    switch.retry_policy = BackoffPolicy()
    switch.request_timeout_s = timeout_s
    client = ClientPool(tb.lan, n=1).next_client()
    response = serve_through_queued_crash(tb, record, web_request(client, 0.05))
    assert response.node_name == record.nodes[1].name
    (root, segments), = hub.tracer.requests(status="ok")
    names = [s.name for s in segments]
    assert SERVED.fullmatch(" ".join(names))
    assert names.count("redispatch") == switch.failovers >= 1
    assert segments[1].name == "queue_wait" and segments[1].status == "failed"
    assert_tiles(root, segments)


def test_abandoned_attempt_opens_no_span_after_its_root_closes(spread_testbed):
    """The stalled-link timeout of ``test_timeout_budget_fails_request_
    behind_stalled_link``, traced.  The budget closes the root at 0.5 s;
    the forward lands at 2 s, when the link heals, and the back-end
    still serves the abandoned attempt, but opens none of its spans."""
    tb = spread_testbed
    hub = Observability(tracing=True)
    hub.attach(tb.sim)
    record = create_service(tb, n=2)
    switch = record.switch
    switch.request_timeout_s = 0.5
    remote = next(
        n for n in record.nodes if n.host.nic is not switch.home_node.host.nic
    )
    switch.quarantine(next(n for n in record.nodes if n is not remote))
    nic = tb.lan.find_nic(remote.host.name)
    tb.lan.stall_nic(nic)

    def unstall():
        yield tb.sim.timeout(2.0)
        tb.lan.unstall_nic(nic)

    tb.spawn(unstall(), name="unstall")
    client = ClientPool(tb.lan, n=1).next_client()
    with pytest.raises(RequestTimeoutError):
        tb.run(switch.serve(web_request(client, 0.05)), name="req")
    tb.sim.run()
    assert remote.served == 1  # the abandoned work still ran
    (root,) = [r for r in hub.tracer.roots("failed") if r.name == "request"]
    spans = [s for s in hub.tracer.spans() if s.trace_id == root.trace_id]
    assert [s.name for s in spans] == ["request", "dispatch"]
    assert all(s.finished for s in spans)
    assert all(s.start <= root.end for s in spans)
