"""Switch failover engine: retry, backoff, timeout budget, counters."""

import math

import pytest

from repro.core.errors import RequestTimeoutError
from repro.core.node import ServiceUnavailableError
from repro.faults.chaos import run_chaos_scenario
from repro.faults.health import SwitchHealthChecker
from repro.faults.retry import BackoffPolicy
from repro.workload.apps import web_request
from repro.workload.clients import ClientPool

from tests.faults.conftest import create_service, serve_through_queued_crash


class TestBackoffPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="base"):
            BackoffPolicy(base_s=0.0)
        with pytest.raises(ValueError, match="factor"):
            BackoffPolicy(factor=0.5)
        with pytest.raises(ValueError, match="cap"):
            BackoffPolicy(base_s=1.0, cap_s=0.5)
        with pytest.raises(ValueError, match="max_attempts"):
            BackoffPolicy(max_attempts=0)
        nan, inf = float("nan"), float("inf")
        with pytest.raises(ValueError, match="base"):
            BackoffPolicy(base_s=nan)
        with pytest.raises(ValueError, match="base"):
            BackoffPolicy(base_s=inf, cap_s=inf)
        with pytest.raises(ValueError, match="factor"):
            BackoffPolicy(factor=nan)
        with pytest.raises(ValueError, match="factor"):
            BackoffPolicy(factor=inf)
        with pytest.raises(ValueError, match="cap"):
            BackoffPolicy(cap_s=nan)
        with pytest.raises(ValueError, match="cap"):
            BackoffPolicy(cap_s=inf)

    def test_delay_sequence_doubles_until_capped(self):
        policy = BackoffPolicy(base_s=0.1, factor=2.0, cap_s=0.5, max_attempts=6)
        assert policy.delays() == (0.1, 0.2, 0.4, 0.5, 0.5)

    def test_delay_is_one_based(self):
        policy = BackoffPolicy()
        with pytest.raises(ValueError, match="1-based"):
            policy.delay(0)

    def test_constant_policy(self):
        policy = BackoffPolicy(base_s=0.2, factor=1.0, cap_s=0.2, max_attempts=3)
        assert policy.delays() == (0.2, 0.2)


def _request(tb, label="req"):
    if not hasattr(tb, "_test_clients"):
        tb._test_clients = ClientPool(tb.lan, n=2)
    return web_request(tb._test_clients.next_client(), 0.05, label=label)


class TestFailover:
    def test_plain_switch_has_no_failover_state(self, spread_testbed):
        record = create_service(spread_testbed, n=2)
        switch = record.switch
        assert switch.retry_policy is None
        assert switch.request_timeout_s is None
        assert switch.failovers == 0
        assert switch.timeouts == 0

    def test_fails_over_to_live_replica(self, spread_testbed):
        """A request that dies on one replica is retried onto another."""
        tb = spread_testbed
        record = create_service(tb, n=2)
        switch = record.switch
        switch.retry_policy = BackoffPolicy()  # 0.05, 0.1, 0.2 ...
        response = serve_through_queued_crash(tb, record, _request(tb))
        assert response.node_name == record.nodes[1].name
        assert switch.failovers >= 1
        assert switch.timeouts == 0

    def test_exhausted_attempts_raise_last_failure(self, spread_testbed):
        tb = spread_testbed
        record = create_service(tb, n=1)
        switch = record.switch
        switch.retry_policy = BackoffPolicy(max_attempts=3)
        record.nodes[0].vm.crash(cause="test")
        with pytest.raises(ServiceUnavailableError):
            tb.run(switch.serve(_request(tb)), name="req")
        # Two backoff rounds happened before giving up; nothing was ever
        # dispatched, so the reject counter (real work refused) is untouched.
        assert switch.failovers == 2
        assert switch.rejected == 0

    def test_timeout_budget_fails_request_behind_stalled_link(self, spread_testbed):
        tb = spread_testbed
        record = create_service(tb, n=2)
        switch = record.switch
        switch.request_timeout_s = 0.5
        # Force dispatch to the replica that is NOT co-located with the
        # switch, then freeze that replica's host link: the forward leg
        # hangs and the budget must fire.
        remote = next(
            n for n in record.nodes
            if n.host.nic is not switch.home_node.host.nic
        )
        local = next(n for n in record.nodes if n is not remote)
        switch.quarantine(local)
        tb.lan.stall_nic(tb.lan.find_nic(remote.host.name))

        def unstall():
            yield tb.sim.timeout(2.0)
            tb.lan.unstall_nic(tb.lan.find_nic(remote.host.name))

        tb.spawn(unstall(), name="unstall")
        start = tb.now
        with pytest.raises(RequestTimeoutError):
            tb.run(switch.serve(_request(tb)), name="req")
        assert switch.timeouts == 1
        assert tb.now - start == pytest.approx(0.5, abs=1e-6)
        tb.sim.run()  # the abandoned attempt drains once the link heals

    def test_timeout_counts_only_with_budget_installed(self, spread_testbed):
        tb = spread_testbed
        record = create_service(tb, n=2)
        switch = record.switch
        switch.retry_policy = BackoffPolicy()
        response = tb.run(switch.serve(_request(tb)), name="req")
        assert response.node_name in {n.name for n in record.nodes}
        assert switch.failovers == 0
        assert switch.timeouts == 0


def test_timeout_and_chaos_inputs_rejected_where_they_enter(spread_testbed):
    # NaN or a non-positive budget used to be accepted and then failed
    # every request mid-run (or timed out nearly all of them).
    nan, inf = float("nan"), float("inf")
    switch = create_service(spread_testbed, n=1).switch
    for bad in (nan, inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="timeout"):
            switch.request_timeout_s = bad
    assert switch.request_timeout_s is None
    switch.request_timeout_s = 2.0
    switch.request_timeout_s = None
    for bad in (nan, inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="duration_s"):
            run_chaos_scenario(duration_s=bad)


@pytest.mark.parametrize("field", ["period_s", "probe_timeout_s"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_health_checker_rejects_non_finite(spread_testbed, field, bad):
    switch = create_service(spread_testbed, n=1).switch
    with pytest.raises(ValueError, match="positive and finite"):
        SwitchHealthChecker(spread_testbed.sim, switch, spread_testbed.lan, **{field: bad})
