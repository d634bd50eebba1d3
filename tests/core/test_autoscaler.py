"""Tests for the reactive autoscaler."""

import math

import pytest

from repro.core.autoscaler import AutoscalerConfig, ReactiveAutoscaler
from repro.sim import RandomStreams
from repro.workload.clients import ClientPool
from repro.workload.siege import Siege
from tests.core.conftest import create_service


def make_autoscaler(tb, **overrides):
    defaults = dict(
        target_response_s=0.3,
        min_units=1,
        max_units=4,
        check_period_s=15.0,
        min_samples=3,
    )
    defaults.update(overrides)
    config = AutoscalerConfig(**defaults)
    return ReactiveAutoscaler(
        tb.sim, tb.agent, tb.creds, "web", tb.repo, config
    )


def test_config_validation():
    with pytest.raises(ValueError):
        AutoscalerConfig(target_response_s=0)
    with pytest.raises(ValueError):
        AutoscalerConfig(target_response_s=1, min_units=3, max_units=2)
    with pytest.raises(ValueError):
        AutoscalerConfig(target_response_s=1, check_period_s=0)
    with pytest.raises(ValueError):
        AutoscalerConfig(target_response_s=1, scale_up_at=0.3, scale_down_at=0.5)
    with pytest.raises(ValueError):
        AutoscalerConfig(target_response_s=1, min_samples=0)


@pytest.mark.parametrize("field", ["target_response_s", "check_period_s"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_config_rejects_non_finite(field, bad):
    params = {"target_response_s": 1.0, field: bad}
    with pytest.raises(ValueError, match="positive and finite"):
        AutoscalerConfig(**params)


def test_window_counts_samples_of_this_instant_at_long_horizons(testbed):
    # Past 2**24 s, now + 1e-9 == now, so a window ending there would
    # drop every sample recorded at the check instant itself.
    _, record = create_service(testbed, name="web", n=1)
    autoscaler = make_autoscaler(testbed)
    testbed.sim.run(until=testbed.now + 1e8)
    now = testbed.now
    assert now + 1e-9 == now
    for latency in (0.1, 0.2, 0.3):
        record.switch.response_times.record(now, latency)
    assert autoscaler._recent_mean_response(now - 10.0) == pytest.approx(0.2)


def test_no_decisions_without_traffic(testbed):
    create_service(testbed, name="web", n=1)
    autoscaler = make_autoscaler(testbed)
    decisions = testbed.run(autoscaler.run(60.0))
    assert decisions == []


def test_scales_up_under_heavy_load(testbed):
    create_service(testbed, name="web", n=1)
    autoscaler = make_autoscaler(testbed, target_response_s=0.15)
    clients = ClientPool(testbed.lan, n=4)
    record = testbed.master.get_service("web")
    siege = Siege(
        testbed.sim, record.switch, clients, RandomStreams(1), dataset_mb=1.0
    )
    # 1M node: ~0.14 s transfer per request; 5 rps queues it hard.
    siege_proc = testbed.spawn(siege.run_open_loop(rate_rps=5.0, duration_s=120.0))
    decisions = testbed.run(autoscaler.run(120.0))
    testbed.sim.run_until_process(siege_proc)
    assert autoscaler.scale_ups >= 1
    assert testbed.master.get_service("web").total_units > 1
    assert all(d.reason == "latency above threshold" for d in decisions)


def test_scales_down_when_idle_load(testbed):
    create_service(testbed, name="web", n=3)
    autoscaler = make_autoscaler(testbed, target_response_s=1.0)
    clients = ClientPool(testbed.lan, n=2)
    record = testbed.master.get_service("web")
    siege = Siege(
        testbed.sim, record.switch, clients, RandomStreams(2), dataset_mb=0.1
    )
    # A trickle of tiny requests: far below 40% of the 1 s target.
    siege_proc = testbed.spawn(siege.run_open_loop(rate_rps=2.0, duration_s=120.0))
    testbed.run(autoscaler.run(120.0))
    testbed.sim.run_until_process(siege_proc)
    assert autoscaler.scale_downs >= 1
    assert testbed.master.get_service("web").total_units < 3


def test_respects_max_units(testbed):
    create_service(testbed, name="web", n=1)
    autoscaler = make_autoscaler(testbed, target_response_s=0.05, max_units=2)
    clients = ClientPool(testbed.lan, n=4)
    record = testbed.master.get_service("web")
    siege = Siege(
        testbed.sim, record.switch, clients, RandomStreams(3), dataset_mb=1.0
    )
    siege_proc = testbed.spawn(siege.run_open_loop(rate_rps=6.0, duration_s=150.0))
    testbed.run(autoscaler.run(150.0))
    testbed.sim.run_until_process(siege_proc)
    assert testbed.master.get_service("web").total_units <= 2


def test_capacity_timeline_recorded(testbed):
    create_service(testbed, name="web", n=2)
    autoscaler = make_autoscaler(testbed)
    testbed.run(autoscaler.run(30.0))
    assert autoscaler.capacity_timeline[0][1] == 2


def test_duration_validation(testbed):
    create_service(testbed, name="web", n=1)
    autoscaler = make_autoscaler(testbed)
    with pytest.raises(ValueError):
        testbed.run(autoscaler.run(0))
