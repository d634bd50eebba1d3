"""Unit tests for the CPU schedulers (Figure 5 substrate)."""

import math

import numpy as np
import pytest

from repro.host.scheduler import (
    ProportionalShareScheduler,
    TaskGroup,
    VanillaLinuxScheduler,
    WorkloadSpec,
    figure5_groups,
)
from repro.sim import RandomStreams


def test_workload_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(run_quanta=0, block_s=0.01)
    with pytest.raises(ValueError):
        WorkloadSpec(run_quanta=1, block_s=-1)
    with pytest.raises(ValueError):
        WorkloadSpec(run_quanta=1, block_s=0.1, jitter=-1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"run_quanta": 1, "block_s": math.nan},
        {"run_quanta": 1, "block_s": math.inf},
        {"run_quanta": 1, "block_s": 0.01, "jitter": math.nan},
        {"run_quanta": 1, "block_s": 0.01, "jitter": math.inf},
        {"run_quanta": 1.5, "block_s": 0.01},
        {"run_quanta": 2.0, "block_s": 0.01},
        {"run_quanta": math.nan, "block_s": 0.01},
        {"run_quanta": math.inf, "block_s": 0.0},
    ],
)
def test_workload_spec_rejects_non_finite_and_non_integer(kwargs):
    with pytest.raises(ValueError):
        WorkloadSpec(**kwargs)


def test_workload_spec_accepts_numpy_integer_run_quanta():
    assert WorkloadSpec(run_quanta=np.int64(3), block_s=0.01).run_quanta == 3


def test_task_group_validation():
    with pytest.raises(ValueError):
        TaskGroup("g", [])
    with pytest.raises(ValueError):
        TaskGroup("g", [WorkloadSpec.cpu_hog()], tickets=0)


@pytest.mark.parametrize("tickets", [math.nan, math.inf, -math.inf])
def test_task_group_rejects_non_finite_tickets(tickets):
    with pytest.raises(ValueError):
        TaskGroup("g", [WorkloadSpec.cpu_hog()], tickets=tickets)


def test_duplicate_group_names_rejected():
    groups = [
        TaskGroup("same", [WorkloadSpec.cpu_hog()]),
        TaskGroup("same", [WorkloadSpec.cpu_hog()]),
    ]
    with pytest.raises(ValueError):
        VanillaLinuxScheduler(groups)


def test_horizon_validation():
    sched = VanillaLinuxScheduler([TaskGroup("g", [WorkloadSpec.cpu_hog()])])
    with pytest.raises(ValueError):
        sched.run(0)
    for horizon_s in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            sched.run(horizon_s)


def test_single_cpu_hog_gets_everything():
    trace = VanillaLinuxScheduler([TaskGroup("g", [WorkloadSpec.cpu_hog()])]).run(5.0)
    assert trace.total_share("g") == pytest.approx(1.0, abs=0.01)


def test_vanilla_splits_equally_between_identical_hogs():
    groups = [
        TaskGroup("a", [WorkloadSpec.cpu_hog()]),
        TaskGroup("b", [WorkloadSpec.cpu_hog()]),
    ]
    trace = VanillaLinuxScheduler(groups).run(10.0)
    assert trace.total_share("a") == pytest.approx(0.5, abs=0.03)
    assert trace.total_share("b") == pytest.approx(0.5, abs=0.03)


def test_vanilla_rewards_process_count():
    """A node running 3 CPU hogs harvests ~3x the CPU of a 1-hog node."""
    groups = [
        TaskGroup("many", [WorkloadSpec.cpu_hog()] * 3),
        TaskGroup("one", [WorkloadSpec.cpu_hog()]),
    ]
    trace = VanillaLinuxScheduler(groups).run(20.0)
    assert trace.total_share("many") == pytest.approx(0.75, abs=0.05)
    assert trace.total_share("one") == pytest.approx(0.25, abs=0.05)


def test_proportional_ignores_process_count():
    """The userid-keyed scheduler gives equal shares despite 3-vs-1 procs."""
    groups = [
        TaskGroup("many", [WorkloadSpec.cpu_hog()] * 3, tickets=1.0),
        TaskGroup("one", [WorkloadSpec.cpu_hog()], tickets=1.0),
    ]
    trace = ProportionalShareScheduler(groups).run(20.0)
    assert trace.total_share("many") == pytest.approx(0.5, abs=0.02)
    assert trace.total_share("one") == pytest.approx(0.5, abs=0.02)


def test_proportional_honours_ticket_ratio():
    groups = [
        TaskGroup("gold", [WorkloadSpec.cpu_hog()], tickets=3.0),
        TaskGroup("bronze", [WorkloadSpec.cpu_hog()], tickets=1.0),
    ]
    trace = ProportionalShareScheduler(groups).run(20.0)
    assert trace.total_share("gold") == pytest.approx(0.75, abs=0.02)
    assert trace.total_share("bronze") == pytest.approx(0.25, abs=0.02)


def test_io_bound_group_cannot_exceed_duty_cycle():
    # 1 quantum (10 ms) run then 30 ms block -> at most 25% even alone.
    groups = [TaskGroup("io", [WorkloadSpec(run_quanta=1, block_s=0.030)])]
    trace = ProportionalShareScheduler(groups).run(20.0)
    assert trace.total_share("io") == pytest.approx(0.25, abs=0.03)


def test_idle_group_cpu_not_wasted():
    groups = [
        TaskGroup("io", [WorkloadSpec(run_quanta=1, block_s=0.030)]),
        TaskGroup("hog", [WorkloadSpec.cpu_hog()]),
    ]
    trace = ProportionalShareScheduler(groups).run(20.0)
    # io takes its ~25% duty cycle; hog soaks up the rest.
    assert trace.total_share("io") == pytest.approx(0.25, abs=0.03)
    assert trace.total_share("hog") == pytest.approx(0.75, abs=0.03)


def test_waking_group_does_not_monopolise():
    """After idling, a group must not burst past its share to catch up."""
    groups = [
        TaskGroup("sleeper", [WorkloadSpec(run_quanta=200, block_s=2.0)]),
        TaskGroup("hog", [WorkloadSpec.cpu_hog()]),
    ]
    trace = ProportionalShareScheduler(groups).run(30.0)
    # When awake, sleeper gets its fair half; overall well under half.
    _, shares = trace.shares(bucket_s=1.0)
    assert shares["sleeper"].max() <= 0.55


def test_figure5_shapes():
    """Vanilla -> unequal shares; proportional -> ~1/3 each (Figure 5)."""
    streams = RandomStreams(seed=42)
    vanilla = VanillaLinuxScheduler(figure5_groups(), streams).run(60.0)
    prop = ProportionalShareScheduler(figure5_groups(), streams).run(60.0)

    v_shares = [vanilla.total_share(g) for g in ("web", "comp", "log")]
    p_shares = [prop.total_share(g) for g in ("web", "comp", "log")]

    # Vanilla: comp (3 hogs) dominates; spread is large.
    assert v_shares[1] == max(v_shares)
    assert max(v_shares) - min(v_shares) > 0.25
    # Proportional: all within a few points of 1/3.
    for share in p_shares:
        assert share == pytest.approx(1 / 3, abs=0.05)
    # Both schedulers keep the CPU busy (loads exceed shares).
    assert sum(v_shares) > 0.95
    assert sum(p_shares) > 0.9


def test_trace_shares_time_series():
    groups = [TaskGroup("g", [WorkloadSpec.cpu_hog()])]
    trace = VanillaLinuxScheduler(groups).run(10.0)
    centres, shares = trace.shares(bucket_s=2.0)
    assert len(centres) == 5
    assert np.allclose(shares["g"], 1.0, atol=0.02)
    with pytest.raises(ValueError):
        trace.shares(bucket_s=0)


def test_deterministic_given_seed():
    t1 = VanillaLinuxScheduler(figure5_groups(), RandomStreams(seed=7)).run(10.0)
    t2 = VanillaLinuxScheduler(figure5_groups(), RandomStreams(seed=7)).run(10.0)
    assert np.array_equal(t1.cumulative, t2.cumulative)


def test_empty_groups_rejected():
    with pytest.raises(ValueError):
        VanillaLinuxScheduler([])
