"""The batched quantum loop against a naive per-tick reference loop.

``_SchedulerBase.run`` skips work the naive loop repeats every 10 ms
tick: it scans for wake-ups only when one is due, rebuilds the runnable
list only when the blocked set changed, fills idle stretches without
picking, and builds its time axis and per-group totals after the loop.
The reference below does none of that: every tick it scans every task,
rebuilds the runnable list, picks, charges, and appends ``now`` and the
running totals to lists.  Both loops must produce the same trace, byte
for byte.  The reference vanilla pick is the filter-then-``max`` form;
the stride pick is the scheduler's own.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host.scheduler import (
    BASE_COUNTER,
    QUANTUM_S,
    ProportionalShareScheduler,
    TaskGroup,
    VanillaLinuxScheduler,
    WorkloadSpec,
    figure5_groups,
)
from repro.sim import RandomStreams


def reference_vanilla_pick(sched, runnable, stats):
    with_counter = [t for t in runnable if t.counter > 0]
    if not with_counter:
        stats["epoch_ends_with_blocked"] += len(runnable) < len(sched.tasks)
        for task in sched.tasks:
            task.counter = task.counter // 2 + BASE_COUNTER
        with_counter = runnable
    return max(with_counter, key=lambda t: t.counter)


def reference_run(sched, horizon_s):
    """Naive per-tick loop; returns (times, cumulative, horizon, stats)."""
    stats = {"epoch_ends_with_blocked": 0, "idle_quanta": 0, "never_wake": 0}
    if isinstance(sched, VanillaLinuxScheduler):
        def pick(runnable, now):
            return reference_vanilla_pick(sched, runnable, stats)
    else:
        pick = sched._pick
    wake_time = {}  # blocked task -> when it becomes runnable
    totals = [0.0] * len(sched.groups)
    now = 0.0
    times = [now]
    columns = [list(totals)]
    for _ in range(math.ceil(horizon_s / QUANTUM_S)):
        for task in sched.tasks:
            if task in wake_time and wake_time[task] <= now + 1e-12:
                del wake_time[task]
                task.burst_left = task.spec.run_quanta
                sched._woke(task, now)
        runnable = [t for t in sched.tasks if t not in wake_time]
        chosen = pick(runnable, now) if runnable else None
        now += QUANTUM_S
        if chosen is None:
            stats["idle_quanta"] += 1
        else:
            chosen.burst_left -= 1
            sched._charged(chosen, now)
            totals[chosen.group_index] += QUANTUM_S
            if chosen.burst_left <= 0 and chosen.spec.block_s > 0:
                jitter = sched.streams.lognormal_factor(chosen.rng_name, chosen.spec.jitter)
                wake_time[chosen] = now + chosen.spec.block_s * jitter
                stats["never_wake"] += wake_time[chosen] == math.inf
        times.append(now)
        columns.append(list(totals))
    return np.array(times), np.array(columns).T, now, stats


def assert_matches_reference(cls, make_groups, seed, horizon_s):
    trace = cls(make_groups(), RandomStreams(seed)).run(horizon_s)
    times, cumulative, horizon, stats = reference_run(
        cls(make_groups(), RandomStreams(seed)), horizon_s
    )
    assert trace.times.tobytes() == times.tobytes()
    assert trace.cumulative.shape == cumulative.shape
    assert trace.cumulative.tobytes() == cumulative.tobytes()
    assert trace.horizon_s == horizon
    return stats


def workload_spec(run_quanta, block_s, jitter):
    return st.builds(WorkloadSpec, run_quanta=run_quanta, block_s=block_s, jitter=jitter)


mixed_workload = st.one_of(
    st.just(WorkloadSpec.cpu_hog()),
    workload_spec(
        st.integers(min_value=1, max_value=8),
        st.one_of(st.just(0.0), st.floats(min_value=0.0005, max_value=0.3)),
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.5)),
    ),
)
# Every process blocks for longer than it runs: the CPU idles often and
# whole stretches pass with nothing runnable.
idle_workload = workload_spec(
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.02, max_value=0.5),
    st.floats(min_value=0.0, max_value=1.0),
)


def group_sets(workload):
    return st.lists(
        st.tuples(
            st.lists(workload, min_size=1, max_size=4),
            st.floats(min_value=0.25, max_value=8.0),
        ),
        min_size=1,
        max_size=4,
    )


def make_groups_fn(spec):
    return lambda: [
        TaskGroup(f"g{i}", workloads, tickets=tickets)
        for i, (workloads, tickets) in enumerate(spec)
    ]


schedulers = st.sampled_from([VanillaLinuxScheduler, ProportionalShareScheduler])
seeds = st.integers(min_value=0, max_value=2**16)
horizons = st.floats(min_value=0.001, max_value=3.0)


@settings(max_examples=60, deadline=None)
@given(cls=schedulers, spec=group_sets(mixed_workload), seed=seeds, horizon_s=horizons)
def test_mixed_group_sets_match_reference(cls, spec, seed, horizon_s):
    assert_matches_reference(cls, make_groups_fn(spec), seed, horizon_s)


@settings(max_examples=40, deadline=None)
@given(cls=schedulers, spec=group_sets(idle_workload), seed=seeds, horizon_s=horizons)
def test_idle_heavy_group_sets_match_reference(cls, spec, seed, horizon_s):
    assert_matches_reference(cls, make_groups_fn(spec), seed, horizon_s)


@settings(max_examples=30, deadline=None)
@given(
    io=st.lists(idle_workload, min_size=1, max_size=3),
    hogs=st.integers(min_value=1, max_value=3),
    seed=seeds,
)
def test_vanilla_epoch_ends_with_blocked_tasks_match_reference(io, hogs, seed):
    # CPU hogs drain their counters while I/O tasks sleep, so epochs
    # mostly end with blocked tasks that keep half their counter.
    assert_matches_reference(VanillaLinuxScheduler, io_and_hogs(io, hogs), seed, 3.0)


def io_and_hogs(io, hogs):
    return lambda: [
        TaskGroup("io", io),
        TaskGroup("hogs", [WorkloadSpec.cpu_hog()] * hogs),
    ]


def test_vanilla_epoch_ends_with_blocked_tasks_are_exercised():
    io = [WorkloadSpec(run_quanta=1, block_s=0.05, jitter=0.5)] * 2
    stats = assert_matches_reference(VanillaLinuxScheduler, io_and_hogs(io, 3), 1, 10.0)
    assert stats["epoch_ends_with_blocked"] > 10


def test_idle_stretches_are_exercised():
    def make_groups():
        return [TaskGroup("io", [WorkloadSpec(run_quanta=1, block_s=0.2, jitter=0.5)] * 2)]

    for cls in (VanillaLinuxScheduler, ProportionalShareScheduler):
        stats = assert_matches_reference(cls, make_groups, 5, 10.0)
        assert stats["idle_quanta"] > 500


def test_figure5_matches_reference():
    for cls in (VanillaLinuxScheduler, ProportionalShareScheduler):
        for seed in (0, 7, 42):
            assert_matches_reference(cls, figure5_groups, seed, 30.0)


def test_wake_time_overflowing_to_inf_keeps_task_blocked():
    # block_s * jitter overflows to inf on about a quarter of the draws;
    # such a task never wakes again, in both loops, while the io task's
    # wake-ups keep the wake scan running past it.
    def make_groups():
        return [
            TaskGroup("far", [WorkloadSpec(run_quanta=1, block_s=1e308, jitter=1.0)] * 4),
            TaskGroup("io", [WorkloadSpec(run_quanta=1, block_s=0.02)]),
            TaskGroup("hog", [WorkloadSpec.cpu_hog()]),
        ]

    for cls in (VanillaLinuxScheduler, ProportionalShareScheduler):
        stats = assert_matches_reference(cls, make_groups, 3, 2.0)
        assert stats["never_wake"] > 0
