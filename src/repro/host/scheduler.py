"""Host CPU schedulers: vanilla Linux vs SODA's proportional-share.

Paper §4.2: "We have implemented a coarse-grain CPU proportional sharing
scheduler, which enforces the CPU share allocated to each virtual
service node. [...] Within one virtual service node, all processes bear
the same user (service) id.  The CPU scheduler in the host OS then
enforces proportional CPU sharing among all processes, based on their
userids."  Figure 5 contrasts the CPU shares of three overloaded
virtual service nodes (*web*, *comp*, *log*) under (a) unmodified Linux
and (b) the enhanced host OS.

Two schedulers are modelled at quantum granularity:

* :class:`VanillaLinuxScheduler` — a Linux-2.4-style epoch scheduler:
  every runnable task is picked by largest remaining counter; when all
  runnable counters hit zero the epoch ends and every task (including
  blocked ones, which is the classic I/O boost) recharges
  ``counter = counter//2 + base``.  Crucially it schedules *processes*,
  so a node running more processes harvests more CPU — the unfairness
  Figure 5(a) shows.
* :class:`ProportionalShareScheduler` — stride scheduling over *task
  groups* (one group per userid/virtual node): the group with the
  smallest pass value runs next and advances by ``stride = K/tickets``;
  round-robin within the group.  A group that wakes from full idling is
  re-based to the current virtual time so it cannot monopolise the CPU
  to "catch up".

The schedulers run a self-contained quantum loop (they do not need the
event kernel): Figure 5 is a closed experiment over a fixed horizon.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.rng import RandomStreams

__all__ = [
    "WorkloadSpec",
    "TaskGroup",
    "SchedulerTrace",
    "VanillaLinuxScheduler",
    "ProportionalShareScheduler",
]

QUANTUM_S = 0.010  # 10 ms scheduler tick, as in Linux 2.4 on x86
BASE_COUNTER = 6  # default epoch allowance, quanta (~60 ms)
STRIDE_CONSTANT = 1 << 20


@dataclass(frozen=True)
class WorkloadSpec:
    """How one process behaves.

    ``run_quanta`` consecutive quanta of CPU, then a block of
    ``block_s`` (0 means never blocks — a pure CPU hog).  ``jitter``
    is the lognormal sigma applied to each block duration.
    """

    run_quanta: int
    block_s: float
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.run_quanta, numbers.Integral) or self.run_quanta < 1:
            raise ValueError(f"run_quanta must be an integer >= 1, got {self.run_quanta!r}")
        if not math.isfinite(self.block_s) or self.block_s < 0:
            raise ValueError(f"block_s must be finite and >= 0, got {self.block_s}")
        if not math.isfinite(self.jitter) or self.jitter < 0:
            raise ValueError(f"jitter must be finite and >= 0, got {self.jitter}")

    @staticmethod
    def cpu_hog() -> "WorkloadSpec":
        """comp: 'infinite loop of dummy arithmetic operations' (§5)."""
        return WorkloadSpec(run_quanta=1_000_000_000, block_s=0.0)

    @staticmethod
    def disk_logger(block_s: float = 0.015, jitter: float = 0.3) -> "WorkloadSpec":
        """log: 'performs logging via continuous disk writes' (§5)."""
        return WorkloadSpec(run_quanta=1, block_s=block_s, jitter=jitter)

    @staticmethod
    def web_server(run_quanta: int = 2, block_s: float = 0.030, jitter: float = 0.5) -> "WorkloadSpec":
        """web: request bursts separated by network waits."""
        return WorkloadSpec(run_quanta=run_quanta, block_s=block_s, jitter=jitter)


@dataclass
class TaskGroup:
    """All processes of one virtual service node (one userid)."""

    name: str
    workloads: Sequence[WorkloadSpec]
    tickets: float = 1.0

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError(f"group {self.name!r} has no processes")
        if not math.isfinite(self.tickets) or self.tickets <= 0:
            raise ValueError(f"tickets must be positive and finite, got {self.tickets}")


class _Task:
    """Runtime state of one process."""

    __slots__ = (
        "index",
        "group_index",
        "spec",
        "counter",
        "burst_left",
        "rng_name",
    )

    def __init__(self, group_index: int, spec: WorkloadSpec, task_id: int):
        self.index = task_id  # position in the scheduler's task list
        self.group_index = group_index
        self.spec = spec
        self.counter = BASE_COUNTER
        self.burst_left = spec.run_quanta
        self.rng_name = f"sched-task-{task_id}"


@dataclass
class SchedulerTrace:
    """Result of a scheduler run.

    ``shares(bucket_s)`` returns, per group, the CPU fraction obtained
    in each bucket of the horizon — the series Figure 5 plots.
    """

    group_names: Tuple[str, ...]
    horizon_s: float
    quantum_s: float
    # cpu_time_series[g] = cumulative CPU seconds for group g sampled at
    # each quantum boundary.
    times: np.ndarray
    cumulative: np.ndarray  # shape (n_groups, n_samples)

    def total_share(self, group: str) -> float:
        g = self.group_names.index(group)
        return float(self.cumulative[g, -1] / self.horizon_s)

    def shares(self, bucket_s: float) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """(bucket centres, {group: share in each bucket})."""
        if bucket_s <= 0:
            raise ValueError(f"bucket width must be positive, got {bucket_s}")
        edges = np.arange(0.0, self.horizon_s + 1e-9, bucket_s)
        if edges[-1] < self.horizon_s - 1e-9:
            edges = np.append(edges, self.horizon_s)
        centres = (edges[:-1] + edges[1:]) / 2.0
        result: Dict[str, np.ndarray] = {}
        for g, name in enumerate(self.group_names):
            at_edges = np.interp(edges, self.times, self.cumulative[g])
            result[name] = np.diff(at_edges) / np.diff(edges)
        return centres, result


class _SchedulerBase:
    """Shared quantum loop; subclasses supply the pick policy."""

    name = "base"

    def __init__(self, groups: Sequence[TaskGroup], streams: Optional[RandomStreams] = None):
        if not groups:
            raise ValueError("at least one task group required")
        names = [g.name for g in groups]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate group names: {names}")
        self.groups = list(groups)
        self.streams = streams or RandomStreams(seed=0)
        self.tasks: List[_Task] = []
        task_id = 0
        for gi, group in enumerate(self.groups):
            for spec in group.workloads:
                self.tasks.append(_Task(gi, spec, task_id))
                task_id += 1

    # -- policy hooks ------------------------------------------------------
    def _pick(self, runnable: List[_Task], changed: bool) -> _Task:
        """Choose the task that runs the next quantum.

        ``runnable`` is never empty.  ``changed`` is true when the
        runnable set may differ from the one the previous pick saw: at
        the start of :meth:`run`, after a wake scan and after a block.
        """
        raise NotImplementedError

    def _charged(self, task: _Task) -> None:
        """Called after ``task`` consumed one quantum."""

    # -- the quantum loop ----------------------------------------------------
    def run(self, horizon_s: float) -> SchedulerTrace:
        # The loop batches bookkeeping instead of redoing it every 10 ms
        # tick: the wake scan only runs when the earliest pending wake
        # time is actually due, the runnable list is only rebuilt after
        # a wake scan (a task that blocks is just removed from it), and
        # fully idle stretches are filled in a tight inner loop.  The
        # pick is told whether the runnable set changed since the
        # previous pick, so a policy can keep per-set work (the stride
        # scheduler's group buckets) until it does.  Wake state is a
        # plain list, one entry per task (``inf`` while the task is
        # runnable): a task set has 4-11 processes, and at that size one
        # Python scan of the list costs less than a single NumPy call,
        # so masks, ``nonzero`` and reductions here would cost more than
        # they save.  The loop logs only the group charged per quantum,
        # in a preallocated list; the trace matrices are built from that
        # log after the loop.  The time axis comes from ``np.cumsum`` of
        # the quantum length, so every quantum, busy or idle, must
        # advance ``now`` by exactly one ``QUANTUM_S``.  The pick /
        # charge / wake sequence (and therefore the trace, including its
        # float accumulation) is identical to the naive per-tick loop;
        # tests/host/test_scheduler_reference.py holds that loop and
        # compares bytes.
        if not math.isfinite(horizon_s) or horizon_s <= 0:
            raise ValueError(f"horizon must be positive and finite, got {horizon_s}")
        tasks = self.tasks
        n_groups = len(self.groups)
        n_quanta = int(math.ceil(horizon_s / QUANTUM_S))
        # Wake-up tolerance: 1e-12 s absorbs the rounding between the
        # repeated `now += QUANTUM_S` and a wake time `now + block`.  Past
        # t ~ 1e4 s, `now + 1e-12 == now`, so it scales with the clock's
        # resolution at the horizon; below 2048 s it is exactly 1e-12.
        tol = max(1e-12, 4 * math.ulp(horizon_s))
        inf = math.inf
        pick = self._pick
        charged = self._charged
        lognormal_factor = self.streams.lognormal_factor
        # wake_at[i]: when blocked task i becomes runnable (inf: runnable).
        wake_at = [inf] * len(tasks)
        next_wake = inf
        runnable: List[_Task] = list(tasks)
        changed = True
        # log[q] is the group index that consumed quantum q (-1: idle).
        # A list takes the per-quantum store faster than an int64 array.
        # The array it is copied into after the loop is allocated first,
        # which keeps the benchmark's peak RSS at that of an array-only
        # log (allocated after the loop, it read about 0.35 MB higher).
        charges = np.empty(n_quanta, dtype=np.int64)
        log = [-1] * n_quanta

        now = 0.0
        q = 0
        while q < n_quanta:
            if next_wake <= now + tol:
                # Wake every due task, in task order, and find the next
                # pending wake among those still blocked.
                next_wake = inf
                for i, wake in enumerate(wake_at):
                    if wake <= now + tol:
                        wake_at[i] = inf
                        task = tasks[i]
                        task.burst_left = task.spec.run_quanta
                    elif wake < next_wake:
                        next_wake = wake
                runnable = [t for t, wake in zip(tasks, wake_at) if wake == inf]
                changed = True
            if not runnable:
                # Idle stretch: nothing can run until the next wake.
                # Advance quantum by quantum (keeping the repeated
                # `now += QUANTUM_S` accumulation exact) but skip the
                # pick/charge machinery entirely.
                now += QUANTUM_S
                q += 1
                while q < n_quanta and next_wake > now + tol:
                    now += QUANTUM_S
                    q += 1
                continue
            chosen = pick(runnable, changed)
            changed = False
            now += QUANTUM_S
            log[q] = chosen.group_index
            chosen.burst_left -= 1
            charged(chosen)
            if chosen.burst_left <= 0 and chosen.spec.block_s > 0:
                jitter = lognormal_factor(chosen.rng_name, chosen.spec.jitter)
                # A wake time that overflows to inf never comes; the
                # largest finite float keeps the task blocked without
                # reading as the runnable marker.
                wake = min(now + chosen.spec.block_s * jitter, sys.float_info.max)
                wake_at[chosen.index] = wake
                if wake < next_wake:
                    next_wake = wake
                runnable.remove(chosen)
                changed = True
            q += 1
        charges[:] = log

        # Observability: the quantum loop has no simulator handle, so it
        # reports batch totals through the ambiently active hub after
        # the loop (never from inside it — nothing perturbed).
        from repro.obs import ambient_registry
        from repro.obs.metrics import SCHED_QUANTA, SCHED_RUNS

        registry = ambient_registry()
        if registry is not None:
            idle = int((charges == -1).sum()) if n_quanta else 0
            registry.series[SCHED_QUANTA, self.name, "charged"].inc(n_quanta - idle)
            registry.series[SCHED_QUANTA, self.name, "idle"].inc(idle)
            registry.series[SCHED_RUNS, self.name].inc()

        # np.cumsum accumulates left to right, so these are bit-for-bit
        # the values the repeated `now += QUANTUM_S` in the loop took.
        times = np.empty(n_quanta + 1)
        times[0] = 0.0
        times[1:] = np.cumsum(np.full(n_quanta, QUANTUM_S))
        cumulative = np.zeros((n_groups, n_quanta + 1))
        if n_quanta:
            for g in range(n_groups):
                # np.cumsum accumulates left to right, so adding
                # QUANTUM_S at charged quanta and 0.0 elsewhere yields
                # bit-for-bit the running totals the per-tick loop kept.
                cumulative[g, 1:] = np.cumsum(
                    np.where(charges == g, QUANTUM_S, 0.0)
                )

        return SchedulerTrace(
            group_names=tuple(g.name for g in self.groups),
            horizon_s=now,
            quantum_s=QUANTUM_S,
            times=times,
            cumulative=cumulative,
        )


class VanillaLinuxScheduler(_SchedulerBase):
    """Linux-2.4-style epoch scheduler over individual processes."""

    name = "vanilla-linux"

    def _pick(self, runnable: List[_Task], changed: bool) -> _Task:
        # Largest counter wins ("goodness"); ties by task order.
        best: Optional[_Task] = None
        best_counter = 0
        for task in runnable:
            if task.counter > best_counter:
                best = task
                best_counter = task.counter
        if best is None:
            # Epoch end: recharge everyone (blocked tasks keep half their
            # leftover counter — the I/O boost).
            for task in self.tasks:
                task.counter = task.counter // 2 + BASE_COUNTER
            # Every runnable counter was 0 (counters never go negative),
            # so all now read BASE_COUNTER and the first one wins.
            best = runnable[0]
        return best

    def _charged(self, task: _Task) -> None:
        task.counter = max(0, task.counter - 1)


class ProportionalShareScheduler(_SchedulerBase):
    """Stride scheduling over task groups (one group per userid).

    Each group carries a pass value and advances it by its stride
    ``STRIDE_CONSTANT / tickets`` whenever it runs; the runnable group
    with the smallest ``(pass, group index)`` runs next, and its tasks
    take turns round robin.  A group found idle at one pick and present
    at a later one is re-based to the virtual time of the groups that
    stayed active, less one stride of credit.

    The pick does its per-group work (bucketing the runnable tasks by
    group, the virtual time, the re-base and idle marking) only when the
    loop reports that the runnable set changed since the previous pick.
    On any other quantum the same groups are present with the same
    tasks, none of them idle, so that pass would change nothing: the
    pick just takes the smallest pass among the present groups and
    steps its round robin.  Idleness is decided at pick time against
    the final set, so a group emptied by a block and refilled by a wake
    before the next pick is never seen idle and never re-based.
    Passes, round-robin indices and idle flags carry over between
    :meth:`run` calls.
    """

    name = "proportional-share"

    def __init__(self, groups: Sequence[TaskGroup], streams: Optional[RandomStreams] = None):
        super().__init__(groups, streams)
        self._stride = [STRIDE_CONSTANT / g.tickets for g in self.groups]
        self._pass = [0.0 for _ in self.groups]
        self._rr_index = [0 for _ in self.groups]
        self._group_idle = [False for _ in self.groups]
        # Per-group buckets of the runnable set the last regroup saw, and
        # the indices of the non-empty ones in first-seen (task) order;
        # both stay valid until the runnable set changes.
        self._buckets: List[List[_Task]] = [[] for _ in self.groups]
        self._present: List[int] = []

    def _regroup(self, runnable: List[_Task]) -> None:
        """Bucket ``runnable`` by group; re-base and mark idle groups."""
        buckets = self._buckets
        for g in self._present:
            buckets[g].clear()
        present: List[int] = []
        for task in runnable:
            g = task.group_index
            bucket = buckets[g]
            if not bucket:
                present.append(g)
            bucket.append(task)
        self._present = present
        passes = self._pass
        group_idle = self._group_idle
        # Re-base groups waking from idleness to the current virtual time
        # (taken from the groups that stayed active) so they neither
        # monopolise the CPU to catch up nor owe time they never used.
        virtual_time: Optional[float] = None
        for g in present:
            if not group_idle[g]:
                p = passes[g]
                if virtual_time is None or p < virtual_time:
                    virtual_time = p
        if virtual_time is None:
            virtual_time = max(passes[g] for g in present)
        for g in present:
            if group_idle[g]:
                # One stride of credit: a group that blocked after
                # under-using its share wakes with priority, which lets
                # I/O-bound nodes (like *log*) actually collect their
                # entitlement; the bound prevents catch-up monopolies.
                rebased = virtual_time - self._stride[g]
                if rebased > passes[g]:
                    passes[g] = rebased
                group_idle[g] = False
        for g, bucket in enumerate(buckets):
            if not bucket:
                group_idle[g] = True

    def _pick(self, runnable: List[_Task], changed: bool) -> _Task:
        if changed:
            self._regroup(runnable)
        present = self._present
        passes = self._pass
        # Smallest (pass, group index) wins.
        best = present[0]
        best_pass = passes[best]
        for g in present:
            p = passes[g]
            if p < best_pass or (p == best_pass and g < best):
                best = g
                best_pass = p
        tasks = self._buckets[best]
        rr_index = self._rr_index
        index = rr_index[best] % len(tasks)
        rr_index[best] += 1
        passes[best] = best_pass + self._stride[best]
        return tasks[index]


def figure5_groups() -> List[TaskGroup]:
    """The three virtual service nodes of the Figure 5 experiment.

    "we create two additional virtual service nodes *comp* and *log* in
    *tacoma*, besides the one for web content service (*web*). [...]
    Each of the three virtual service nodes is allocated an *equal*
    share of the CPU.  However, their loads are *higher* than their
    respective shares."  The differing process counts per node are what
    vanilla Linux rewards and the proportional-share scheduler ignores.
    """
    return [
        TaskGroup("web", [WorkloadSpec.web_server(), WorkloadSpec.web_server()], tickets=1.0),
        TaskGroup("comp", [WorkloadSpec.cpu_hog()] * 3, tickets=1.0),
        TaskGroup("log", [WorkloadSpec.disk_logger()], tickets=1.0),
    ]
