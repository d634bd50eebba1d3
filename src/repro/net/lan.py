"""Flow-level LAN model with max-min fair bandwidth sharing.

The paper's testbed is a 100 Mbps departmental LAN (§4).  We model it as
a fluid system: each active :class:`Flow` drains at a rate determined by
progressive-filling max-min fairness subject to

* the shared LAN segment capacity,
* the source and destination NIC capacities, and
* an optional per-flow rate cap (this is the hook the host-OS traffic
  shaper of §4.2 uses to enforce per-node outbound bandwidth shares).

Rates are recomputed whenever the flow set changes, and the kernel wakes
the LAN exactly at the next flow-completion instant, so the model is
event-driven and exact for piecewise-constant rate allocations.
Transfers between two endpoints on the same NIC short-circuit through a
loopback path and consume no LAN bandwidth.

Incremental recomputation
-------------------------
Recomputing the allocation used to happen eagerly on *every* flow
arrival, departure, and cap change.  The allocator is now incremental
and batched:

* Mutations only mark the LAN dirty; one flush — due now on the
  kernel's same-instant lane, like ``Simulator.call_soon`` — drains the
  fluid state and recomputes rates once for all mutations made before
  the flush fires.  Because the flush rides the lane, it fires ahead of
  the timeouts due at the same instant: a mutation made by a *later*
  event at the same instant re-arms another flush.  Results are
  identical either way; the coalescing bounds the number of max-min
  passes per instant by the number of urgent batches, not by the number
  of flow mutations.
* All rate assignment happens inside the flush, never at mutation time:
  the flush first drains every flow at its *old* rate up to now, then
  assigns new rates.  (A new flow therefore carries rate 0 until the
  flush — assigning eagerly would let the drain charge the new rate
  over time before the flow existed.)
* The flush drains the fluid state only when simulated time has passed
  since the last drain, and arms the next completion wake-up in the same
  pass.
* Arrivals and departures keep no per-NIC bookkeeping.  The NIC-aware
  fill (taken only when a NIC slower than the segment is attached, or a
  fault is armed) builds its residual and share-count tables with one
  scan of the wire group; the cap-only fill below needs no tables.
* Bottleneck groups are recomputed selectively: loopback flows form
  singleton groups whose rate is ``min(cap, loopback)`` independent of
  every other flow (assigned in the flush's completion scan), and the
  wire group (all flows sharing the LAN segment) is only re-filled
  when a *wire* flow arrives, departs, or changes cap — loopback churn
  never triggers a max-min pass.

Cap-only fill
-------------
The testbed's NICs all run at the segment rate (100 Mbps), and then the
NIC terms of the fill never bind.  The guard is read off the topology:
the slowest NIC attached (tracked by :meth:`LAN.nic`, and by
:meth:`LAN.transfer` for a NIC built elsewhere) is at least as fast as
the segment, and no stall or partition is armed.  Under it,
every NIC's residual stays ``>=`` the segment's residual: both start
that way, each fixed flow subtracts the same ``limit`` from the segment
and from its own NICs (other flows only shrink the segment), and IEEE-754
subtraction, clamping at zero and division are monotone.  A NIC carries
``k <= n`` of the ``n`` unfixed wire flows, so ``nic_res / k >= lan_res
/ n`` bit for bit, and ``min(cap, lan share, src share, dst share)``
equals ``min(cap, lan share)`` exactly.  The pass then skips the per-NIC
residual/count tables and two of the four shares per flow per round; it
runs the same rounds, fixes flows in the same order and makes the same
clamped segment subtractions, so every rate is identical.  A slower NIC
attached mid-run, a bandwidth raised past the slowest NIC, or any fault
switches the next flush back to the NIC-aware pass.  The fill is
scalar for every group size: a NumPy fill of wide groups never beat it
(MODELING.md §9).

Most cap-only fills end in their first round: every flow's
``min(cap, segment share)`` lies within ``_EPS`` of the smallest (no
cap below the share, or all flows capped alike), so round 1 fixes every
flow at that limit.  The pass checks this with one scan that computes
round 1's limits, assigns them as rates and tracks the smallest and the
largest; when the largest is within ``_EPS`` of the smallest it returns
without the round loop's ``_fixed``/``_limit`` scratch state.  The
rates are bit-identical: round 1 computes the same share
``lan_residual / lan_count`` from the same operands, takes the same
``min`` per flow, compares against the same ``bottleneck + _EPS``
threshold and assigns each fixed flow exactly its limit; the segment
subtractions it would make afterwards feed no later round.  Otherwise
the round loop runs from the start and overwrites every rate.

Heap entries
------------
The flush and the completion wake-up are pushed as direct entries whose
owners (one ``_CallbackShim`` for the flush, one ``_WakeShim`` for the
wake-up, which reads its generation from the entry's trigger slot) live
as long as the LAN, so neither allocates an event or closure per push.
The flush is due now, so it rides the kernel's same-instant lane; the
wake-up is scheduled ahead, so it goes on the heap.  Each entry takes
the container and the ``(time, seq)`` key the ``call_soon`` callback or
``Timeout`` it replaced would have taken, so firing order is unchanged.
The delivery stays a latency ``Timeout``: perfbench counts delivered
transfers by its profiler site (``Timeout->LAN._finish...``).  It
carries its flow as its value, and one bound method,
``_finish_delivery``, is every delivery's callback, so no closure is
allocated per transfer.  The flow's ``done`` then fires with no value
(see :class:`Flow`).  LAN and kernel optimizations
must also keep the *number* of pushes: ``Simulator.events_scheduled``
is hashed into the federation digest (``ClusterShard.digest``), so
cutting a push (delivering ``done`` without its latency ``Timeout``,
say) changes pinned digests and needs its references re-recorded.

Clock resolution
----------------
A flow finishes when a drain leaves at most ``_EPS`` MB of it, or when
its remaining time is below one step of the clock.  Far from t = 0 a
residue just above ``_EPS`` can need less time than that:
``now + remaining / rate == now``.  The wake-up armed for it fires at
the instant it was armed, with nothing to drain.  ``_advance`` already
tests whether time passed since the last drain; when none has (which
only such a wake-up can cause, since ``_flush`` drains only after time
has passed and a flush in between supersedes the wake-up), it finishes
every flow whose completion time rounds to ``now`` and counts its
remaining bytes as delivered.  At the default rates the fastest
path is the 500 MB/s loopback, so a residue above ``_EPS`` lasts at
least 2e-12 s and the rule cannot fire for it before t = 2**15 s
(about 3.3e4 s); no workload or pinned run reaches that.  A transfer
smaller than ``_EPS`` started after the instant's first flush can take
the rule at any time (1e-13 MB on loopback at t = 100 s does).  Flows
complete at any start horizon.  Tests cover horizons up to 1e12 s,
where completion instants are exact to the clock's step (1.2e-4 s).

Fault hooks
-----------
The fault-injection layer (``repro.faults``) drives three degradation
knobs, all of which go through the same dirty-flag/flush discipline so
faulted runs stay deterministic:

* ``stall_nic`` / ``unstall_nic`` — a stalled NIC carries no wire
  traffic (rate 0 on every flow touching it); this models a dead
  switch-to-host link.  Loopback traffic is unaffected: a co-located
  switch and node keep talking even when the host's cable is pulled.
* ``partition`` / ``heal_partition`` — flows crossing the partition
  boundary are frozen at rate 0 until the partition heals.
* ``set_bandwidth`` — changes the shared segment capacity mid-run
  (LAN degradation), e.g. to model congestion from a bulk transfer.

Blocked flows are not cancelled — they resume draining when the fault
is lifted, exactly like a real TCP stream surviving a brief outage.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from repro.obs.metrics import LAN_FLUSHES, LAN_TRANSFERS
from repro.sim.kernel import Event, Simulator, Timeout, _CallbackShim

__all__ = ["NetworkInterface", "Flow", "LAN"]

# Rate granted to co-located (same-NIC) transfers, in MB/s.  Generous but
# finite so loopback transfers still take simulated time.
LOOPBACK_RATE_MBPS = 4000.0
_LOOPBACK_RATE_MBS = LOOPBACK_RATE_MBPS / 8.0

_EPS = 1e-9


class NetworkInterface:
    """A host NIC attached to the LAN."""

    __slots__ = ("name", "rate_mbps", "rate_mbs")

    def __init__(self, name: str, rate_mbps: float):
        if not 0 < rate_mbps < math.inf:
            raise ValueError(f"NIC rate must be positive and finite, got {rate_mbps}")
        self.name = name
        self.rate_mbps = rate_mbps
        # Capacity in megabytes per second (cached: read in the
        # allocator's inner loop).
        self.rate_mbs = rate_mbps / 8.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NetworkInterface({self.name!r}, {self.rate_mbps} Mbps)"


class Flow:
    """One in-flight transfer.

    ``done`` fires when the last byte has arrived at the destination,
    i.e. after the data has drained plus one propagation latency.  It
    fires with no value: every waiter already holds the flow, and a
    ``done`` whose value is its own flow would tie the two into a cycle,
    so a finished flow would wait for the cyclic GC instead of dying by
    refcount when its last user drops it (MODELING.md §10).
    """

    __slots__ = (
        "lan", "src", "dst", "size_mb", "remaining_mb", "rate_cap_mbps",
        "label", "rate_mbs", "started_at", "finished_at", "done",
        "_cap_mbs", "_loopback", "_fixed", "_limit", "__weakref__",
    )

    def __init__(
        self,
        lan: "LAN",
        src: NetworkInterface,
        dst: NetworkInterface,
        size_mb: float,
        rate_cap_mbps: Optional[float],
        label: str,
    ):
        self.lan = lan
        self.src = src
        self.dst = dst
        self.size_mb = size_mb
        self.remaining_mb = size_mb
        self.rate_cap_mbps = rate_cap_mbps
        self.label = label
        self.rate_mbs = 0.0  # current allocated rate, MB/s
        self.started_at = lan.sim._now
        self.finished_at: Optional[float] = None
        self.done: Event = Event(lan.sim)
        self._cap_mbs = math.inf if rate_cap_mbps is None else rate_cap_mbps / 8.0
        self._loopback = src is dst
        self._fixed = False  # allocator scratch state
        self._limit = 0.0

    @property
    def is_loopback(self) -> bool:
        return self._loopback

    @property
    def cap_mbs(self) -> float:
        return self._cap_mbs

    def set_rate_cap(self, rate_cap_mbps: Optional[float]) -> None:
        """Change the cap mid-flight (used by dynamic traffic shaping)."""
        _check_rate_cap(rate_cap_mbps)
        self.rate_cap_mbps = rate_cap_mbps
        self._cap_mbs = math.inf if rate_cap_mbps is None else rate_cap_mbps / 8.0
        self.lan._mark_dirty(wire=not self._loopback, loopback=self._loopback)

    @property
    def elapsed(self) -> float:
        end = self.finished_at if self.finished_at is not None else self.lan.sim.now
        return end - self.started_at

    def mean_rate_mbps(self) -> float:
        """Achieved average rate over the flow's lifetime, in Mbps."""
        if self.elapsed <= 0:
            return 0.0
        return (self.size_mb - self.remaining_mb) * 8.0 / self.elapsed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Flow({self.label!r}, {self.src.name}->{self.dst.name}, "
            f"{self.remaining_mb:.3f}/{self.size_mb:.3f} MB)"
        )


def _check_bandwidth(bandwidth_mbps: float) -> None:
    if not 0 < bandwidth_mbps < math.inf:
        raise ValueError(f"LAN bandwidth must be positive and finite, got {bandwidth_mbps}")


def _check_rate_cap(rate_cap_mbps: Optional[float]) -> None:
    if rate_cap_mbps is not None and not 0 < rate_cap_mbps < math.inf:
        raise ValueError(f"rate cap must be positive and finite, got {rate_cap_mbps}")


class _WakeShim(_CallbackShim):
    """Owner of the LAN's completion wake-up heap entries.

    One per LAN.  Each armed wake-up carries its generation in the heap
    entry's trigger slot, so arming one allocates nothing but the entry.
    """

    __slots__ = ()

    def _resume(self, generation: object) -> None:
        self._callback(generation)


class LAN:
    """The shared network segment connecting all HUP hosts and clients."""

    def __init__(self, sim: Simulator, bandwidth_mbps: float = 100.0, latency_s: float = 0.0002):
        _check_bandwidth(bandwidth_mbps)
        if not 0 <= latency_s < math.inf:
            raise ValueError(f"latency must be non-negative and finite, got {latency_s}")
        self.sim = sim
        self.bandwidth_mbps = bandwidth_mbps
        self.latency_s = latency_s
        self._nics: Dict[str, NetworkInterface] = {}
        # Slowest NIC that can carry wire traffic here.  While it is at
        # least the segment rate (and no fault is armed), the max-min
        # fill can skip the NIC terms (see _compute_wire_rates).
        self._nic_floor_mbps = math.inf
        self._flows: List[Flow] = []  # all active flows, arrival order
        self._wire: List[Flow] = []  # non-loopback active flows, arrival order
        self._last_update = sim.now
        self._wake_generation = 0
        self._flush_pending = False
        # Direct-entry owners reused for every flush and wake-up push,
        # and the one bound callback of every delivery Timeout.
        self._flush_shim = _CallbackShim(self._flush)
        self._wake_shim = _WakeShim(self._on_wake)
        self._finish_delivery_cb = self._finish_delivery
        self._wire_dirty = False
        self._loopback_dirty = False
        # Fault state: stalled NICs carry no wire traffic; a partition
        # freezes flows that cross its boundary.  Both empty in the
        # common case so the allocator fast path stays fault-free.
        self._stalled: Set[NetworkInterface] = set()
        self._partition: Optional[FrozenSet[NetworkInterface]] = None

    # -- topology ---------------------------------------------------------
    def nic(self, name: str, rate_mbps: Optional[float] = None) -> NetworkInterface:
        """Get or create the NIC named ``name``.

        ``rate_mbps`` is required on first creation; on later lookups it
        must be omitted or match.
        """
        if name in self._nics:
            existing = self._nics[name]
            if rate_mbps is not None and rate_mbps != existing.rate_mbps:
                raise ValueError(
                    f"NIC {name!r} already attached at {existing.rate_mbps} Mbps"
                )
            return existing
        if rate_mbps is None:
            raise ValueError(f"unknown NIC {name!r} and no rate given")
        nic = NetworkInterface(name, rate_mbps)
        self._nics[name] = nic
        if rate_mbps < self._nic_floor_mbps:
            self._nic_floor_mbps = rate_mbps
        return nic

    @property
    def active_flows(self) -> List[Flow]:
        return list(self._flows)

    def find_nic(self, name: str) -> NetworkInterface:
        """Look up an already-attached NIC by name."""
        try:
            return self._nics[name]
        except KeyError:
            raise ValueError(f"unknown NIC {name!r}") from None

    # -- fault hooks --------------------------------------------------------
    def stall_nic(self, nic: NetworkInterface) -> None:
        """Freeze all wire traffic through ``nic`` (dead link).

        Idempotent.  Loopback flows on the NIC keep draining — the stall
        models the cable, not the host.
        """
        if nic not in self._stalled:
            self._stalled.add(nic)
            self._mark_dirty(wire=True)

    def unstall_nic(self, nic: NetworkInterface) -> None:
        """Lift a stall; frozen flows resume from where they stopped."""
        if nic in self._stalled:
            self._stalled.discard(nic)
            self._mark_dirty(wire=True)

    @property
    def stalled_nics(self) -> Set[NetworkInterface]:
        return set(self._stalled)

    def partition(self, group: Iterable[NetworkInterface]) -> None:
        """Split the segment: flows crossing ``group``'s boundary freeze.

        Only one partition can be active at a time (the model is a
        single shared segment, so one cut fully describes it).
        """
        if self._partition is not None:
            raise ValueError("a partition is already active; heal it first")
        members = frozenset(group)
        if not members:
            raise ValueError("partition group must be non-empty")
        self._partition = members
        self._mark_dirty(wire=True)

    def heal_partition(self) -> None:
        """Rejoin the segment; frozen cross-partition flows resume."""
        if self._partition is not None:
            self._partition = None
            self._mark_dirty(wire=True)

    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    def set_bandwidth(self, bandwidth_mbps: float) -> None:
        """Change the shared segment capacity mid-run (LAN degradation)."""
        _check_bandwidth(bandwidth_mbps)
        if bandwidth_mbps != self.bandwidth_mbps:
            self.bandwidth_mbps = bandwidth_mbps
            self._mark_dirty(wire=True)

    def _blocked(self, flow: Flow) -> bool:
        """True when a fault freezes ``flow`` (stalled NIC / partition cut)."""
        if flow.src in self._stalled or flow.dst in self._stalled:
            return True
        partition = self._partition
        if partition is not None and (flow.src in partition) != (flow.dst in partition):
            return True
        return False

    # -- transfers ----------------------------------------------------------
    def transfer(
        self,
        src: NetworkInterface,
        dst: NetworkInterface,
        size_mb: float,
        rate_cap_mbps: Optional[float] = None,
        label: str = "",
    ) -> Flow:
        """Start a transfer; ``flow.done`` fires on completion."""
        if not 0 < size_mb < math.inf:
            raise ValueError(f"transfer size must be positive and finite, got {size_mb}")
        if rate_cap_mbps is not None:
            _check_rate_cap(rate_cap_mbps)
        flow = Flow(self, src, dst, size_mb, rate_cap_mbps, label)
        registry = getattr(self.sim, "metrics", None)
        if registry is not None:
            registry.series[LAN_TRANSFERS, "loopback" if flow._loopback else "wire"].inc()
        self._flows.append(flow)
        if flow._loopback:
            # Singleton bottleneck group — but the rate is assigned in
            # the flush (after the drain settles ``_last_update``), not
            # here: a rate granted before the flush would be charged
            # over the whole interval since the last drain, pre-draining
            # the flow for time before it existed.
            self._loopback_dirty = True
        else:
            floor = self._nic_floor_mbps
            if src.rate_mbps < floor or dst.rate_mbps < floor:
                # A NIC built outside nic() (e.g. another LAN's).
                self._nic_floor_mbps = min(src.rate_mbps, dst.rate_mbps)
            self._wire.append(flow)
            self._wire_dirty = True
        # _mark_dirty, inlined: this runs once per transfer.
        if not self._flush_pending:
            self._flush_pending = True
            self.sim._schedule_now(self._flush_shim)
        return flow

    # -- fluid-model internals ----------------------------------------------
    def _mark_dirty(self, wire: bool = False, loopback: bool = False) -> None:
        """Note a flow-set/cap mutation; coalesce same-instant flushes."""
        if wire:
            self._wire_dirty = True
        if loopback:
            self._loopback_dirty = True
        if not self._flush_pending:
            self._flush_pending = True
            self.sim._schedule_now(self._flush_shim)

    def _flush(self) -> None:
        """Drain, recompute affected groups, and re-arm the wake-up."""
        self._flush_pending = False
        registry = getattr(self.sim, "metrics", None)
        if registry is not None:
            registry.series[LAN_FLUSHES].inc()
        if self.sim._now > self._last_update:
            self._advance()
        if self._wire_dirty:
            self._wire_dirty = False
            self._compute_wire_rates()
        # Arm a wake-up at the next flow-completion instant; any wake-up
        # armed earlier is superseded by the generation bump.  The same
        # scan assigns loopback rates (singleton groups, independent of
        # the wire fill) when a loopback flow arrived or changed cap.
        self._wake_generation += 1
        loopback_dirty = self._loopback_dirty
        self._loopback_dirty = False
        next_completion = math.inf
        for flow in self._flows:
            if loopback_dirty and flow._loopback:
                flow.rate_mbs = min(flow._cap_mbs, _LOOPBACK_RATE_MBS)
            rate = flow.rate_mbs
            if rate > 0:
                dt = flow.remaining_mb / rate
                if dt < next_completion:
                    next_completion = dt
        if next_completion < math.inf:
            self.sim._schedule_direct(
                self._wake_shim, self.sim._now + next_completion, self._wake_generation
            )

    def _advance(self) -> None:
        """Drain all flows at their current rates up to now."""
        now = self.sim._now
        dt = now - self._last_update
        self._last_update = now
        if not self._flows:
            return
        finished: Optional[List[Flow]] = None
        if dt > 0:
            for flow in self._flows:
                remaining = flow.remaining_mb - flow.rate_mbs * dt
                if remaining <= _EPS:
                    flow.remaining_mb = 0.0
                    if finished is None:
                        finished = []
                    finished.append(flow)
                else:
                    flow.remaining_mb = remaining
        else:
            # No time passed: ``_flush`` drains only after time has, so
            # this is a live wake-up armed below clock resolution.  The
            # flows whose completion time rounds to now finish with
            # their remaining bytes delivered (module docstring, "Clock
            # resolution").
            finished = [
                flow for flow in self._flows
                if flow.rate_mbs > 0 and now + flow.remaining_mb / flow.rate_mbs <= now
            ]
            for flow in finished:
                flow.remaining_mb = 0.0
        if finished:
            # In place: about 2.5 flows are live at a flush, and one
            # usually finishes.  _finish only pushes entries, so nothing
            # reads the lists before the loop ends.
            for flow in finished:
                self._flows.remove(flow)
                if not flow._loopback:
                    self._wire.remove(flow)
                    self._wire_dirty = True
                self._finish(flow)

    def _finish(self, flow: Flow) -> None:
        """Deliver the last byte after one propagation latency."""
        flow.finished_at = self.sim._now + self.latency_s
        if self.latency_s == 0:
            flow.done.succeed()
        else:
            # A Timeout, not a direct entry: perfbench counts delivered
            # transfers by the profiler site "Timeout->LAN._finish...".
            delivery = Timeout(self.sim, self.latency_s, flow)
            delivery.callbacks.append(self._finish_delivery_cb)

    def _finish_delivery(self, delivery: Timeout) -> None:
        """The latency has passed: fire the done event of the flow it carries."""
        delivery._value.done.succeed()

    def _compute_wire_rates(self) -> None:
        """Progressive-filling max-min fairness over the wire group.

        Resources: the LAN segment (used by every non-loopback flow) and
        each NIC (as source or destination).  Per-flow caps are honoured.
        The NIC-aware fill builds its residual/count tables with one scan
        of the flows it fills, and the rounds iterate the wire list in
        arrival order, which keeps the allocation deterministic.

        Cap-only fill: while every NIC is at least as fast as the segment
        and no fault is armed, no NIC share can undercut the segment
        share, so the rounds skip the NIC terms (and their tables) and
        reduce to a water-fill over the caps — bit-identical rates, as
        the module docstring argues.  When round 1 would fix every flow,
        one pass assigns the rates and the round loop never runs.
        """
        wire = self._wire
        if not wire:
            return
        faulted = bool(self._stalled) or self._partition is not None
        if faulted:
            # Fault path: blocked flows freeze at rate 0 and drop out of
            # the max-min pass entirely (they hold no share of the
            # segment or of their NICs while frozen).
            active: List[Flow] = []
            for flow in wire:
                if self._blocked(flow):
                    flow.rate_mbs = 0.0
                else:
                    active.append(flow)
            if not active:
                return
            wire = active
        nic_terms = faulted or self._nic_floor_mbps < self.bandwidth_mbps
        if nic_terms:
            residual: Dict[NetworkInterface, float] = {}
            count: Dict[NetworkInterface, int] = {}
            for flow in wire:
                for nic in (flow.src, flow.dst):
                    if nic in count:
                        count[nic] += 1
                    else:
                        count[nic] = 1
                        residual[nic] = nic.rate_mbs
        lan_residual = self.bandwidth_mbps / 8.0
        lan_count = len(wire)
        if not nic_terms:
            # One-pass fill: round 1's limits, assigned as computed.  If
            # they all lie within _EPS of the smallest, round 1 fixes
            # every flow at its limit and the fill is done; otherwise
            # the rounds below overwrite every rate.
            lan_share = lan_residual / lan_count
            lowest = math.inf
            highest = 0.0
            for flow in wire:
                limit = flow._cap_mbs
                if lan_share < limit:
                    limit = lan_share
                flow.rate_mbs = limit
                if limit < lowest:
                    lowest = limit
                if limit > highest:
                    highest = limit
            if highest <= lowest + _EPS:
                return
        for flow in wire:
            flow._fixed = False
        unfixed = len(wire)
        while unfixed:
            lan_share = lan_residual / lan_count
            bottleneck = math.inf
            for flow in wire:
                if flow._fixed:
                    continue
                limit = flow._cap_mbs
                if lan_share < limit:
                    limit = lan_share
                if nic_terms:
                    share = residual[flow.src] / count[flow.src]
                    if share < limit:
                        limit = share
                    share = residual[flow.dst] / count[flow.dst]
                    if share < limit:
                        limit = share
                flow._limit = limit
                if limit < bottleneck:
                    bottleneck = limit
            threshold = bottleneck + _EPS
            progressed = False
            for flow in wire:
                if flow._fixed:
                    continue
                limit = flow._limit
                if limit > threshold:
                    continue
                flow._fixed = True
                flow.rate_mbs = limit
                progressed = True
                unfixed -= 1
                lan_residual -= limit
                if lan_residual < 0.0:
                    lan_residual = 0.0
                lan_count -= 1
                if nic_terms:
                    src, dst = flow.src, flow.dst
                    left = residual[src] - limit
                    residual[src] = left if left > 0.0 else 0.0
                    count[src] -= 1
                    left = residual[dst] - limit
                    residual[dst] = left if left > 0.0 else 0.0
                    count[dst] -= 1
            assert progressed, "progressive filling must fix at least one flow"

    def _on_wake(self, generation: int) -> None:
        if generation != self._wake_generation:
            return  # superseded by a newer reschedule
        # Drain now (firing completions before anything else at this
        # instant), then let the batched flush recompute rates once all
        # same-instant reactions (e.g. follow-up transfers started by
        # `done` waiters) have been applied.
        self._advance()
        if not self._flush_pending:  # _mark_dirty(), inlined
            self._flush_pending = True
            self.sim._schedule_now(self._flush_shim)
