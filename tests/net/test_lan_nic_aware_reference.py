"""The NIC-aware max-min fill against a reference that keeps per-NIC sets.

``LAN`` keeps no per-NIC bookkeeping: when the NIC-aware fill runs (a
NIC slower than the segment is attached, or a fault is armed) it builds
its residual and share-count tables with one scan of the wire group.
:class:`NicSetLAN` is a test-only copy of the allocator it replaced: it
maintains a set of active wire flows per NIC on every arrival and
departure and seeds the tables from those sets.  Both are driven
through the same random programs of transfers, cap changes, slow NICs
attached mid-run, stalls and partitions, and every rate of every flush
must agree with ``==``.
"""

import math
from typing import Dict, List, Set

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.lan import _EPS, LAN, Flow, NetworkInterface
from repro.sim.kernel import Simulator


class NicSetLAN(LAN):
    """The allocator with per-NIC active-flow sets (reference only)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._nic_flows: Dict[NetworkInterface, Set[Flow]] = {}

    def transfer(self, src, dst, size_mb, rate_cap_mbps=None, label=""):
        flow = super().transfer(src, dst, size_mb, rate_cap_mbps, label)
        if not flow.is_loopback:
            self._nic_flows.setdefault(src, set()).add(flow)
            self._nic_flows.setdefault(dst, set()).add(flow)
        return flow

    def _finish(self, flow):
        if not flow.is_loopback:
            for nic in (flow.src, flow.dst):
                flows = self._nic_flows[nic]
                flows.discard(flow)
                if not flows:
                    del self._nic_flows[nic]
        super()._finish(flow)

    def _compute_wire_rates(self) -> None:
        wire = self._wire
        if not wire:
            return
        if self._stalled or self._partition is not None:
            active: List[Flow] = []
            for flow in wire:
                if self._blocked(flow):
                    flow.rate_mbs = 0.0
                else:
                    active.append(flow)
            if not active:
                return
            wire = active
            residual = {}
            count = {}
            for flow in wire:
                for nic in (flow.src, flow.dst):
                    if nic in count:
                        count[nic] += 1
                    else:
                        count[nic] = 1
                        residual[nic] = nic.rate_mbs
            nic_terms = True
        else:
            nic_terms = self._nic_floor_mbps < self.bandwidth_mbps
            if nic_terms:
                # The seeding under test: tables straight from the sets.
                residual = {}
                count = {}
                for nic, flows in self._nic_flows.items():
                    residual[nic] = nic.rate_mbs
                    count[nic] = len(flows)
        lan_residual = self.bandwidth_mbps / 8.0
        lan_count = len(wire)
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
            for flow in wire:
                if flow._fixed or flow._limit > threshold:
                    continue
                limit = flow._limit
                flow._fixed = True
                flow.rate_mbs = limit
                unfixed -= 1
                lan_residual -= limit
                if lan_residual < 0.0:
                    lan_residual = 0.0
                lan_count -= 1
                if nic_terms:
                    for nic in (flow.src, flow.dst):
                        left = residual[nic] - limit
                        residual[nic] = left if left > 0.0 else 0.0
                        count[nic] -= 1


gap = st.sampled_from([0.0, 0.0, 0.002, 0.01, 0.05])
nic_index = st.integers(min_value=0, max_value=7)
cap = st.one_of(st.none(), st.floats(min_value=1.0, max_value=400.0))
op = st.one_of(
    st.tuples(
        st.just("transfer"), gap, nic_index, nic_index,
        st.floats(min_value=0.01, max_value=3.0), cap,
    ),
    st.tuples(st.just("cap"), gap, st.integers(min_value=0, max_value=40), cap),
    st.tuples(st.just("slow"), gap, st.sampled_from([0.1, 0.25, 0.5, 0.9])),
    st.tuples(st.just("stall"), gap, nic_index),
    st.tuples(st.just("partition"), gap, st.lists(nic_index, min_size=1, max_size=3)),
)


def run_program(lan_class, bandwidth, factors, ops):
    """Drive ``ops`` on a fresh LAN; return every flush's wire rates, each
    flow's outcome and the heap-push count."""
    sim = Simulator()
    lan = lan_class(sim, bandwidth_mbps=bandwidth, latency_s=0.0002)
    nics = [lan.nic(f"h{i}", bandwidth * f) for i, f in enumerate(factors)]
    fills = []
    fill = lan._compute_wire_rates

    def recording():
        fill()
        fills.append((sim.now, tuple(flow.rate_mbs for flow in lan._wire)))

    lan._compute_wire_rates = recording
    flows = []

    def program(sim):
        for kind, wait, *args in ops:
            if wait:
                yield sim.timeout(wait)
            if kind == "transfer":
                src, dst, size, rate_cap = args
                flows.append(lan.transfer(
                    nics[src % len(nics)], nics[dst % len(nics)], size, rate_cap,
                    label=f"f{len(flows)}",
                ))
            elif kind == "cap":
                index, rate_cap = args
                if flows:
                    flow = flows[index % len(flows)]
                    if flow.finished_at is None:
                        flow.set_rate_cap(rate_cap)
            elif kind == "slow":
                (factor,) = args
                nics.append(lan.nic(f"slow{len(nics)}", bandwidth * factor))
            elif kind == "stall":
                nic = nics[args[0] % len(nics)]
                if nic in lan.stalled_nics:
                    lan.unstall_nic(nic)
                else:
                    lan.stall_nic(nic)
            else:
                if lan.partitioned:
                    lan.heal_partition()
                else:
                    lan.partition(nics[i % len(nics)] for i in args[0])

    sim.process(program(sim))
    sim.run()
    outcomes = [(f.label, f.finished_at, f.remaining_mb, f.rate_mbs) for f in flows]
    return fills, outcomes, sim.events_scheduled


@given(
    bandwidth=st.sampled_from([10.0, 100.0, 333.3]),
    factors=st.lists(st.sampled_from([0.2, 0.5, 1.0, 1.0, 2.0]), min_size=4, max_size=6),
    ops=st.lists(op, min_size=1, max_size=30),
)
# The budget comes from the hypothesis profile (CI's kernel job runs
# ``deep``), never below tier-1's 150 examples.
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
def test_nic_aware_fill_matches_nic_set_reference(bandwidth, factors, ops):
    assert run_program(LAN, bandwidth, factors, ops) == run_program(
        NicSetLAN, bandwidth, factors, ops
    )


def test_slow_nic_attached_mid_run_matches_reference():
    # Segment-rate NICs first (cap-only fill), then a slow NIC joins and
    # carries traffic alongside flows already in flight.
    ops = [("transfer", 0.0, i % 4, (i + 1) % 4, 1.5, None) for i in range(6)]
    ops += [("slow", 0.01, 0.25)]
    ops += [("transfer", 0.002, 4, i, 0.8, [None, 30.0][i % 2]) for i in range(4)]
    ops += [("transfer", 0.002, i, 4, 0.4, None) for i in range(4)]
    new = run_program(LAN, 100.0, [1.0, 1.0, 2.0, 1.0], ops)
    reference = run_program(NicSetLAN, 100.0, [1.0, 1.0, 2.0, 1.0], ops)
    assert new == reference
    fills = new[0]
    assert any(0.0 < rate < 100.0 / 8.0 * 0.25 + 1e-9 for _t, rates in fills for rate in rates)


def test_stall_and_partition_match_reference():
    ops = [("transfer", 0.0, i % 5, (i + 2) % 5, 1.0, None) for i in range(8)]
    ops += [("stall", 0.005, 1), ("partition", 0.005, [0, 3])]
    ops += [("transfer", 0.001, 2, 4, 0.5, 20.0), ("stall", 0.02, 1), ("partition", 0.02, [])]
    new = run_program(LAN, 100.0, [0.5, 1.0, 1.0, 2.0, 1.0], ops)
    assert new == run_program(NicSetLAN, 100.0, [0.5, 1.0, 1.0, 2.0, 1.0], ops)
    assert all(finished is not None for _label, finished, _left, _rate in new[1])
