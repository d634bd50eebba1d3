"""Unit tests for the fluid-flow LAN model."""

import hashlib
import math
import random

import pytest

from repro.net.lan import LAN, NetworkInterface
from repro.sim import Simulator


def make_lan(bandwidth=100.0, latency=0.0):
    sim = Simulator()
    lan = LAN(sim, bandwidth_mbps=bandwidth, latency_s=latency)
    return sim, lan


def test_lan_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        LAN(sim, bandwidth_mbps=0)
    with pytest.raises(ValueError):
        LAN(sim, latency_s=-1)
    with pytest.raises(ValueError):
        NetworkInterface("x", 0)


def test_nic_registry():
    sim, lan = make_lan()
    a = lan.nic("a", 100.0)
    assert lan.nic("a") is a
    assert lan.nic("a", 100.0) is a
    with pytest.raises(ValueError):
        lan.nic("a", 10.0)  # conflicting rate
    with pytest.raises(ValueError):
        lan.nic("missing")  # unknown without rate


def test_single_flow_takes_size_over_bandwidth():
    sim, lan = make_lan(bandwidth=100.0)
    a, b = lan.nic("a", 1000.0), lan.nic("b", 1000.0)
    flow = lan.transfer(a, b, size_mb=12.5)  # 12.5 MB at 12.5 MB/s
    sim.run()
    assert flow.done.triggered
    assert flow.finished_at == pytest.approx(1.0)


def test_nic_is_the_bottleneck_when_slower_than_lan():
    sim, lan = make_lan(bandwidth=1000.0)
    a = lan.nic("a", 10.0)  # 1.25 MB/s
    b = lan.nic("b", 1000.0)
    flow = lan.transfer(a, b, size_mb=1.25)
    sim.run()
    assert flow.finished_at == pytest.approx(1.0)


def test_two_flows_share_lan_fairly():
    sim, lan = make_lan(bandwidth=100.0)
    nics = [lan.nic(str(i), 1000.0) for i in range(4)]
    f1 = lan.transfer(nics[0], nics[1], size_mb=12.5)
    f2 = lan.transfer(nics[2], nics[3], size_mb=12.5)
    sim.run()
    # Each gets 50 Mbps -> 2 s for 12.5 MB.
    assert f1.finished_at == pytest.approx(2.0)
    assert f2.finished_at == pytest.approx(2.0)


def test_remaining_capacity_redistributed_after_completion():
    sim, lan = make_lan(bandwidth=100.0)
    nics = [lan.nic(str(i), 1000.0) for i in range(4)]
    small = lan.transfer(nics[0], nics[1], size_mb=6.25)
    large = lan.transfer(nics[2], nics[3], size_mb=12.5)
    sim.run()
    # Phase 1: both at 6.25 MB/s until small finishes at t=1 (6.25 MB).
    # large then has 6.25 MB left at full 12.5 MB/s -> finishes at 1.5.
    assert small.finished_at == pytest.approx(1.0)
    assert large.finished_at == pytest.approx(1.5)


def test_late_arrival_slows_existing_flow():
    sim, lan = make_lan(bandwidth=100.0)
    nics = [lan.nic(str(i), 1000.0) for i in range(4)]
    first = lan.transfer(nics[0], nics[1], size_mb=12.5)

    def late(sim):
        yield sim.timeout(0.5)
        flow = lan.transfer(nics[2], nics[3], size_mb=12.5)
        yield flow.done
        return flow

    proc = sim.process(late(sim))
    sim.run()
    # first: 6.25 MB in [0,0.5] at 12.5 MB/s, then 6.25 MB at 6.25 MB/s
    # -> finishes at 1.5.  second: 6.25 MB shared + 6.25 at full -> 2.0.
    assert first.finished_at == pytest.approx(1.5)
    assert proc.value.finished_at == pytest.approx(2.0)


def test_rate_cap_enforced():
    sim, lan = make_lan(bandwidth=100.0)
    a, b = lan.nic("a", 1000.0), lan.nic("b", 1000.0)
    flow = lan.transfer(a, b, size_mb=1.25, rate_cap_mbps=10.0)
    sim.run()
    assert flow.finished_at == pytest.approx(1.0)


def test_capped_flow_leaves_bandwidth_for_others():
    sim, lan = make_lan(bandwidth=100.0)
    nics = [lan.nic(str(i), 1000.0) for i in range(4)]
    capped = lan.transfer(nics[0], nics[1], size_mb=1.25, rate_cap_mbps=10.0)
    free = lan.transfer(nics[2], nics[3], size_mb=11.25)
    sim.run()
    # capped at 10 Mbps; free gets the remaining 90 Mbps = 11.25 MB/s.
    assert capped.finished_at == pytest.approx(1.0)
    assert free.finished_at == pytest.approx(1.0)


def test_set_rate_cap_mid_flight():
    sim, lan = make_lan(bandwidth=100.0)
    a, b = lan.nic("a", 1000.0), lan.nic("b", 1000.0)
    flow = lan.transfer(a, b, size_mb=12.5)

    def throttle(sim):
        yield sim.timeout(0.5)  # 6.25 MB done
        flow.set_rate_cap(50.0)  # remaining 6.25 MB at 6.25 MB/s

    sim.process(throttle(sim))
    sim.run()
    assert flow.finished_at == pytest.approx(1.5)


def test_set_rate_cap_validation():
    sim, lan = make_lan()
    a, b = lan.nic("a", 100.0), lan.nic("b", 100.0)
    flow = lan.transfer(a, b, size_mb=1.0)
    with pytest.raises(ValueError):
        flow.set_rate_cap(0)


def test_shared_nic_is_a_bottleneck():
    sim, lan = make_lan(bandwidth=1000.0)
    server = lan.nic("server", 100.0)
    c1, c2 = lan.nic("c1", 1000.0), lan.nic("c2", 1000.0)
    f1 = lan.transfer(server, c1, size_mb=6.25)
    f2 = lan.transfer(server, c2, size_mb=6.25)
    sim.run()
    # Server NIC 100 Mbps shared two ways -> 6.25 MB/s each -> 1 s each... no:
    # 100 Mbps = 12.5 MB/s shared -> 6.25 MB/s each -> 6.25 MB in 1 s.
    assert f1.finished_at == pytest.approx(1.0)
    assert f2.finished_at == pytest.approx(1.0)


def test_loopback_bypasses_lan():
    sim, lan = make_lan(bandwidth=100.0)
    a = lan.nic("a", 100.0)
    b = lan.nic("b", 1000.0)
    c = lan.nic("c", 1000.0)
    loop = lan.transfer(a, a, size_mb=50.0)
    wire = lan.transfer(b, c, size_mb=12.5)
    sim.run()
    # The loopback must not consume LAN bandwidth: wire finishes in 1 s.
    assert wire.finished_at == pytest.approx(1.0)
    assert loop.done.triggered
    assert loop.finished_at < 1.0  # loopback is much faster than the wire


def test_loopback_after_idle_not_pre_drained():
    """Regression: a loopback flow started after an idle interval must
    not be drained for time before it existed (rates are assigned in the
    batched flush, after the drain settles, never at transfer time)."""
    sim, lan = make_lan()
    a = lan.nic("a", 100.0)

    def late(sim):
        yield sim.timeout(5.0)
        flow = lan.transfer(a, a, size_mb=100.0)
        yield flow.done
        return flow

    proc = sim.process(late(sim))
    sim.run()
    # 100 MB at the 500 MB/s loopback rate = 0.2 s, starting at t=5.
    assert proc.value.finished_at == pytest.approx(5.2)


def test_set_rate_cap_on_loopback_flow():
    """Regression: a mid-flight cap change must apply to loopback flows
    too, not just wire flows."""
    sim, lan = make_lan()
    a = lan.nic("a", 1000.0)
    flow = lan.transfer(a, a, size_mb=500.0)

    def throttle(sim):
        yield sim.timeout(0.5)  # 250 MB drained at 500 MB/s
        flow.set_rate_cap(80.0)  # remaining 250 MB at 10 MB/s -> 25 s

    sim.process(throttle(sim))
    sim.run()
    assert flow.finished_at == pytest.approx(25.5)


def test_uncap_loopback_flow_restores_full_rate():
    sim, lan = make_lan()
    a = lan.nic("a", 1000.0)
    flow = lan.transfer(a, a, size_mb=100.0, rate_cap_mbps=80.0)  # 10 MB/s

    def uncap(sim):
        yield sim.timeout(5.0)  # 50 MB drained
        flow.set_rate_cap(None)  # remaining 50 MB at 500 MB/s -> 0.1 s

    sim.process(uncap(sim))
    sim.run()
    assert flow.finished_at == pytest.approx(5.1)


def test_zero_and_negative_size_transfers_rejected():
    sim, lan = make_lan(latency=0.1)
    a, b = lan.nic("a", 100.0), lan.nic("b", 100.0)
    with pytest.raises(ValueError, match="size must be positive"):
        lan.transfer(a, b, size_mb=0.0)
    with pytest.raises(ValueError, match="size must be positive"):
        lan.transfer(a, b, size_mb=-0.5)
    # A rejected transfer must leave no residue behind: the LAN still
    # carries later flows normally.
    flow = lan.transfer(a, b, size_mb=1.25)
    sim.run()
    assert flow.done.triggered
    assert not lan.active_flows


def test_latency_added_to_completion():
    sim, lan = make_lan(bandwidth=100.0, latency=0.05)
    a, b = lan.nic("a", 1000.0), lan.nic("b", 1000.0)
    flow = lan.transfer(a, b, size_mb=12.5)
    sim.run()
    assert flow.finished_at == pytest.approx(1.05)


def test_transfer_validation():
    sim, lan = make_lan()
    a, b = lan.nic("a", 100.0), lan.nic("b", 100.0)
    with pytest.raises(ValueError):
        lan.transfer(a, b, size_mb=-1)
    with pytest.raises(ValueError):
        lan.transfer(a, b, size_mb=1, rate_cap_mbps=0)


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_lan_parameters_rejected(bad):
    sim = Simulator()
    with pytest.raises(ValueError, match="finite"):
        LAN(sim, bandwidth_mbps=bad)
    with pytest.raises(ValueError, match="finite"):
        LAN(sim, latency_s=bad)
    sim, lan = make_lan()
    with pytest.raises(ValueError, match="finite"):
        lan.set_bandwidth(bad)
    assert lan.bandwidth_mbps == 100.0


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_nic_rate_rejected(bad):
    sim, lan = make_lan()
    with pytest.raises(ValueError, match="finite"):
        lan.nic("a", bad)
    with pytest.raises(ValueError, match="finite"):
        NetworkInterface("x", bad)
    with pytest.raises(ValueError, match="unknown NIC"):
        lan.find_nic("a")  # nothing was attached


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_transfer_inputs_rejected(bad):
    # A NaN-size or NaN-cap flow used to be accepted: it never completed
    # and its rate was NaN.
    sim, lan = make_lan(latency=0.1)
    a, b = lan.nic("a", 100.0), lan.nic("b", 100.0)
    with pytest.raises(ValueError, match="size must be positive and finite"):
        lan.transfer(a, b, size_mb=bad)
    with pytest.raises(ValueError, match="rate cap must be positive and finite"):
        lan.transfer(a, b, size_mb=1.0, rate_cap_mbps=bad)
    flow = lan.transfer(a, b, size_mb=1.25)
    with pytest.raises(ValueError, match="rate cap must be positive and finite"):
        flow.set_rate_cap(bad)
    assert flow.rate_cap_mbps is None
    # The rejections left no residue: the valid flow runs as usual.
    sim.run()
    assert flow.finished_at == pytest.approx(0.2)
    assert not lan.active_flows


def test_mean_rate_reported():
    sim, lan = make_lan(bandwidth=100.0)
    a, b = lan.nic("a", 1000.0), lan.nic("b", 1000.0)
    flow = lan.transfer(a, b, size_mb=12.5)
    sim.run()
    assert flow.mean_rate_mbps() == pytest.approx(100.0)


def test_many_flows_fair_share():
    sim, lan = make_lan(bandwidth=100.0)
    flows = []
    for i in range(10):
        src = lan.nic(f"s{i}", 1000.0)
        dst = lan.nic(f"d{i}", 1000.0)
        flows.append(lan.transfer(src, dst, size_mb=1.25))
    sim.run()
    # 10 flows at 10 Mbps each -> 1.25 MB in 1 s, all simultaneous.
    for flow in flows:
        assert flow.finished_at == pytest.approx(1.0)


def test_active_flows_listing():
    sim, lan = make_lan()
    a, b = lan.nic("a", 100.0), lan.nic("b", 100.0)
    flow = lan.transfer(a, b, size_mb=1.0)
    assert lan.active_flows == [flow]
    sim.run()
    assert lan.active_flows == []


def run_scenario(seed, with_faults=False, n_flows=48):
    """One randomized multi-NIC contention scenario.

    Returns ``(trace, events_scheduled)``: each flow's label, start,
    finish and elapsed time, plus the kernel's heap-push count.
    """
    rng = random.Random(seed)
    sim = Simulator()
    lan = LAN(sim, bandwidth_mbps=2000.0)
    nics = [
        lan.nic(f"h{i}", rate_mbps=rng.choice([100.0, 400.0, 1000.0]))
        for i in range(12)
    ]
    flows = []

    def spawn(sim):
        for i in range(n_flows):
            src, dst = rng.sample(nics, 2)
            cap = rng.choice([None, 50.0, 250.0])
            flows.append(
                lan.transfer(
                    src, dst, rng.uniform(0.05, 4.0),
                    rate_cap_mbps=cap, label=f"f{i}",
                )
            )
            if rng.random() < 0.5:
                yield sim.timeout(rng.uniform(0.0, 0.004))
        if with_faults:
            yield sim.timeout(0.002)
            lan.stall_nic(nics[0])
            lan.partition(nics[6:])
            yield sim.timeout(0.01)
            lan.unstall_nic(nics[0])
            lan.heal_partition()

    sim.process(spawn(sim))
    sim.run()
    assert all(f.finished_at is not None for f in flows)
    trace = [(f.label, f.started_at, f.finished_at, f.elapsed) for f in flows]
    return trace, sim.events_scheduled


def scenario_digest(seed, with_faults=False):
    return hashlib.sha256(repr(run_scenario(seed, with_faults)).encode()).hexdigest()


# Recorded when wire groups of 24+ flows went through a NumPy fill; the
# scalar fill reproduces those rates, finish times and push counts bit
# for bit.
SCENARIO_PINS = {
    0: "e7cc49eebd0e600bbc053f6b363197375ef2d89450d782f16e5f335203872414",
    1: "8c7fb0733c8310b765644c7a428235a61dceb0bcb574b2cf8b18519324609947",
    2: "313b45aac498585c7fc465a569c1e296861a2fa8a94f352c6800dbbca20ac0ee",
}


def test_wide_contention_scenarios_are_pinned():
    for seed, pin in SCENARIO_PINS.items():
        assert scenario_digest(seed) == pin, seed


def test_wide_contention_scenario_under_faults_is_pinned():
    # A stall and a partition mid-run: blocked flows are parked before
    # the fill, which sees only the active subset.
    assert scenario_digest(3, with_faults=True) == (
        "3af04354e598a0296284f3f3c0c68bb0dd0e4ce2ac6dd428cf09ee98b13034b4"
    )


def test_wide_fan_in_flows_finish_together():
    # 30 identical flows into one sink NIC get equal shares of it.
    sim = Simulator()
    lan = LAN(sim, bandwidth_mbps=10_000.0)
    sink = lan.nic("sink", rate_mbps=1000.0)
    srcs = [lan.nic(f"s{i}", rate_mbps=1000.0) for i in range(30)]
    flows = [lan.transfer(src, sink, 1.0) for src in srcs]
    sim.run()
    assert all(f.finished_at is not None for f in flows)
    assert len({f.finished_at for f in flows}) == 1
