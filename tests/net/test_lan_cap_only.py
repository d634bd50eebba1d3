"""Cap-only max-min fill: bit-for-bit equivalence, guard, and pins.

While every NIC is at least as fast as the segment and no fault is
armed, the allocator skips the NIC terms of the progressive fill.  The
module docstring of ``repro.net.lan`` argues the rates are unchanged
bit for bit; these tests check it with ``==`` against the NIC-aware
fill, check that the guard engages and disengages when it should, and
pin what the benchmark and the federation digest read off a LAN run:
the kernel's heap-push count and the profiler's LAN callback sites.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.lan import LAN
from repro.obs.profiler import KernelProfiler
from repro.sim.kernel import Simulator


def force_nic_aware(lan):
    """Make every later flush of ``lan`` take the NIC-aware fill."""
    lan._nic_floor_mbps = 0.0


def record_fills(lan, log):
    """Append every flush's wire rates (arrival order) to ``log``."""
    fill = lan._compute_wire_rates

    def recording():
        fill()
        log.append(tuple(flow.rate_mbs for flow in lan._wire))

    lan._compute_wire_rates = recording


flow_spec = st.tuples(
    st.floats(min_value=0.0, max_value=0.05),  # gap before the transfer
    st.integers(min_value=0, max_value=5),  # source NIC
    st.integers(min_value=0, max_value=5),  # destination NIC (== src: loopback)
    st.floats(min_value=0.01, max_value=3.0),  # size, MB
    st.one_of(st.none(), st.floats(min_value=1.0, max_value=400.0)),  # cap, Mbps
)


def run_fill_scenario(bandwidth, nic_factors, specs, new_bandwidth, nic_aware):
    sim = Simulator()
    lan = LAN(sim, bandwidth_mbps=bandwidth, latency_s=0.0002)
    nics = [lan.nic(f"h{i}", bandwidth * f) for i, f in enumerate(nic_factors)]
    if nic_aware:
        force_nic_aware(lan)
    fills = []
    record_fills(lan, fills)
    flows = []

    def arrivals(sim):
        for i, (gap, src, dst, size, cap) in enumerate(specs):
            if gap:
                yield sim.timeout(gap)
            flows.append(lan.transfer(nics[src], nics[dst], size, cap, label=f"f{i}"))
            if i == len(specs) // 2:
                lan.set_bandwidth(new_bandwidth)

    sim.process(arrivals(sim))
    sim.run()
    finished = [(f.label, f.finished_at) for f in flows]
    return fills, finished, sim.events_scheduled


SEGMENT_NICS = [1.0] * 6


@given(
    bandwidth=st.sampled_from([10.0, 100.0, 333.3]),
    nic_factors=st.lists(
        st.sampled_from([1.0, 1.0, 1.5, 10.0]), min_size=6, max_size=6
    ),
    specs=st.lists(flow_spec, min_size=1, max_size=14),
    shrink=st.floats(min_value=0.1, max_value=1.0),
)
# One round, one pass: every cap at or above the segment share.
@example(100.0, SEGMENT_NICS, [(0.0, 0, 1, 1.0, None), (0.0, 2, 3, 1.0, 400.0),
                               (0.0, 4, 5, 1.0, 200.0)], 1.0)
# One round, one pass: a lone flow whose cap is below the share.
@example(100.0, SEGMENT_NICS, [(0.0, 0, 1, 1.0, 8.0)], 1.0)
# A binding cap: round 1 fixes the capped flow, round 2 the others.
@example(100.0, SEGMENT_NICS, [(0.0, 0, 1, 1.0, None), (0.0, 2, 3, 1.0, 8.0),
                               (0.0, 4, 5, 1.0, None)], 1.0)
# The budget comes from the hypothesis profile (CI's kernel job runs
# ``deep``), never below tier-1's 80 examples.
@settings(max_examples=max(80, settings.default.max_examples), deadline=None)
def test_cap_only_fill_matches_nic_aware_fill_exactly(
    bandwidth, nic_factors, specs, shrink
):
    # set_bandwidth mid-run only shrinks the segment, so the guard holds
    # throughout and every flush of the first run is cap-only.
    fast = run_fill_scenario(bandwidth, nic_factors, specs, bandwidth * shrink, False)
    general = run_fill_scenario(bandwidth, nic_factors, specs, bandwidth * shrink, True)
    assert fast == general  # every rate of every flush, float ==


def test_cap_only_fill_matches_through_guard_flips():
    # A mid-run bandwidth rise past the slowest NIC flips the guard off;
    # the flushes either side of it still agree exactly.
    rng = random.Random(7)
    specs = [
        (rng.choice([0.0, 0.01]), rng.randrange(6), rng.randrange(6),
         rng.uniform(0.05, 2.0), rng.choice([None, 30.0, 80.0]))
        for _ in range(40)
    ]
    factors = [1.0, 1.0, 2.0, 1.0, 4.0, 1.0]
    fast = run_fill_scenario(100.0, factors, specs, 150.0, False)
    general = run_fill_scenario(100.0, factors, specs, 150.0, True)
    assert fast == general


# -- the one-pass fill --------------------------------------------------------
#
# The round loop resets every wire flow's ``_fixed`` flag before its
# first round; the one-pass branch never touches it.  A sentinel left in
# the flag is the spy that tells the two apart.

UNTOUCHED = "untouched"


def spied_fill(caps):
    """Rates of one fill over simultaneous flows, and whether the rounds ran."""
    sim = Simulator()
    lan = LAN(sim, bandwidth_mbps=100.0, latency_s=0.0)
    nics = [lan.nic(f"h{i}", 100.0) for i in range(2 * len(caps))]
    flows = [
        lan.transfer(nics[2 * i], nics[2 * i + 1], 10.0, rate_cap_mbps=cap)
        for i, cap in enumerate(caps)
    ]
    for flow in flows:
        flow._fixed = UNTOUCHED
    sim.run(until=0.001)
    rounds_ran = any(flow._fixed is not UNTOUCHED for flow in flows)
    return [flow.rate_mbs for flow in flows], rounds_ran


def test_one_round_fill_takes_the_one_pass_branch():
    rates, rounds_ran = spied_fill([None, 400.0, 200.0])
    assert rates == [12.5 / 3] * 3
    assert not rounds_ran


def test_binding_cap_takes_the_round_loop():
    rates, rounds_ran = spied_fill([None, 8.0, None])
    assert rates == [11.5 / 2, 1.0, 11.5 / 2]
    assert rounds_ran


# -- the guard ---------------------------------------------------------------
#
# The probes below lower one NIC's cached MB/s rate behind the
# allocator's back, leaving the tracked floor untouched.  The NIC-aware
# fill honours the lowered rate; the cap-only fill cannot see it.  That
# tells the two paths apart from the outside.


def probe_lan(bandwidth=100.0):
    sim = Simulator()
    lan = LAN(sim, bandwidth_mbps=bandwidth, latency_s=0.0)
    a, b, c, d = (lan.nic(name, 100.0) for name in "abcd")
    b.rate_mbs = 1.0  # hidden from the guard
    return sim, lan, (a, b, c, d)


def test_cap_only_fill_engages_when_every_nic_matches_the_segment():
    sim, lan, (a, b, c, d) = probe_lan()
    flow = lan.transfer(a, b, 100.0)
    sim.run(until=0.001)
    assert flow.rate_mbs == 12.5  # the segment share: NIC terms skipped


def test_slower_nic_takes_the_nic_aware_fill():
    sim, lan, (a, b, c, d) = probe_lan()
    lan.nic("slow", 10.0)  # attached, idle: still flips the guard
    flow = lan.transfer(a, b, 100.0)
    sim.run(until=0.001)
    assert flow.rate_mbs == 1.0


def test_stalled_nic_takes_the_nic_aware_fill():
    sim, lan, (a, b, c, d) = probe_lan()
    lan.stall_nic(d)
    flow = lan.transfer(a, b, 100.0)
    sim.run(until=0.001)
    assert flow.rate_mbs == 1.0


def test_partition_takes_the_nic_aware_fill():
    sim, lan, (a, b, c, d) = probe_lan()
    lan.partition([c, d])
    flow = lan.transfer(a, b, 100.0)
    sim.run(until=0.001)
    assert flow.rate_mbs == 1.0


def test_attaching_a_slower_nic_mid_run_flips_the_guard():
    sim, lan, (a, b, c, d) = probe_lan()
    flow = lan.transfer(a, b, 100.0)
    sim.run(until=0.001)
    assert flow.rate_mbs == 12.5
    slow = lan.nic("slow", 40.0)
    other = lan.transfer(c, slow, 1.0)  # re-fills the wire group
    sim.run(until=0.002)
    assert flow.rate_mbs == 1.0
    assert other.rate_mbs == 5.0  # the slow NIC's 40 Mbps


def test_raising_bandwidth_past_the_slowest_nic_flips_the_guard():
    sim, lan, (a, b, c, d) = probe_lan()
    flow = lan.transfer(a, b, 100.0)
    sim.run(until=0.001)
    assert flow.rate_mbs == 12.5
    lan.set_bandwidth(200.0)
    sim.run(until=0.002)
    assert flow.rate_mbs == 1.0


def test_nic_from_outside_the_registry_flips_the_guard():
    sim, lan, (a, b, c, d) = probe_lan()
    other_lan = LAN(sim, bandwidth_mbps=100.0)
    foreign = other_lan.nic("foreign", 20.0)
    flow = lan.transfer(a, foreign, 1.0)
    sim.run(until=0.001)
    assert flow.rate_mbs == 2.5  # the foreign NIC's 20 Mbps, honoured


# -- pins read by the benchmark and the federation digest ----------------------

# Heap pushes and end time of pinned_lan_run(), as produced by the
# allocator before the cap-only fill and the reused heap-entry owners.
PINNED_EVENTS = 627
PINNED_END = 1.8793708609650934


def pinned_lan_run(profiler=None):
    """A fixed testbed-shaped LAN run: requests, forwards, responses."""
    rng = random.Random(12)
    sim = Simulator()
    if profiler is not None:
        profiler.install(sim)
    lan = LAN(sim, bandwidth_mbps=100.0, latency_s=0.0002)
    clients = [lan.nic(f"client{i}", 100.0) for i in range(3)]
    switch = lan.nic("switch", 100.0)
    nodes = [switch] + [lan.nic(f"node{i}", 100.0) for i in range(2)]
    flows = []

    def request(sim, i):
        client, node = clients[i % 3], nodes[i % 3]
        yield sim.timeout(rng.uniform(0.0, 0.5))
        for src, dst, size in (
            (client, switch, 0.002),
            (switch, node, 0.002),  # loopback when the node is the switch
            (node, client, rng.uniform(0.05, 1.5)),
        ):
            flow = lan.transfer(src, dst, size, rate_cap_mbps=rng.choice([None, 60.0]))
            flows.append(flow)
            yield flow.done

    for i in range(30):
        sim.process(request(sim, i))
    sim.run()
    return sim, flows


def test_pinned_lan_run_keeps_its_heap_push_count():
    # events_scheduled is hashed into ClusterShard.digest(): an allocator
    # change that adds or drops a single heap push changes the federation
    # digest.  Pinned from the allocator before the cap-only fill.
    sim, flows = pinned_lan_run()
    assert len(flows) == 90
    assert sim.events_scheduled == PINNED_EVENTS
    assert sim.now == PINNED_END


def test_lan_profiler_sites_keep_their_names():
    profiler = KernelProfiler()
    pinned_lan_run(profiler)
    sites = set(profiler.sites)
    assert "call_soon:LAN._flush" in sites
    assert profiler.sites["call_soon:LAN._flush"].events > 0
    # perfbench counts lan.transfers by this prefix (run.py _lan_sites).
    deliveries = [s for s in sites if s.startswith("Timeout->LAN._finish")]
    assert deliveries == ["Timeout->LAN._finish_delivery"]
    assert sum(profiler.sites[s].events for s in deliveries) == 90
    wakes = [s for s in sites if "_on_wake" in s]
    assert wakes == ["call_soon:LAN._on_wake"]
    # Every LAN site's qualname (after the site prefix) starts with "LAN.".
    for site in sites:
        if "LAN" in site:
            assert site.split(":", 1)[-1].split("->", 1)[-1].startswith("LAN.")
