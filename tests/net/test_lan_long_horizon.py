"""LAN flows complete at any start horizon.

Far from t = 0 a flow's last residue can take less time than one step
of the clock: ``now + remaining / rate == now``.  Its completion
wake-up then fires at the instant it was armed, with nothing to drain,
and must finish the flow instead of re-arming itself forever.  Each run
steps the kernel under a fixed budget, so a regression fails here
instead of hanging the suite.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.lan import LAN
from repro.sim import Simulator

# Six flows, their flushes, wake-ups and latency timeouts take well
# under a hundred events; a livelocked LAN uses up any budget.
STEP_BUDGET = 2000

flow_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # source NIC
        st.integers(min_value=1, max_value=3),  # destination offset
        st.floats(min_value=0.001, max_value=20.0),  # size, MB
        st.floats(min_value=0.0, max_value=2.0),  # start delay after H, s
    ),
    min_size=6,
    max_size=6,
)


def run_flows(horizon, specs):
    sim = Simulator()
    lan = LAN(sim)
    nics = [lan.nic(f"n{i}", 100.0) for i in range(4)]
    sim.run(until=horizon)
    flows = []

    def start(src, dst, size_mb):
        flows.append(lan.transfer(nics[src], nics[dst], size_mb))

    for src, offset, size_mb, delay in specs:
        started = sim.timeout(delay)
        started.callbacks.append(
            lambda _ev, s=src, d=(src + offset) % 4, m=size_mb: start(s, d, m)
        )
    drain(sim)
    return flows


def drain(sim):
    """Step ``sim`` until its heap is empty, within ``STEP_BUDGET``."""
    for _ in range(STEP_BUDGET):
        if sim.peek() == math.inf:
            return
        sim.step()
    raise AssertionError(f"still busy after {STEP_BUDGET} events at t={sim.now}")


@settings(max_examples=60, deadline=None)
@given(horizon=st.floats(min_value=0.0, max_value=1e12), specs=flow_specs)
def test_flows_complete_at_any_start_horizon(horizon, specs):
    flows = run_flows(horizon, specs)
    assert len(flows) == len(specs)
    for flow in flows:
        assert flow.done.triggered
        assert flow.finished_at >= flow.started_at >= horizon
        assert flow.size_mb - flow.remaining_mb == flow.size_mb


def test_flows_complete_far_from_zero():
    # A fixed case that the old completion rule left spinning.
    specs = [(i % 4, 1 + i % 3, 0.3 + 1.7 * i, 0.05 * i) for i in range(6)]
    for horizon in (1e7, 1e9, 1e12):
        for flow in run_flows(horizon, specs):
            assert flow.remaining_mb == 0.0


def test_transfer_below_clock_resolution_completes_at_ordinary_horizon():
    # Started after the instant's flush, a 1e-13 MB loopback transfer
    # is due 2e-16 s later, which rounds to now at t = 100 s.
    sim = Simulator()
    lan = LAN(sim)
    a, b = lan.nic("a", 100.0), lan.nic("b", 100.0)
    sim.run(until=100.0)
    bulk = lan.transfer(a, b, 1.0)
    tiny = []
    started = sim.timeout(0.0)
    started.callbacks.append(lambda _ev: tiny.append(lan.transfer(a, a, 1e-13)))
    drain(sim)
    assert tiny[0].finished_at == 100.0 + lan.latency_s
    assert tiny[0].remaining_mb == 0.0
    assert bulk.done.triggered
