"""Property-based tests for the simulation kernel and Resource."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, Simulator


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=100)
def test_events_fire_in_nondecreasing_time_order(delays):
    """Whatever the schedule, observed firing times never go backwards."""
    sim = Simulator()
    observed = []

    def proc(sim, delay):
        yield sim.timeout(delay)
        observed.append(sim.now)

    for delay in delays:
        sim.process(proc(sim, delay))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)
    assert sim.now == max(delays)


@given(
    delays=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30),
    until=st.floats(min_value=0, max_value=200),
)
@settings(max_examples=100)
def test_run_until_never_processes_future_events(delays, until):
    sim = Simulator()
    fired = []

    def proc(sim, delay):
        yield sim.timeout(delay)
        fired.append(delay)

    for delay in delays:
        sim.process(proc(sim, delay))
    sim.run(until=until)
    assert all(d <= until for d in fired)
    assert sim.now == until


@given(
    capacity=st.integers(min_value=1, max_value=5),
    holds=st.lists(st.floats(min_value=0.01, max_value=10), min_size=1, max_size=25),
)
@settings(max_examples=100)
def test_resource_never_exceeds_capacity(capacity, holds):
    sim = Simulator()
    resource = Resource(sim, capacity=capacity)
    max_seen = [0]

    def user(sim, hold):
        req = resource.request()
        yield req
        max_seen[0] = max(max_seen[0], resource.count)
        yield sim.timeout(hold)
        resource.release(req)

    for hold in holds:
        sim.process(user(sim, hold))
    sim.run()
    assert max_seen[0] <= capacity
    assert resource.count == 0
    assert not resource.queue

