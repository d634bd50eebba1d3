"""Kernel heap behaviour at fleet scale.

The hybrid-fidelity substrate leans on two kernel properties that only
show up under load: ``call_soon`` callbacks must fire in FIFO order even
when hundreds of thousands share one instant (the heap breaks timestamp
ties by sequence number), and the heap must absorb 100k+ simultaneous
entries without disturbing determinism.  The high-water mark is read
through the PR 4 :class:`~repro.obs.profiler.KernelProfiler`.
"""

from repro.obs.profiler import KernelProfiler
from repro.sim.kernel import Simulator

N_CALLBACKS = 100_000


def test_call_soon_fires_in_fifo_order_at_scale():
    sim = Simulator()
    order = []
    for i in range(N_CALLBACKS):
        sim.call_soon(lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(N_CALLBACKS))


def test_call_soon_fifo_when_enqueued_from_callbacks():
    # Callbacks scheduled *by* callbacks at the same instant still fire
    # after everything already enqueued — sequence order, not LIFO.
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.call_soon(lambda: order.append("nested"))

    sim.call_soon(first)
    sim.call_soon(lambda: order.append("second"))
    sim.run()
    assert order == ["first", "second", "nested"]


def test_call_soon_runs_before_same_instant_timeouts():
    # Lane callbacks fire ahead of heap events at one timestamp.
    sim = Simulator()
    order = []

    def proc(sim):
        yield sim.timeout(1.0)
        sim.call_soon(lambda: order.append("urgent"))
        ev = sim.timeout(0.0)
        ev.callbacks.append(lambda _ev: order.append("normal"))
        yield ev

    sim.run_until_process(sim.process(proc(sim)))
    assert order == ["urgent", "normal"]


def test_heap_absorbs_simultaneous_timeouts_deterministically():
    def run_once():
        sim = Simulator()
        fired = []
        for i in range(N_CALLBACKS):
            ev = sim.timeout(1.0)
            ev.callbacks.append(lambda _ev, i=i: fired.append(i))
        sim.run()
        return fired, sim.events_scheduled

    first, scheduled_a = run_once()
    second, scheduled_b = run_once()
    assert first == list(range(N_CALLBACKS))
    assert first == second
    assert scheduled_a == scheduled_b >= N_CALLBACKS


def test_profiler_reports_heap_high_water_at_scale():
    sim = Simulator()
    profiler = KernelProfiler().install(sim)
    for _ in range(N_CALLBACKS):
        sim.timeout(1.0)
    sim.run()
    assert profiler.heap_high_water >= N_CALLBACKS
    assert profiler.snapshot()["heap_high_water"] == profiler.heap_high_water


def test_events_scheduled_counts_every_heap_entry():
    sim = Simulator()
    assert sim.events_scheduled == 0
    sim.timeout(1.0)
    sim.call_soon(lambda: None)

    def proc(sim):
        yield sim.timeout(0.5)

    sim.process(proc(sim))
    before = sim.events_scheduled
    assert before >= 3  # timeout + callback + process bootstrap
    sim.run()
    assert sim.events_scheduled >= before
