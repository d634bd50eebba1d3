"""Tests for the kernel profiler and the kernel's profiled dispatch."""

from repro.obs.profiler import KernelProfiler, profiler_of
from repro.sim.kernel import Simulator


def test_record_aggregates_and_collapses_instance_digits():
    profiler = KernelProfiler()
    profiler.record("resume:siege-arrival-3", 0.25)
    profiler.record("resume:siege-arrival-17", 0.75)
    profiler.record("call_soon:LAN._flush", 0.5)
    assert profiler.events_total == 3
    assert profiler.wall_s_total == 1.5
    site = profiler.sites["resume:siege-arrival-N"]
    assert site.events == 2 and site.wall_s == 1.0
    assert "call_soon:LAN._flush" in profiler.sites


def test_collapse_can_be_disabled():
    profiler = KernelProfiler(collapse_instances=False)
    profiler.record("resume:worker-1", 0.1)
    profiler.record("resume:worker-2", 0.1)
    assert set(profiler.sites) == {"resume:worker-1", "resume:worker-2"}


def test_heap_high_water_and_clear():
    profiler = KernelProfiler()
    for depth in (3, 9, 5):
        profiler.note_heap_depth(depth)
    assert profiler.heap_high_water == 9
    profiler.record("x", 0.1)
    profiler.reset()
    assert profiler.events_total == 0
    assert profiler.heap_high_water == 0
    assert not profiler.sites


def test_top_sites_and_render():
    profiler = KernelProfiler()
    assert profiler.render() == "(no events profiled)"
    profiler.record("narrow", 0.1)
    profiler.record("wide", 0.9)
    assert [site for site, _ in profiler.top_sites()] == ["wide", "narrow"]
    assert [site for site, _ in profiler.top_sites(1)] == ["wide"]
    text = profiler.render(top=5)
    assert "kernel profile: 2 events" in text
    assert "wide" in text and "narrow" in text
    snap = profiler.snapshot()
    assert snap["events_total"] == 2
    assert snap["sites"]["wide"]["events"] == 1


def _workload(sim, log):
    def ticker(sim):
        for _ in range(3):
            yield sim.timeout(1.0)
            log.append(sim.now)

    def nested(sim):
        value = yield sim.process(ticker(sim), name="inner")
        log.append(("done", sim.now, value))

    sim.process(nested(sim), name="outer")


def test_profiled_run_matches_unprofiled_results():
    plain_log = []
    sim = Simulator()
    _workload(sim, plain_log)
    sim.run()

    profiled_log = []
    sim2 = Simulator()
    profiler = KernelProfiler().install(sim2)
    assert profiler_of(sim2) is profiler
    _workload(sim2, profiled_log)
    sim2.run()

    assert profiled_log == plain_log
    assert sim2.now == sim.now
    assert profiler.events_total > 0
    assert profiler.heap_high_water >= 1
    assert any(site.startswith("resume:") for site in profiler.sites)


def test_profiled_run_until_process():
    sim = Simulator()
    profiler = KernelProfiler()
    sim.set_profiler(profiler)

    def job(sim):
        yield sim.timeout(2.0)
        return 42

    process = sim.process(job(sim), name="job")
    assert sim.run_until_process(process) == 42
    assert sim.now == 2.0
    assert profiler.events_total > 0


def test_install_accumulates_across_run_resumptions():
    """Epoch-style runs resume one sim with run(until=...) many times;
    install() must keep accumulating unless reset is requested."""
    sim = Simulator()
    profiler = KernelProfiler().install(sim)

    def forever(sim):
        while True:
            yield sim.timeout(1.0)

    sim.process(forever(sim), name="loop")
    sim.run(until=3.0)
    after_first = profiler.events_total
    assert after_first > 0
    # A re-install between epochs (same sim or the next shard) keeps
    # the statistics; only reset=True clears them.
    profiler.install(sim)
    sim.run(until=6.0)
    assert profiler.events_total > after_first
    profiler.install(sim, reset=True)
    assert profiler.events_total == 0
    sim.run(until=9.0)
    assert 0 < profiler.events_total <= after_first



def test_profiled_run_with_until_clamp():
    sim = Simulator()
    sim.set_profiler(KernelProfiler())

    def forever(sim):
        while True:
            yield sim.timeout(1.0)

    sim.process(forever(sim), name="loop")
    sim.run(until=5.5)
    assert sim.now == 5.5
