"""Performance benchmarks of the reproduction's own substrate.

Unlike the table/figure benches (which check fidelity), these measure
the simulator's wall-clock cost: event-kernel throughput, LAN fluid
recomputation under flow churn, scheduler quantum loops, and a full
service-creation round trip.  Regressions here make every experiment
slower.

The workloads live in :mod:`repro.bench` so this pytest-benchmark suite
and the ``python -m repro.bench`` baseline tracker measure the exact
same work.  ``BENCH_simulator.json`` in the repo root holds the tracked
trajectory; compare a fresh run against it with::

    python -m repro.bench --dry-run --compare
"""

from repro.bench import (
    bench_fleet_scale_throughput,
    bench_kernel_event_throughput,
    bench_lan_flow_churn,
    bench_scheduler_quantum_loop,
    bench_service_creation_roundtrip,
    bench_switch_dispatch_throughput,
)


def test_bench_kernel_event_throughput(benchmark):
    """Process 100k timeout events."""
    now = benchmark(bench_kernel_event_throughput)
    assert now == 10_000.0


def test_bench_lan_flow_churn(benchmark):
    """2000 staggered flows through the max-min fair allocator."""
    now = benchmark(bench_lan_flow_churn)
    assert now > 0


def test_bench_scheduler_quantum_loop(benchmark):
    """60 simulated seconds of stride scheduling (6000 quanta)."""
    horizon = benchmark(bench_scheduler_quantum_loop)
    assert abs(horizon - 60.0) < 0.011  # 6000 quanta of 10 ms


def test_bench_service_creation_roundtrip(benchmark):
    """Full create -> teardown through Agent/Master/Daemon/UML."""
    now = benchmark(bench_service_creation_roundtrip)
    assert now > 0


def test_bench_fleet_scale_throughput(benchmark):
    """1M+ background requests over 1000 hosts, fluid vs discrete.

    The composite is heavy (two fleet runs per round), so it runs once —
    pytest-benchmark still records the wall clock, and the acceptance
    ratios are asserted on the returned fields.
    """
    result = benchmark.pedantic(bench_fleet_scale_throughput, rounds=1, iterations=1)
    assert result["fluid_requests"] >= 1_000_000
    assert result["event_reduction_x"] >= 5.0
    assert result["wall_speedup_x"] >= 5.0


def test_bench_switch_dispatch_throughput(benchmark):
    """Bursty arrivals through one switch on the plain serving path."""
    result = benchmark.pedantic(
        bench_switch_dispatch_throughput, rounds=1, iterations=1
    )
    # 600 requests x 2 fewer than the committed baseline entries' 12902:
    # the back-end serves inside the request's process, so no child
    # Process (bootstrap entry + completion event) per request.
    assert result["events"] == 11702
