"""Hybrid-fidelity substrate guard: fluid background load.

Pins the PR's contract from three sides:

* determinism — fluid digests are bit-identical per seed, differ across
  seeds, and (the hybrid guarantee) a focus service's per-request
  digest does not move by a single bit whether the background fleet
  runs fluid, discrete, or not at all;
* expectation matching — a fluid run and a discrete run of the same
  spec agree on per-request CPU/bytes/billing exactly and on request
  volume and mean latency within sampling tolerance;
* the closed-form dispatch model — single-request dispatches reproduce
  the discrete queue-behind-busy-host arithmetic exactly.
"""

import pytest

from repro.core import MachineConfig, ResourceRequirement, build_paper_testbed
from repro.core.auth import Credentials
from repro.core.switch import SWITCH_CPU_MCYCLES
from repro.image.profiles import make_s1_web_content
from repro.sim.fluid import (
    CLASSIFY_MCYCLES,
    FluidBackgroundLoad,
    FluidCluster,
    FluidServiceSpec,
)
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.clients import ClientPool
from repro.workload.siege import Siege

SPECS = [
    FluidServiceSpec(
        name="bg-web",
        arrival_rps=400.0,
        mean_batch=50,
        slo_latency_s=0.05,
        rate_per_cpu_hour=2.0,
    ),
    FluidServiceSpec(
        name="bg-batch",
        arrival_rps=100.0,
        mean_batch=25,
        service_s=0.01,
        response_mb=0.005,
    ),
]


def fleet_run(fidelity, duration_s=4.0, seed=0, specs=SPECS, n_hosts=12, n_clusters=3):
    sim = Simulator()
    streams = RandomStreams(seed)
    base, extra = divmod(n_hosts, n_clusters)
    clusters = [
        FluidCluster(sim, f"c{i}", base + (1 if i < extra else 0))
        for i in range(n_clusters)
    ]
    load = FluidBackgroundLoad(sim, streams, clusters, list(specs), fidelity=fidelity)
    proc = sim.process(load.run(duration_s))
    report = sim.run_until_process(proc)
    return report, sim, clusters


# -- model constants ------------------------------------------------------


def test_classify_cost_pinned_to_the_switch_model():
    # The fluid batch pays the same per-request classify cost the
    # discrete ServiceSwitch charges; if one moves, both must.
    assert CLASSIFY_MCYCLES == SWITCH_CPU_MCYCLES


# -- determinism ----------------------------------------------------------


def test_fluid_digest_bit_identical_per_seed():
    first, _, _ = fleet_run("fluid", seed=11)
    second, _, _ = fleet_run("fluid", seed=11)
    assert first.digest() == second.digest()


def test_discrete_digest_bit_identical_per_seed():
    first, _, _ = fleet_run("discrete", duration_s=1.0, seed=11)
    second, _, _ = fleet_run("discrete", duration_s=1.0, seed=11)
    assert first.digest() == second.digest()


def test_fluid_digest_differs_across_seeds():
    first, _, _ = fleet_run("fluid", seed=0)
    second, _, _ = fleet_run("fluid", seed=1)
    assert first.digest() != second.digest()


def _focus_digest(background):
    """Serve a focus siege, optionally alongside a background fleet."""
    testbed = build_paper_testbed(seed=5)
    repo = testbed.add_repository()
    repo.publish(make_s1_web_content())
    testbed.agent.register_asp("acme", "supersecret")
    testbed.run(
        testbed.agent.service_creation(
            Credentials("acme", "supersecret"), "web", repo, "web-content",
            ResourceRequirement(n=2, machine=MachineConfig()),
        )
    )
    record = testbed.master.get_service("web")
    if background is not None:
        fleet = testbed.add_fluid_fleet(
            n_hosts=8,
            n_clusters=2,
            specs=[FluidServiceSpec(name="bg", arrival_rps=300.0, mean_batch=30)],
            fidelity=background,
        )
        fleet.start(duration_s=3.0)
    clients = ClientPool(testbed.lan, n=2)
    siege = Siege(
        testbed.sim, record.switch, clients,
        streams=testbed.streams, dataset_mb=0.5,
    )
    report = testbed.run(siege.run_open_loop(rate_rps=20.0, duration_s=3.0))
    monitor = record.switch.response_times
    return {
        "completed": report.completed,
        "samples": list(zip(monitor.times, monitor.values)),
        "per_node": dict(record.switch.per_node_count),
    }


def test_focus_digest_identical_across_background_fidelities():
    # The hybrid-fidelity contract: background aggregation must not move
    # a single focus float.  Background clusters share only the kernel —
    # their events interleave in the heap but never perturb focus state.
    alone = _focus_digest(None)
    assert alone["completed"] > 0
    assert _focus_digest("fluid") == alone
    assert _focus_digest("discrete") == alone


# -- expectation matching -------------------------------------------------


def test_fluid_matches_discrete_in_expectation():
    fluid, _, _ = fleet_run("fluid", duration_s=6.0, seed=2)
    discrete, _, _ = fleet_run("discrete", duration_s=6.0, seed=2)
    for spec in SPECS:
        f = fluid.services[spec.name]
        d = discrete.services[spec.name]
        # Same offered load, independent arrival draws: volumes agree
        # within sampling noise.
        assert f.requests == pytest.approx(d.requests, rel=0.15)
        # Per-request resource accounting is identical by construction.
        assert f.cpu_s / f.requests == pytest.approx(d.cpu_s / d.requests, rel=1e-9)
        assert f.mb_in / f.requests == pytest.approx(d.mb_in / d.requests, rel=1e-9)
        assert f.mb_out / f.requests == pytest.approx(d.mb_out / d.requests, rel=1e-9)
        assert f.billed == pytest.approx(
            spec.rate_per_cpu_hour * f.cpu_s / 3600.0, rel=1e-12
        )
        # Latency agrees in the mean (the fluid estimator amortizes
        # aggregate transfers and uses the closed-form host sojourn).
        assert fluid.mean_latency_s(spec.name) == pytest.approx(
            discrete.mean_latency_s(spec.name), rel=0.3
        )


def test_fluid_metrics_parity_with_discrete_names():
    """The fluid path reports the discrete switch counter (same name,
    same semantics) plus fluid-specific batch/sojourn families — and the
    instrumentation never moves the digest."""
    from repro.obs.metrics import MetricsRegistry

    sim = Simulator()
    registry = MetricsRegistry()
    sim.metrics = registry
    streams = RandomStreams(0)
    clusters = [FluidCluster(sim, f"c{i}", 4) for i in range(3)]
    load = FluidBackgroundLoad(sim, streams, clusters, list(SPECS), fidelity="fluid")
    report = sim.run_until_process(sim.process(load.run(4.0)))

    lines = registry.render().splitlines()

    def family_total(name, service):
        return sum(
            int(float(line.rsplit(" ", 1)[1]))
            for line in lines
            if line.startswith(name + "{") and f'service="{service}"' in line
        )

    for spec in SPECS:
        account = report.services[spec.name]
        assert account.requests > 0
        assert (
            family_total("soda_switch_requests_total", spec.name)
            == account.requests
        )
        assert (
            family_total("soda_fluid_batches_total", spec.name)
            == account.batches
        )
    assert any(
        line.startswith("soda_fluid_mean_sojourn_seconds{") for line in lines
    )

    # Observe, never perturb: same run without a registry, same digest.
    plain_report, _, _ = fleet_run("fluid", n_hosts=12, n_clusters=3)
    assert plain_report.digest() == report.digest()


def test_fluid_event_and_wall_budget_is_batch_level():
    fluid, fsim, _ = fleet_run("fluid", duration_s=6.0, seed=3)
    discrete, dsim, _ = fleet_run("discrete", duration_s=6.0, seed=3)
    fluid_events_per_req = fsim.events_scheduled / fluid.total_requests
    discrete_events_per_req = dsim.events_scheduled / discrete.total_requests
    # The acceptance floor is 5x; at mean batch 25-50 the real ratio is
    # over an order of magnitude.
    assert discrete_events_per_req >= 5 * fluid_events_per_req


def test_cluster_utilization_accounts_served_work():
    report, sim, clusters = fleet_run("fluid", duration_s=4.0, seed=4)
    total_cpu = sum(a.cpu_s for a in report.services.values())
    booked = sum(float(c.busy_s.sum()) for c in clusters)
    assert booked == pytest.approx(total_cpu, rel=1e-9)
    assert sum(c.total_served for c in clusters) == report.total_requests
    for cluster in clusters:
        u = cluster.utilization(report.started_at, report.finished_at)
        assert 0.0 < u < 1.0


# -- the closed-form dispatch model ---------------------------------------


def test_single_request_dispatch_is_the_discrete_chain():
    sim = Simulator()
    cluster = FluidCluster(sim, "c", n_hosts=1, workers_per_host=2)
    unit = 0.004 / 2
    # Idle host: one slice, no queueing.
    completion, sojourn = cluster.dispatch_batch(0.0, 1, 0.004)
    assert completion == unit
    assert sojourn == unit
    # Busy host: queue behind the remaining backlog.
    completion, sojourn = cluster.dispatch_batch(0.001, 1, 0.004)
    assert completion == unit + unit  # 0.001 backlog era: starts at first finish
    assert sojourn == (unit - 0.001) + unit


def test_spread_batch_unsaturated_pays_one_slice_each():
    sim = Simulator()
    cluster = FluidCluster(sim, "c", n_hosts=1, workers_per_host=1)
    # 4 requests of 1s spread over an 8s window: d=2s > u=1s, so each
    # arrival finds the host idle and pays exactly its own slice.
    completion, sojourn = cluster.dispatch_batch(8.0, 4, 1.0, window_s=8.0)
    assert sojourn == 1.0
    assert completion == pytest.approx(0.0 + 3 * 2.0 + 1.0)


def test_instantaneous_batch_serialises_on_the_host():
    sim = Simulator()
    cluster = FluidCluster(sim, "c", n_hosts=1, workers_per_host=1)
    # window 0: all 4 land at once, FIFO mean = (1+2+3+4)/4 slices.
    completion, sojourn = cluster.dispatch_batch(0.0, 4, 1.0, window_s=0.0)
    assert completion == 4.0
    assert sojourn == 2.5


def test_dispatch_round_robin_rotates_across_hosts():
    sim = Simulator()
    cluster = FluidCluster(sim, "c", n_hosts=4)
    cluster.dispatch_batch(0.0, 2, 0.004)
    cluster.dispatch_batch(0.0, 2, 0.004)
    assert cluster.served.tolist() == [1, 1, 1, 1]


# -- validation -----------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        FluidServiceSpec(name="", arrival_rps=1.0)
    with pytest.raises(ValueError):
        FluidServiceSpec(name="x", arrival_rps=0.0)
    with pytest.raises(ValueError):
        FluidServiceSpec(name="x", arrival_rps=1.0, mean_batch=0)
    with pytest.raises(ValueError):
        FluidServiceSpec(name="x", arrival_rps=1.0, service_s=0.0)
    with pytest.raises(ValueError):
        FluidServiceSpec(name="x", arrival_rps=1.0, request_mb=0.0)
    nan, inf = float("nan"), float("inf")
    for bad in (nan, inf, -1.0):
        for name in ("arrival_rps", "mean_batch", "service_s", "request_mb",
                     "response_mb", "slo_latency_s", "rate_per_cpu_hour"):
            kwargs = {"arrival_rps": 1.0, name: bad}
            with pytest.raises(ValueError):
                FluidServiceSpec(name="x", **kwargs)
    with pytest.raises(ValueError):
        FluidServiceSpec(name="x", arrival_rps=1.0, slo_latency_s=0.0)
    # The SLO stays optional; a free tariff is allowed.
    FluidServiceSpec(name="x", arrival_rps=1.0, slo_latency_s=None, rate_per_cpu_hour=0.0)


def test_load_validation():
    sim = Simulator()
    streams = RandomStreams(0)
    cluster = FluidCluster(sim, "c", n_hosts=2)
    spec = FluidServiceSpec(name="x", arrival_rps=1.0)
    with pytest.raises(ValueError):
        FluidBackgroundLoad(sim, streams, [], [spec])
    with pytest.raises(ValueError):
        FluidBackgroundLoad(sim, streams, [cluster], [])
    with pytest.raises(ValueError):
        FluidBackgroundLoad(sim, streams, [cluster], [spec], fidelity="exact")
    with pytest.raises(ValueError):
        FluidBackgroundLoad(sim, streams, [cluster], [spec, spec])
    load = FluidBackgroundLoad(sim, streams, [cluster], [spec])
    with pytest.raises(ValueError):
        sim.run_until_process(sim.process(load.run(0.0)))


def test_cluster_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        FluidCluster(sim, "c", n_hosts=0)
    with pytest.raises(ValueError):
        FluidCluster(sim, "c", n_hosts=1, workers_per_host=0)
    nan, inf = float("nan"), float("inf")
    for bad in (0.0, nan, inf):
        with pytest.raises(ValueError):
            FluidCluster(sim, "c", n_hosts=1, host_cpu_mhz=bad)
        with pytest.raises(ValueError):
            FluidCluster(sim, "c", n_hosts=1, host_nic_mbps=bad)
    cluster = FluidCluster(sim, "c", n_hosts=1)
    with pytest.raises(ValueError):
        cluster.dispatch_batch(0.0, 0, 0.004)
    for bad in (-1.0, nan, inf):
        with pytest.raises(ValueError):
            cluster.dispatch_batch(0.0, 1, 0.004, window_s=bad)
    for bad in (0.0, nan, inf):
        with pytest.raises(ValueError):
            cluster.dispatch_batch(0.0, 1, bad)
    # A rejected call leaves the ledgers untouched.
    assert cluster.busy_until.tolist() == [0.0]
    assert cluster.served.tolist() == [0]


def test_testbed_fleet_wiring():
    testbed = build_paper_testbed(seed=0)
    fleet = testbed.add_fluid_fleet(n_hosts=10, n_clusters=3)
    assert testbed.fleets == [fleet]
    assert fleet.n_hosts == 10
    assert [c.n_hosts for c in fleet.clusters] == [4, 3, 3]
    with pytest.raises(ValueError):
        testbed.add_fluid_fleet(n_hosts=2, n_clusters=3)
    with pytest.raises(ValueError):
        testbed.add_fluid_fleet(n_hosts=2, n_clusters=0)
