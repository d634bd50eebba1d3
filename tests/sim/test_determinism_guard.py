"""Determinism guard: same seed, same machine, bit-identical output.

These tests pin the reproduction's core guarantee — a seeded run is a
pure function of its inputs.  They exercise three full end-to-end paths
(the Figure 4 load-balancing experiment, the SLA billing scenario, and
the chaos fault-injection scenario),
run each twice with the same seed, and compare every float bit-for-bit
(``==``, never ``approx``).  Any hidden nondeterminism introduced by
substrate changes (set iteration order, batched recomputation, direct
resume paths, idle-quantum batching) fails here before it can silently
shift experiment numbers.

The CPU scheduler traces (Figure 5's groups, and four groups with
unequal tickets) are pinned to fixed digests rather than compared run
against run, so a change to the quantum loop that moves any float
fails here even if it is deterministic.  So are the
Figure 4 run at seed 0 and the SLA scenario at seed 7, the two request
driver paths (Siege's open loop and its trace replay).  So are two
fluid fleet runs (report plus host ledgers) and a federated run at one
and two workers, which pins the fluid host dispatch arithmetic.

The observability guard extends the same guarantee across the
instrumentation boundary: with tracing + metrics + profiling fully
enabled, both paths must stay bit-identical to a run with the stack
disabled — `repro.obs` observes, never perturbs.  What the hub itself
emits for one chaos run (exposition and spans) is pinned to fixed
digests, so a cheaper instrumentation site cannot change it either.
"""

import hashlib
import json

import repro.experiments.fig4_loadbalance as fig4
from repro.faults.chaos import run_chaos_scenario
from repro.host.scheduler import (
    ProportionalShareScheduler,
    TaskGroup,
    VanillaLinuxScheduler,
    WorkloadSpec,
    figure5_groups,
)
from repro.market import fast_params, run_market_scenario
from repro.obs import FederationObservability, Observability
from repro.scenario.library import get_scenario
from repro.scenario.run import run_scenario
from repro.sim import RandomStreams
from repro.sim.fluid import FluidServiceSpec
from repro.sim.parallel import run_federation
from tests.sim.test_fluid import SPECS as FLUID_SPECS
from tests.sim.test_fluid import fleet_run as fluid_fleet_run
from tests.sim.test_parallel import build_topology as build_federation
from tests.sla.test_e2e import run_sla_scenario


def _digest(result):
    """Everything observable about an ExperimentResult, exact floats."""
    return {
        "id": result.experiment_id,
        "rows": [tuple(row) for row in result.rows],
        "series": {
            name: (tuple(xs), tuple(ys))
            for name, (xs, ys) in sorted(result.series.items())
        },
        "comparisons": [
            (c.name, c.paper, c.measured, c.tolerance_rel)
            for c in result.comparisons
        ],
        "rendered": result.render(),
    }


def test_fig4_loadbalance_bit_identical_across_runs():
    first = _digest(fig4.run(seed=0, fast=True))
    second = _digest(fig4.run(seed=0, fast=True))
    assert first == second


def test_fig4_loadbalance_bit_identical_nonzero_seed():
    first = _digest(fig4.run(seed=1234, fast=True))
    second = _digest(fig4.run(seed=1234, fast=True))
    assert first == second


def _sla_digest(seed):
    # run_sla_scenario returns (testbed, records, monitors, autoscaler,
    # summaries, digest); only the digest is value-comparable.
    return run_sla_scenario(seed=seed)[5]


def test_sla_scenario_bit_identical_across_runs():
    assert _sla_digest(7) == _sla_digest(7)


# sha256 of json.dumps(digest, sort_keys=True, default=repr): Figure 4
# --fast at seed 0 (Siege's open loop on the plain switch path) and the
# SLA scenario at seed 7 (trace replay, shedder, autoscaler).
FIG4_DIGEST_SHA = "a60c74e1b4c071e00fe3b5159bd1d0864c40efbe4e352cddd5e814429cf56555"
SLA_DIGEST_SHA = "980e6e2544f72890af1cdddda40e18ae43bcc3d0651463335db79df417a1556b"


def _json_sha(digest):
    return hashlib.sha256(
        json.dumps(digest, sort_keys=True, default=repr).encode()
    ).hexdigest()


def test_fig4_digest_pinned():
    assert _json_sha(_digest(fig4.run(seed=0, fast=True))) == FIG4_DIGEST_SHA


def test_sla_scenario_digest_pinned():
    assert _json_sha(_sla_digest(7)) == SLA_DIGEST_SHA


def test_different_seeds_actually_differ():
    # Guard the guard: if seeding were ignored, the tests above would
    # pass vacuously.  Distinct seeds must change at least something.
    assert _sla_digest(1) != _sla_digest(2)


# -- observability must observe, never perturb -------------------------------


def test_fig4_digest_unchanged_by_full_observability():
    plain = _digest(fig4.run(seed=0, fast=True))
    hub = Observability(tracing=True, metrics=True, profile=True)
    with hub.activate():
        observed = _digest(fig4.run(seed=0, fast=True))
    assert plain == observed
    # The instrumentation actually ran — it just didn't perturb.
    assert len(hub.tracer.spans()) > 0
    assert "soda_switch_requests_total" in hub.prometheus()
    assert hub.profiler.events_total > 0


def test_fig4_digest_unchanged_by_observability_nonzero_seed():
    plain = _digest(fig4.run(seed=1234, fast=True))
    with Observability(tracing=True, metrics=True).activate():
        observed = _digest(fig4.run(seed=1234, fast=True))
    assert plain == observed


def test_sla_digest_unchanged_by_full_observability():
    plain = _sla_digest(7)
    hub = Observability(tracing=True, metrics=True, profile=True)
    with hub.activate():
        observed = _sla_digest(7)
    assert plain == observed
    assert len(hub.tracer.spans()) > 0


# -- federated runs join the observability contract ---------------------------


def test_federated_digest_unchanged_by_full_observability():
    """Cross-shard tracing, metrics federation and the epoch profiler
    must not move a federated digest at any worker count — spans ride
    messages as inert payload and profilers only read process_time."""
    topology = build_federation()
    for n_workers in (1, 2, 4):
        plain = run_federation(
            topology, duration_s=1.0, seed=5, n_workers=n_workers
        )
        observed = run_federation(
            topology, duration_s=1.0, seed=5, n_workers=n_workers,
            obs=FederationObservability(),
        )
        assert observed.digest_sha == plain.digest_sha
        assert observed.digests == plain.digests
        # The federation stack actually observed — it just didn't perturb.
        fed = observed.observability
        assert len(fed.spans) > 0
        assert "soda_shard_messages_total" in fed.metrics.render()
        assert fed.profiler.n_epochs == plain.epochs


# -- fault injection joins the determinism contract ---------------------------


def _chaos_digest(seed):
    return run_chaos_scenario(seed=seed, duration_s=30.0).digest()


def test_chaos_digest_bit_identical_across_runs():
    # Same seed drives the same campaign, the same failovers, the same
    # watchdog reboots — every fault-log entry and outcome identical.
    assert _chaos_digest(0) == _chaos_digest(0)


def test_chaos_different_seeds_actually_differ():
    assert _chaos_digest(1) != _chaos_digest(2)


def test_chaos_digest_unchanged_by_full_observability():
    plain = _chaos_digest(0)
    hub = Observability(tracing=True, metrics=True, profile=True)
    with hub.activate():
        observed = _chaos_digest(0)
    assert plain == observed
    # Fault spans and counters were actually emitted — without
    # perturbing a single injection or retry instant.
    assert len(hub.tracer.spans()) > 0
    assert "soda_faults_injected_total" in hub.prometheus()


# What the hub emits for chaos seed 0 (30 s) under tracing + metrics:
# sha256 of the Prometheus exposition (146 lines) and of every span's
# to_dict() (4389 spans).  A change to an instrumentation site that adds,
# drops or reorders a series or a span — e.g. binding metric children
# eagerly, which adds zero-valued series — changes them.
CHAOS_HUB_PROMETHEUS_SHA = "17b5ff59be248e165e7583bc323a4d45f3061d34b843210aa6c2f09d98ef8d30"
CHAOS_HUB_SPANS_SHA = "8834cdb1cff6cc691553722dddae17ba032e807c2837e60f552d815826d53885"


def test_chaos_hub_exposition_and_spans_pinned():
    hub = Observability(tracing=True, metrics=True)
    with hub.activate():
        run_chaos_scenario(seed=0, duration_s=30.0)
    exposition = hub.prometheus()
    spans = [s.to_dict() for s in hub.tracer.spans()]
    assert len(exposition.splitlines()) == 146
    assert len(spans) == 4389
    assert hashlib.sha256(exposition.encode()).hexdigest() == CHAOS_HUB_PROMETHEUS_SHA
    assert (
        hashlib.sha256(json.dumps(spans, sort_keys=True).encode()).hexdigest()
        == CHAOS_HUB_SPANS_SHA
    )


# -- the market ablation joins the determinism contract -----------------------

_MARKET_PARAMS = fast_params(duration_s=120.0, n_tenants=50)


def _market_digest(seed, policy="market"):
    return run_market_scenario(
        seed=seed, policy=policy, params=_MARKET_PARAMS
    ).digest()


def test_market_digest_bit_identical_across_runs():
    # Same seed drives the same tenants, arrivals, repricing path,
    # admissions, preemptions and invoices — every float identical.
    assert _market_digest(0) == _market_digest(0)
    assert _market_digest(0, "fcfs") == _market_digest(0, "fcfs")


def test_market_different_seeds_actually_differ():
    assert _market_digest(3) != _market_digest(4)


# -- the scenario layer joins the determinism contract ------------------------


def _scenario_digest(name, seed, policy="sla"):
    return run_scenario(
        get_scenario(name, duration_s=15.0), seed=seed, policy=policy
    ).digest()


def test_scenario_flash_crowd_digest_bit_identical_across_runs():
    # Same seed compiles the same flash-crowd trace and replays it to
    # the same outcomes — every arrival instant, response float and
    # shedding decision identical.
    assert _scenario_digest("flash-crowd", 0) == _scenario_digest("flash-crowd", 0)


def test_scenario_heavy_tail_digest_bit_identical_across_runs():
    # Heavy-tailed sizes stress the size-sampler streams; the digest
    # (which embeds every exact dataset draw via the compiled sha and
    # every response float) must still be a pure function of the seed.
    assert _scenario_digest("heavy-tail", 0) == _scenario_digest("heavy-tail", 0)
    assert (
        _scenario_digest("heavy-tail", 0, "market")
        == _scenario_digest("heavy-tail", 0, "market")
    )


def test_scenario_different_seeds_actually_differ():
    assert _scenario_digest("flash-crowd", 1) != _scenario_digest("flash-crowd", 2)
    assert _scenario_digest("heavy-tail", 1) != _scenario_digest("heavy-tail", 2)


def test_scenario_digest_unchanged_by_full_observability():
    plain = _scenario_digest("flash-crowd", 0)
    hub = Observability(tracing=True, metrics=True, profile=True)
    with hub.activate():
        observed = _scenario_digest("flash-crowd", 0)
    assert plain == observed
    assert len(hub.tracer.spans()) > 0


# Digests of both Figure 5 scheduler traces (figure5 groups, seed 7,
# 30 s).  A change to the quantum loop that alters any time-axis or
# cumulative-share float changes them.
SCHEDULER_TRACE_DIGESTS = {
    VanillaLinuxScheduler: "b5f9ddf463a51324d8139c8a794eeb8090c1138a1d4bc9b73d8f01941d9f519f",
    ProportionalShareScheduler: "5a54641a4ea5682f35e8b217941fe51e954111d7e40b05df0bc5a980a026dcfe",
}


# The same digests over four groups with unequal tickets (seed 7, 120 s):
# groups that are never idle next to ones that block every quantum.
UNEQUAL_TICKETS_TRACE_DIGESTS = {
    VanillaLinuxScheduler: "c69bb6488b8f207851d2c718e029b44e613ca6ab7550c51c0a1432d4defb1104",
    ProportionalShareScheduler: "b5867c55b91a7d76cd7ba5b2d776f114f20a663f56fae0ba6f70972aebfc36f2",
}


def unequal_tickets_groups():
    return [
        TaskGroup("web", [WorkloadSpec.web_server()] * 3, tickets=3.0),
        TaskGroup("comp", [WorkloadSpec.cpu_hog()] * 2, tickets=2.0),
        TaskGroup("log", [WorkloadSpec.disk_logger()] * 2, tickets=1.0),
        TaskGroup("batch", [WorkloadSpec.cpu_hog()] * 4, tickets=1.0),
    ]


def _scheduler_digest(cls, make_groups=figure5_groups, horizon_s=30.0):
    trace = cls(make_groups(), RandomStreams(seed=7)).run(horizon_s)
    return hashlib.sha256(
        repr(trace.group_names).encode() + trace.times.tobytes() + trace.cumulative.tobytes()
    ).hexdigest()


def test_scheduler_trace_digests_pinned():
    for cls, expected in SCHEDULER_TRACE_DIGESTS.items():
        assert _scheduler_digest(cls) == expected, cls.__name__


def test_unequal_tickets_scheduler_trace_digests_pinned():
    for cls, expected in UNEQUAL_TICKETS_TRACE_DIGESTS.items():
        assert _scheduler_digest(cls, unequal_tickets_groups, 120.0) == expected, cls.__name__


# -- fluid host dispatch is pinned to fixed digests ----------------------------

# A saturating service on 150-host clusters: batches larger than the
# fleet, every host backlogged, per-batch sums past NumPy's 128-element
# pairwise block — next to the light SPECS mix that leaves hosts idle.
FLUID_HOT_SPEC = FluidServiceSpec(
    name="bg-hot", arrival_rps=49500.0, mean_batch=2000, service_s=0.02,
    slo_latency_s=0.1,
)

# sha256 of a 3-cluster fluid run (seed 0, 4 s) per (hosts, specs added
# to SPECS): the FluidReport digest plus every cluster's three host
# ledgers and rotation cursor.  A change to the dispatch arithmetic that
# moves any float changes them.
FLUID_DIGESTS = [
    (12, (), "e200d40d63a54c3d58b4c110dbc984dc41092ca84ef477854222c1508ecda07f"),
    (450, (FLUID_HOT_SPEC,), "a10b1a04bb8134a49f12bb7dcdf84169f91cdd46c8c77b025ac156f4fd2b5fbe"),
]
# run_federation digest_sha of the parallel-test topology (seed 5, 1 s).
FEDERATION_DIGEST_SHA = "6eb3d27aeb95e3e9d1ca048b4352a18102ea65eb84e7832787288124b332f2b7"


def _fluid_sha(n_hosts, extra_specs):
    specs = FLUID_SPECS + list(extra_specs)
    report, _, clusters = fluid_fleet_run("fluid", seed=0, specs=specs, n_hosts=n_hosts)
    sha = hashlib.sha256(repr(report.digest()).encode())
    for cluster in clusters:
        sha.update(
            cluster.busy_until.tobytes() + cluster.served.tobytes()
            + cluster.busy_s.tobytes() + repr(cluster._cursor).encode()
        )
    return sha.hexdigest()


def test_fluid_fleet_digests_pinned():
    for n_hosts, extra_specs, expected in FLUID_DIGESTS:
        assert _fluid_sha(n_hosts, extra_specs) == expected, n_hosts


def test_federation_digest_pinned():
    topology = build_federation()
    for n_workers in (1, 2):
        run = run_federation(topology, duration_s=1.0, seed=5, n_workers=n_workers)
        assert run.digest_sha == FEDERATION_DIGEST_SHA, n_workers
