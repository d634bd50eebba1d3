"""Federation-wide observability: propagation, merge rules, profiler.

Pins the PR's three contracts end-to-end on a real 4-cluster federated
run plus unit coverage of the merge/attribution machinery:

* **observe, never perturb** — federated digests bit-identical with the
  full stack on vs off, at every worker count;
* **layout-blind reassembly** — the merged span payload is byte-identical
  whatever the process layout, and every ``geo_request`` trace tiles
  end-to-end to 1e-9 out of wan_transfer / pending_wait / remote_service
  segments whose WAN legs match latency + transfer exactly;
* **critical-path attribution** — the epoch profiler's books balance
  (busy + stall = n_workers * critical path) and round-trip through the
  ``soda-fedprofile/1`` document and the multi-lane Chrome export.
"""

import json
import pickle

import pytest

from repro.obs.federation import (
    FEDPROFILE_FORMAT,
    FederatedMetrics,
    FederationObservability,
    FederationProfiler,
    TraceContext,
    merge_shard_spans,
    trace_completeness,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim.parallel import run_federation
from tests.sim.test_parallel import build_topology

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def fed_runs():
    """One obs-off and one obs-on run per worker count (module-shared)."""
    topology = build_topology()
    runs = {}
    for n_workers in WORKER_COUNTS:
        plain = run_federation(topology, duration_s=1.5, seed=11, n_workers=n_workers)
        observed = run_federation(
            topology, duration_s=1.5, seed=11, n_workers=n_workers,
            obs=FederationObservability(),
        )
        runs[n_workers] = (plain, observed)
    return runs


# -- observe, never perturb --------------------------------------------------


def test_obs_digest_parity_at_every_worker_count(fed_runs):
    for n_workers, (plain, observed) in fed_runs.items():
        assert observed.digest_sha == plain.digest_sha, f"{n_workers} workers"
        assert observed.digests == plain.digests
        assert plain.observability is None
        assert observed.observability is not None


def test_obs_off_spec_is_equivalent_to_none():
    topology = build_topology()
    disabled = FederationObservability(tracing=False, metrics=False, profile=False)
    assert not disabled.enabled
    run = run_federation(topology, duration_s=0.5, seed=0, obs=disabled)
    assert run.observability is None


# -- layout-blind trace reassembly -------------------------------------------


def test_merged_spans_byte_identical_across_worker_counts(fed_runs):
    payloads = {
        n: json.dumps(observed.observability.spans, sort_keys=True)
        for n, (_, observed) in fed_runs.items()
    }
    reference = payloads[1]
    assert all(payload == reference for payload in payloads.values())


def test_span_conservation(fed_runs):
    fed = fed_runs[1][1].observability
    stats = fed.trace_stats()
    assert stats["spans"] > 0 and stats["traces"] > 0
    assert stats["orphan_parents"] == 0
    assert stats["open_spans"] == 0
    assert fed.spans_dropped == 0


def test_geo_traces_tile_to_wan_segments(fed_runs):
    """Every geo_request root is exactly tiled by its children, and every
    wan_transfer's duration is its recorded latency + transfer time."""
    fed = fed_runs[1][1].observability
    by_trace = {}
    for span in fed.spans:
        by_trace.setdefault(span["trace"], []).append(span)
    geo_traces = [
        spans for spans in by_trace.values()
        if any(s["name"] == "geo_request" for s in spans)
    ]
    assert geo_traces, "no geo_request traces in the run"
    for spans in geo_traces:
        root = next(s for s in spans if s["parent"] is None)
        assert root["name"] == "geo_request"
        children = sorted(
            (s for s in spans if s["parent"] is not None),
            key=lambda s: s["start"],
        )
        assert children, "remote geo_request with no segments"
        # Contiguous tiling: child k ends where child k+1 starts, and the
        # chain covers [root.start, root.end].
        assert children[0]["start"] == pytest.approx(root["start"], abs=1e-9)
        for before, after in zip(children, children[1:]):
            assert after["start"] == pytest.approx(before["end"], abs=1e-9)
        assert children[-1]["end"] == pytest.approx(root["end"], abs=1e-9)
        for segment in children:
            if segment["name"] == "wan_transfer":
                modeled = (
                    segment["attrs"]["latency_s"] + segment["attrs"]["transfer_s"]
                )
                assert segment["end"] - segment["start"] == pytest.approx(
                    modeled, abs=1e-12
                )


def test_trace_context_is_picklable_and_frozen():
    ctx = TraceContext("east:00000001", "east:00000002", "east")
    assert pickle.loads(pickle.dumps(ctx)) == ctx
    with pytest.raises(AttributeError):
        ctx.origin = "west"


def test_merge_shard_spans_orders_by_trace_then_span():
    merged = merge_shard_spans({
        "b": [{"trace": "b:00000001", "span": "b:00000002", "parent": None}],
        "a": [
            {"trace": "a:00000010", "span": "a:00000011", "parent": None},
            {"trace": "a:00000001", "span": "a:00000003", "parent": "a:09"},
            {"trace": "a:00000001", "span": "a:00000002", "parent": None},
        ],
    })
    assert [(s["trace"], s["span"]) for s in merged] == [
        ("a:00000001", "a:00000002"),
        ("a:00000001", "a:00000003"),
        ("a:00000010", "a:00000011"),
        ("b:00000001", "b:00000002"),
    ]
    stats = trace_completeness(merged)
    assert stats == {
        "spans": 4, "traces": 3, "orphan_parents": 1, "open_spans": 4,
    }


# -- metrics federation -------------------------------------------------------


def _dump(registry):
    return registry.dump()


def test_federated_metrics_merge_rules():
    east, west = MetricsRegistry(), MetricsRegistry()
    for registry, n in ((east, 3), (west, 5)):
        counter = registry.counter("reqs_total", "Requests.", ("kind",))
        counter.inc(n, kind="geo")
        registry.gauge("queue_depth", "Depth.").set(float(n))
        histogram = registry.histogram(
            "latency_seconds", "Latency.", buckets=(0.1, 1.0)
        )
        histogram.observe(0.05)
        histogram.observe(float(n))

    fed = FederatedMetrics()
    fed.update("east", _dump(east))
    fed.update("west", _dump(west))
    fed.note_epoch(7, 42)
    fed.note_barrier_wait({"0": 0.25})
    assert fed.shards == ["east", "west"]

    merged = MetricsRegistry()
    fed.merge_into(merged)
    text = merged.render()
    # Counters keep their per-shard children under the shard label.
    assert 'reqs_total{shard="east",kind="geo"} 3' in text
    assert 'reqs_total{shard="west",kind="geo"} 5' in text
    assert 'queue_depth{shard="east"} 3' in text
    assert 'queue_depth{shard="west"} 5' in text
    # Histogram buckets add element-wise within each shard child.
    assert 'latency_seconds_bucket{shard="west",le="0.1"} 1' in text
    assert 'latency_seconds_bucket{shard="west",le="+Inf"} 2' in text
    assert 'latency_seconds_count{shard="west"} 2' in text
    assert "soda_federation_epoch 7" in text
    assert "soda_federation_messages_exchanged 42" in text
    assert 'soda_federation_barrier_wait_seconds{worker="0"} 0.25' in text
    # render() is the same exposition from a throwaway registry.
    assert fed.render() == text


def test_federated_metrics_counter_sum_rule():
    # Two snapshots from the *same* merge target: counters inc (sum),
    # gauges last-write — merging twice doubles counters, not gauges.
    registry = MetricsRegistry()
    registry.counter("c_total", "C.").inc(2)
    registry.gauge("g", "G.").set(9.0)
    fed = FederatedMetrics()
    fed.update("east", _dump(registry))
    merged = MetricsRegistry()
    fed.merge_into(merged)
    fed.merge_into(merged)
    text = merged.render()
    assert 'c_total{shard="east"} 4' in text
    assert 'g{shard="east"} 9' in text


def test_run_metrics_include_shard_and_federation_families(fed_runs):
    fed = fed_runs[2][1].observability
    text = fed.metrics.render()
    assert 'soda_shard_messages_total{shard="east",direction="sent"' in text
    assert 'soda_geo_requests_total{shard="west",scope="remote"}' in text
    assert "soda_federation_epoch" in text
    assert "soda_federation_messages_exchanged" in text
    assert 'soda_federation_barrier_wait_seconds{worker="0"}' in text
    # The broker (east) recorded its placement decisions.
    assert 'soda_broker_placements_total{shard="east"' in text


# -- the epoch critical-path profiler -----------------------------------------


def _profiler():
    profiler = FederationProfiler(0.05, {"east": 0, "north": 0, "west": 1})
    profiler.record_epoch({"east": 0.2, "north": 0.1, "west": 0.1})
    profiler.record_epoch({"east": 0.1, "north": 0.1, "west": 0.5})
    return profiler


def test_profiler_attribution_books_balance():
    profiler = _profiler()
    # Epoch 1: worker0 = 0.3, worker1 = 0.1 -> slowest 0.3.
    # Epoch 2: worker0 = 0.2, worker1 = 0.5 -> slowest 0.5.
    assert profiler.critical_path_s == pytest.approx(0.8)
    assert profiler.total_busy_s == pytest.approx(1.1)
    assert profiler.worker_totals() == pytest.approx([0.5, 0.6])
    assert profiler.barrier_wait_by_worker() == pytest.approx([0.3, 0.2])
    assert profiler.achievable_speedup == pytest.approx(1.1 / 0.8)
    # busy + stall tiles the dedicated-core wall on every worker.
    assert (
        profiler.total_busy_s + profiler.barrier_wait_s
        == pytest.approx(profiler.n_workers * profiler.critical_path_s)
    )
    assert profiler.shard_totals() == {
        "east": pytest.approx(0.3),
        "north": pytest.approx(0.2),
        "west": pytest.approx(0.6),
    }


def test_profiler_render_and_payload_round_trip():
    profiler = _profiler()
    text = profiler.render()
    assert "3 shards on 2 workers, 2 epochs" in text
    assert "slowest shard: west" in text
    payload = profiler.to_payload()
    assert payload["format"] == FEDPROFILE_FORMAT
    clone = FederationProfiler.from_payload(json.loads(json.dumps(payload)))
    assert clone.render() == text
    with pytest.raises(ValueError, match="soda-fedprofile"):
        FederationProfiler.from_payload({"format": "bogus"})


def test_profiler_validation():
    with pytest.raises(ValueError, match="positive"):
        FederationProfiler(0.0, {"east": 0})
    with pytest.raises(ValueError, match="at least one shard"):
        FederationProfiler(0.05, {})
    profiler = _profiler()
    with pytest.raises(ValueError, match="unknown shards"):
        profiler.record_epoch({"mars": 1.0})
    assert FederationProfiler(0.05, {"east": 0}).render() == "(no epochs profiled)"


def test_profiler_chrome_trace_lanes_and_barriers():
    trace = _profiler().chrome_trace()
    events = trace["traceEvents"]
    names = {
        e["args"]["name"] for e in events if e["ph"] == "M" and e["tid"] > 0
    }
    assert names == {"shard:east [w0]", "shard:north [w0]", "shard:west [w1]"}
    compute = [e for e in events if e["ph"] == "X"]
    assert len(compute) == 6  # 3 shards x 2 epochs
    barriers = [e for e in events if e["ph"] == "i"]
    assert [e["ts"] for e in barriers] == [pytest.approx(0.3e6), pytest.approx(0.8e6)]
    # Shards sharing worker 0 stack sequentially inside each epoch.
    east, north = (
        next(e for e in compute if e["tid"] == tid and e["args"]["epoch"] == 1)
        for tid in (1, 2)
    )
    assert north["ts"] == pytest.approx(east["ts"] + east["dur"])


def test_run_profiler_epochs_match_run(fed_runs):
    for n_workers, (plain, observed) in fed_runs.items():
        profiler = observed.observability.profiler
        assert profiler.n_epochs == plain.epochs
        assert profiler.n_workers == observed.n_workers
        # One barrier ledger: the run's figures are the profiler's.
        assert observed.critical_path_s == profiler.critical_path_s
        assert observed.worker_busy_s == profiler.worker_totals()
        assert observed.barrier_stall_fraction == profiler.stall_fraction
        if n_workers == 1:
            # Serial layout: every shard on worker 0, zero stall by
            # construction.
            assert profiler.barrier_wait_s == 0.0
            assert len(observed.worker_busy_s) == 1
            assert observed.barrier_stall_fraction == 0.0
            assert 0 < observed.critical_path_s <= observed.wall_s
        kernel = observed.observability.kernel_profiles
        assert set(kernel) == {"east", "north", "south", "west"}
        assert all(p["events_total"] > 0 for p in kernel.values())


def test_span_capacity_is_honoured_and_counted():
    topology = build_topology()
    run = run_federation(
        topology, duration_s=1.5, seed=11,
        obs=FederationObservability(span_capacity=5, metrics=False, profile=False),
    )
    fed = run.observability
    assert len(fed.spans) <= 5 * len(topology.clusters)
    assert fed.spans_dropped > 0
    with pytest.raises(ValueError, match="span_capacity"):
        FederationObservability(span_capacity=0)
