"""Tests for the parallel federated simulator (sub-kernels + epochs)."""

import math
import multiprocessing

import pytest

from repro.sim import Simulator
from repro.sim.fluid import FluidServiceSpec
from repro.sim.parallel import (
    ClusterSpec,
    ClusterShard,
    FederationTopology,
    GeoServiceSpec,
    ShardMessage,
    WanEdgeSpec,
    run_federation,
)

NAMES = ("east", "north", "south", "west")
LATENCIES = {
    ("east", "north"): 0.05,
    ("east", "south"): 0.04,
    ("east", "west"): 0.03,
    ("north", "south"): 0.06,
    ("north", "west"): 0.08,
    ("south", "west"): 0.07,
}


def build_topology(geo_rps=60.0, n_placements=2, background=True, broker="east"):
    clusters = tuple(
        ClusterSpec(
            name=name,
            n_hosts=10,
            background=(
                (FluidServiceSpec(name=f"bg-{name}", arrival_rps=150.0,
                                  mean_batch=25),)
                if background else ()
            ),
            geo_rps=geo_rps,
            geo_mean_batch=8,
            n_placements=n_placements,
        )
        for name in NAMES
    )
    edges = tuple(
        WanEdgeSpec(a=a, b=b, latency_s=latency)
        for (a, b), latency in LATENCIES.items()
    )
    geo = tuple(
        GeoServiceSpec(name=f"geo-{i}", home=NAMES[i % 4]) for i in range(4)
    )
    return FederationTopology(
        clusters=clusters, edges=edges, geo_services=geo, broker=broker
    )


# -- kernel pause/resume at a horizon ---------------------------------------

def test_schedule_at_runs_callback_at_exact_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(2.5, lambda: fired.append(sim.now))
    sim.run(until=2.0)
    assert fired == [] and sim.now == 2.0
    sim.run(until=3.0)
    assert fired == [2.5]


def test_schedule_at_rejects_the_past():
    sim = Simulator()
    sim.schedule_at(1.0, lambda: None)
    sim.run(until=2.0)
    with pytest.raises(ValueError, match="in the past"):
        sim.schedule_at(1.5, lambda: None)


def test_run_until_horizon_is_resumable():
    """run(until=H) parks exactly at H; a later run continues seamlessly."""
    sim = Simulator()
    ticks = []

    def ticker(sim):
        while True:
            yield sim.timeout(1.0)
            ticks.append(sim.now)
            if sim.now >= 5.0:
                return

    sim.process(ticker(sim))
    sim.run(until=2.5)
    assert sim.now == 2.5 and ticks == [1.0, 2.0]
    sim.run(until=5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]


# -- topology validation -----------------------------------------------------

def test_topology_requires_full_mesh():
    clusters = tuple(ClusterSpec(name=n, n_hosts=2) for n in ("a", "b", "c"))
    edges = (WanEdgeSpec(a="a", b="b", latency_s=0.05),)
    with pytest.raises(ValueError, match="missing"):
        FederationTopology(clusters=clusters, edges=edges)


def test_topology_validation_errors():
    with pytest.raises(ValueError, match="positive latency"):
        WanEdgeSpec(a="a", b="b", latency_s=0.0)
    with pytest.raises(ValueError, match="distinct"):
        WanEdgeSpec(a="a", b="a", latency_s=0.1)
    clusters = tuple(ClusterSpec(name=n, n_hosts=2) for n in ("a", "b"))
    edges = (WanEdgeSpec(a="a", b="b", latency_s=0.05),)
    with pytest.raises(ValueError, match="broker"):
        FederationTopology(clusters=clusters, edges=edges, broker="zzz")
    with pytest.raises(ValueError, match="unknown cluster"):
        FederationTopology(
            clusters=clusters, edges=edges,
            geo_services=(GeoServiceSpec(name="s", home="zzz"),),
        )
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive latency"):
            WanEdgeSpec(a="a", b="b", latency_s=bad)
    with pytest.raises(ValueError, match="bandwidth_mbps"):
        WanEdgeSpec(a="a", b="b", latency_s=0.05, bandwidth_mbps=math.nan)
    with pytest.raises(ValueError, match="service_s"):
        GeoServiceSpec(name="s", home="a", service_s=math.nan)
    with pytest.raises(ValueError, match="request_mb"):
        GeoServiceSpec(name="s", home="a", request_mb=math.nan)
    with pytest.raises(ValueError, match="geo_rps"):
        ClusterSpec(name="a", geo_rps=math.nan)
    for bad in (math.nan, 0.0):
        with pytest.raises(ValueError, match="host_cpu_mhz"):
            ClusterSpec(name="a", host_cpu_mhz=bad)
    with pytest.raises(ValueError, match="image_mb"):
        FederationTopology(clusters=clusters, edges=edges, image_mb=math.nan)
    with pytest.raises(ValueError, match="placed_service_s"):
        FederationTopology(
            clusters=clusters, edges=edges, placed_service_s=math.nan
        )
    topology = FederationTopology(clusters=clusters, edges=edges)
    assert topology.lookahead_s == 0.05
    assert topology.broker == "a"
    with pytest.raises(KeyError):
        topology.edge("a", "zzz")


# -- the message plane -------------------------------------------------------

def test_messages_sort_by_time_then_sender_then_seq():
    messages = [
        ShardMessage(2.0, "b", "x", 1, "k", (), 1.0),
        ShardMessage(1.0, "b", "x", 2, "k", (), 0.5),
        ShardMessage(1.0, "a", "x", 9, "k", (), 0.5),
        ShardMessage(1.0, "a", "x", 3, "k", (), 0.5),
    ]
    ordered = sorted(messages, key=lambda m: m.sort_key)
    assert [(m.deliver_at, m.src, m.seq) for m in ordered] == [
        (1.0, "a", 3), (1.0, "a", 9), (1.0, "b", 2), (2.0, "b", 1),
    ]


def test_send_applies_latency_and_bandwidth():
    topology = build_topology(geo_rps=0.0, n_placements=0, background=False)
    shard = ClusterShard(topology.spec("east"), topology, seed=0)
    shard.send("dispatch", "west", ("geo-0", 1, 0.0), size_mb=0.0)
    edge = topology.edge("east", "west")
    shard.send("xfer", "west", ("geo-0",), size_mb=edge.bandwidth_mbps / 8.0)
    latency_only, sized = shard.outbox
    assert latency_only.deliver_at == pytest.approx(0.03)
    assert sized.deliver_at == pytest.approx(0.03 + 1.0)
    assert sized.seq > latency_only.seq


def test_deliver_rejects_messages_from_the_past():
    topology = build_topology(geo_rps=0.0, n_placements=0, background=False)
    shard = ClusterShard(topology.spec("east"), topology, seed=0)
    shard.advance(1.0)
    stale = ShardMessage(0.5, "west", "east", 1, "reply", ("geo-0", 1, 0.1), 0.4)
    with pytest.raises(RuntimeError, match="causality"):
        shard.deliver([stale])


def test_remote_dispatch_is_served_and_replied():
    topology = build_topology(geo_rps=0.0, n_placements=0, background=False)
    east = ClusterShard(topology.spec("east"), topology, seed=0)
    west = ClusterShard(topology.spec("west"), topology, seed=0)
    # geo-0 is homed on east: hand west's dispatch to east.
    message = ShardMessage(0.05, "west", "east", 1, "dispatch",
                           ("geo-0", 5, 0.0), 0.0)
    east.deliver([message])
    east.advance(1.0)
    assert east.served_remote == 5
    (reply,) = east.drain_outbox()
    assert reply.kind == "reply" and reply.dst == "west"
    west.advance(reply.deliver_at - 0.01)
    west.deliver([reply])
    west.advance(1.0)
    assert west.replied == 5
    assert west.latency_remote_sum > 0


def test_dispatch_before_placement_waits_in_pending():
    topology = build_topology(geo_rps=0.0, n_placements=0, background=False)
    west = ClusterShard(topology.spec("west"), topology, seed=0)
    # A dispatch for a service west has never heard of queues...
    west.deliver([
        ShardMessage(0.05, "east", "west", 1, "dispatch", ("new-svc", 3, 0.0), 0.0)
    ])
    west.advance(0.1)
    assert west.served_remote == 0 and west.digest()["pending"] == 1
    # ...the placement broadcast alone doesn't release it (west hosts,
    # so it must wait for the image)...
    west.deliver([
        ShardMessage(0.15, "east", "west", 2, "placed", ("new-svc", "west"), 0.1)
    ])
    west.advance(0.2)
    assert west.served_remote == 0 and west.digest()["pending"] == 1
    # ...the image transfer does.
    west.deliver([
        ShardMessage(0.25, "east", "west", 3, "xfer", ("new-svc",), 0.1)
    ])
    west.advance(0.5)
    assert west.served_remote == 3 and west.digest()["pending"] == 0


def test_broker_places_and_broadcasts():
    topology = build_topology(geo_rps=0.0, n_placements=0, background=False)
    east = ClusterShard(topology.spec("east"), topology, seed=0)  # broker home
    assert east.broker is not None
    east.deliver([
        ShardMessage(0.05, "west", "east", 1, "place", ("svc-x", "west"), 0.0)
    ])
    east.advance(0.1)
    host = east.broker.placements["svc-x"]
    assert host == "west"  # zero-latency to the requester wins
    outbox = east.drain_outbox()
    kinds = sorted((m.kind, m.dst) for m in outbox)
    assert ("xfer", "west") in kinds
    assert sum(1 for k, _ in kinds if k == "placed") == 3
    # The broker's own directory routes to the new host immediately.
    assert east.directory["svc-x"].host == "west"
    assert east.directory["svc-x"].ready


# -- the coordinator: determinism across worker counts ----------------------

def test_digests_bit_identical_across_worker_counts():
    topology = build_topology()
    runs = {
        n: run_federation(topology, duration_s=1.5, seed=11, n_workers=n)
        for n in (1, 2, 4)
    }
    reference = runs[1]
    assert reference.messages > 0 and reference.epochs > 0
    for n in (2, 4):
        assert runs[n].digests == reference.digests
        assert runs[n].digest_sha == reference.digest_sha
        assert runs[n].epochs == reference.epochs
        assert runs[n].messages == reference.messages


def test_seed_changes_the_run():
    topology = build_topology()
    a = run_federation(topology, duration_s=1.0, seed=0)
    b = run_federation(topology, duration_s=1.0, seed=1)
    assert a.digest_sha != b.digest_sha


def test_federation_quiesces_and_conserves_messages():
    topology = build_topology()
    run = run_federation(topology, duration_s=1.5, seed=3)
    sent = sum(d["msgs"][0] for d in run.digests.values())
    received = sum(d["msgs"][1] for d in run.digests.values())
    assert sent == received > 0
    issued = sum(d["geo"][1] for d in run.digests.values())
    served = sum(d["geo"][2] for d in run.digests.values())
    replied = sum(d["geo"][3] for d in run.digests.values())
    assert issued == served == replied > 0
    assert all(d["pending"] == 0 for d in run.digests.values())


def test_worker_cap_and_validation():
    topology = build_topology(geo_rps=0.0, n_placements=0)
    capped = run_federation(topology, duration_s=0.5, seed=0, n_workers=32)
    assert capped.n_workers == len(topology.clusters)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="duration"):
            run_federation(topology, duration_s=bad, seed=0)
    shard = ClusterShard(topology.spec("east"), topology, seed=0)
    with pytest.raises(ValueError, match="duration"):
        shard.start(math.nan)
    with pytest.raises(ValueError, match="n_workers"):
        run_federation(topology, duration_s=1.0, seed=0, n_workers=0)


def test_parallel_run_reports_barrier_metrics():
    topology = build_topology()
    run = run_federation(topology, duration_s=1.0, seed=0, n_workers=2)
    assert run.critical_path_s > 0
    assert len(run.worker_busy_s) == 2
    assert 0.0 <= run.barrier_stall_fraction < 1.0
    assert run.msgs_per_epoch > 0


@pytest.mark.parametrize("n_workers", (1, 2))
def test_shard_failure_surfaces_identically(monkeypatch, n_workers):
    """A shard that raises reaches the caller as the same exception,
    in-process or from a fork worker (which inherits the patch)."""

    def advance(self, horizon):
        raise RuntimeError(f"boom in shard {self.name}")

    monkeypatch.setattr(ClusterShard, "advance", advance)
    topology = build_topology(geo_rps=0.0, n_placements=0, background=False)
    with pytest.raises(RuntimeError, match="boom in shard east"):
        run_federation(topology, duration_s=0.5, seed=0, n_workers=n_workers)
    assert multiprocessing.active_children() == []  # every worker reaped
