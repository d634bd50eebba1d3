"""Tests for the geo-aware federation tier: GeoBroker and nearest_first."""

import pytest

from repro.core.federation import nearest_first
from repro.sim.parallel import GeoBroker

LATENCY = {
    ("east", "west"): 0.03,
    ("east", "north"): 0.05,
    ("west", "north"): 0.08,
}
CAPACITY = {"east": 10, "west": 10, "north": 5}


def build_broker():
    return GeoBroker(home="east", latency_s=LATENCY, capacity=CAPACITY)


def test_validation():
    with pytest.raises(ValueError, match="home"):
        GeoBroker(home="zzz", latency_s=LATENCY, capacity=CAPACITY)
    with pytest.raises(ValueError, match="capacity"):
        GeoBroker(home="east", latency_s=LATENCY, capacity={"east": 0})


def test_latency_lookup_is_symmetric():
    broker = build_broker()
    assert broker.latency("east", "west") == 0.03
    assert broker.latency("west", "east") == 0.03
    assert broker.latency("east", "east") == 0.0
    with pytest.raises(KeyError):
        broker.latency("east", "zzz")


def test_place_prefers_the_origin_cluster():
    broker = build_broker()
    assert broker.place("svc-1", "west") == "west"
    assert broker.placements == {"svc-1": "west"}
    assert broker.load["west"] == 1


def test_place_breaks_latency_ties_by_relative_load_then_name():
    # From "east", the origin itself always wins; load an origin-less
    # comparison by asking from every cluster after filling east.
    broker = build_broker()
    for i in range(3):
        assert broker.place(f"e{i}", "east") == "east"
    # East now carries 3/10; from north, north itself (0/5) still wins.
    assert broker.place("n0", "north") == "north"
    # Same-latency candidates split by load/capacity ratio.
    tied = GeoBroker(
        home="a",
        latency_s={("a", "b"): 0.05, ("a", "c"): 0.05, ("b", "c"): 0.05},
        capacity={"a": 10, "b": 10, "c": 10},
    )
    tied.seed("pre-0", "b")
    # From a: a itself wins (latency 0).
    assert tied.place("s0", "a") == "a"
    # Fill a so the next call from a goes remote: b has 1/10, c 0/10 ->
    # c wins on load; then b and c tie at 1/10 and b wins on name.
    assert tied.place("s1", "a") == "a"  # a: 2/10 still closest
    tied.load["a"] = 10
    assert tied.place("s2", "a") == "a"  # latency 0 beats load
    # Remote-only comparison: ask from d?  No d — compare b vs c from b.
    assert tied.place("s3", "b") == "b"


def test_seed_and_place_reject_duplicates_and_unknowns():
    broker = build_broker()
    broker.seed("svc", "west")
    with pytest.raises(ValueError, match="already placed"):
        broker.seed("svc", "east")
    with pytest.raises(ValueError, match="already placed"):
        broker.place("svc", "east")
    with pytest.raises(ValueError, match="unknown cluster"):
        broker.seed("other", "zzz")
    with pytest.raises(ValueError, match="unknown origin"):
        broker.place("other", "zzz")


def test_placement_sequence_is_deterministic():
    calls = [("s0", "east"), ("s1", "west"), ("s2", "north"), ("s3", "east")]
    results = []
    for _ in range(2):
        broker = build_broker()
        results.append([broker.place(s, o) for s, o in calls])
    assert results[0] == results[1]


def test_nearest_first_orders_members_by_latency():
    strategy = nearest_first("west", LATENCY)
    members = {"north": None, "east": None, "west": None}
    assert strategy(None, members) == ["west", "east", "north"]


def test_nearest_first_unknown_pairs_sort_last_ties_by_name():
    strategy = nearest_first("east", {("east", "west"): 0.03})
    members = {"a": None, "b": None, "west": None, "east": None}
    assert strategy(None, members) == ["east", "west", "a", "b"]


def test_nearest_first_drives_federated_placement():
    """End-to-end: a FederatedHUP with nearest_first admits at the
    lowest-latency member, overriding registration order."""
    from repro.core import MachineConfig, ResourceRequirement
    from repro.core.agent import SODAAgent
    from repro.core.api import HUPTestbed
    from repro.core.auth import Credentials
    from repro.core.daemon import SODADaemon
    from repro.core.federation import FederatedHUP
    from repro.core.master import SODAMaster
    from repro.host.machine import make_seattle, make_tacoma
    from repro.image.profiles import make_s1_web_content
    from repro.net.ip import IPAddressPool

    tb = HUPTestbed(seed=3)
    tb.add_host(make_seattle(tb.sim))
    tb.finalize()
    west_agent = tb.agent
    tacoma = make_tacoma(tb.sim)
    tacoma.attach(tb.lan)
    east_master = SODAMaster(
        tb.sim, tb.lan,
        [SODADaemon(tb.sim, tacoma, tb.lan,
                    IPAddressPool("128.10.99.1", size=16, owner="tacoma"))],
    )
    east_agent = SODAAgent(tb.sim, east_master)
    for agent in (west_agent, east_agent):
        agent.register_asp("acme", "supersecret")
    # Registration order says west first; the requester sits in "home",
    # 10 ms from east vs 80 ms from west -> east must win.
    federation = FederatedHUP(
        {"west": west_agent, "east": east_agent},
        selection=nearest_first(
            "home",
            {("home", "east"): 0.01, ("home", "west"): 0.08,
             ("east", "west"): 0.05},
        ),
    )
    repo = tb.add_repository()
    repo.publish(make_s1_web_content())
    tb.run(
        federation.service_creation(
            Credentials("acme", "supersecret"), "web", repo, "web-content",
            ResourceRequirement(n=1, machine=MachineConfig()),
        )
    )
    assert federation.locate("web") == "east"
