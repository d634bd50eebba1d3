"""Failure injection: priming and resizing must roll back cleanly.

The §3.3 priming pipeline acquires resources in sequence (reservation ->
image -> guest memory -> IP -> bridge -> shaper); each test breaks one
stage and asserts nothing leaks.
"""

import pytest

from repro.core import MachineConfig, ResourceRequirement, build_paper_testbed
from repro.core.auth import Credentials
from repro.core.errors import AdmissionError, PrimingError
from repro.image.profiles import paper_profiles
from repro.net.ip import IPAddressPool


def build(pool_size=16, seed=0):
    tb = build_paper_testbed(seed=seed)
    repo = tb.add_repository()
    for image in paper_profiles().values():
        repo.publish(image)
    tb.agent.register_asp("acme", "supersecret")
    tb.repo = repo
    tb.creds = Credentials("acme", "supersecret")
    return tb


def snapshot(tb):
    return {
        name: (
            host.reservations.n_live,
            host.memory.allocated_mb,
            tb.daemons[name].ip_pool.n_allocated,
            tb.daemons[name].networking.n_nodes,
            tb.daemons[name].shaper.n_entries,
        )
        for name, host in tb.hosts.items()
    }


def create(tb, name="web", image="web-content", n=1):
    req = ResourceRequirement(n=n, machine=MachineConfig())
    return tb.run(
        tb.agent.service_creation(tb.creds, name, tb.repo, image, req)
    )


def test_ip_pool_exhaustion_rolls_back_everything():
    tb = build()
    # Drain seattle's pool so priming fails at the IP-assignment stage
    # (after reservation, download and boot already happened).
    seattle_pool = tb.daemons["seattle"].ip_pool
    while seattle_pool.n_free:
        seattle_pool.allocate()
    before = snapshot(tb)
    with pytest.raises(PrimingError, match="exhausted"):
        create(tb)
    assert snapshot(tb) == before
    assert "web" not in tb.master.services


def test_partial_multi_host_failure_rolls_back_completed_nodes():
    tb = build()
    # Fill seattle so <3, M> must split across both hosts, then break
    # tacoma's pool: the seattle node primes fine, tacoma's fails, and
    # the master must tear the seattle node back down.
    create(tb, name="filler", n=2)
    tacoma_pool = tb.daemons["tacoma"].ip_pool
    while tacoma_pool.n_free:
        tacoma_pool.allocate()
    before = snapshot(tb)
    with pytest.raises(PrimingError):
        create(tb, name="web", n=2)
    assert snapshot(tb) == before
    assert "web" not in tb.master.services
    # The surviving filler service is untouched.
    assert tb.master.get_service("filler").is_running


def test_later_host_failing_first_still_rolls_back():
    """Fill seattle so <2, M> splits seattle (waited on first) and
    tacoma, then starve tacoma's RAM: tacoma's boot fails while the
    seattle node is still booting, and the failure must still reach
    the master's rollback."""
    tb = build()
    create(tb, name="filler", n=2)
    tacoma = tb.hosts["tacoma"]
    hog = tacoma.memory.allocate(tacoma.memory.free_mb - 10, purpose="hog")
    before = snapshot(tb)
    with pytest.raises(PrimingError, match="boot failed"):
        create(tb, name="web", n=2)
    assert snapshot(tb) == before
    assert "web" not in tb.master.services
    hog.release()


def test_unknown_image_at_daemon_level_rolls_back_reservation():
    tb = build()
    daemon = tb.daemons["seattle"]
    from repro.core.allocation import inflated_unit_vector

    requirement = ResourceRequirement(n=1, machine=MachineConfig())
    unit = inflated_unit_vector(requirement)
    before = snapshot(tb)
    with pytest.raises(PrimingError, match="unknown image"):
        tb.run(
            daemon.prime(
                service_name="ghost", repository=tb.repo, image_name="missing",
                units=1, unit_vector=unit, machine=requirement.machine,
            )
        )
    assert snapshot(tb) == before


def test_guest_memory_exhaustion_fails_priming_cleanly():
    tb = build()
    # Eat tacoma's RAM directly (e.g. host-level activity), leaving the
    # reservation manager unaware — boot then fails on allocation.
    tacoma = tb.hosts["tacoma"]
    hog = tacoma.memory.allocate(tacoma.memory.free_mb - 10, purpose="hog")
    # Force placement on tacoma by filling seattle's CPU.
    seattle = tb.hosts["seattle"]
    from repro.host.reservation import ResourceVector
    seattle.reservations.reserve(ResourceVector(2500, 0, 0, 0), label="cpu-hog")
    before = snapshot(tb)
    with pytest.raises(PrimingError, match="boot failed"):
        create(tb, name="web", n=1)
    assert snapshot(tb) == before
    hog.release()


def test_failed_grow_resize_restores_exact_prior_state():
    tb = build()
    create(tb, name="web", n=1)
    record = tb.master.get_service("web")
    before = snapshot(tb)
    config_before = record.switch.config.render()
    units_before = record.total_units
    with pytest.raises(AdmissionError):
        tb.run(tb.agent.service_resizing(tb.creds, "web", tb.repo, 50))
    assert record.total_units == units_before
    assert record.switch.config.render() == config_before
    assert snapshot(tb) == before
    assert record.is_running


def test_failed_partial_grow_rolls_back_in_place_growth():
    """Grow from 1 to 10: seattle can add 2 in place but the rest cannot
    be placed — the in-place growth must be reverted too."""
    tb = build()
    create(tb, name="web", n=1)
    record = tb.master.get_service("web")
    node = record.nodes[0]
    with pytest.raises(AdmissionError):
        tb.run(tb.agent.service_resizing(tb.creds, "web", tb.repo, 10))
    assert node.units == 1
    assert record.switch.config.total_capacity == 1
    # Capacity math: the HUP can still host the released head-room.
    reply = create(tb, name="neighbour", n=2)
    assert sum(reply.node_capacities) == 2


def test_teardown_is_idempotent_against_crashed_nodes():
    tb = build()
    create(tb, name="honeypot", image="honeypot", n=1)
    record = tb.master.get_service("honeypot")
    record.nodes[0].vm.crash(cause="attack")
    tb.run(tb.agent.service_teardown(tb.creds, "honeypot"))
    for name, host in tb.hosts.items():
        assert host.reservations.n_live == 0
        assert host.memory.allocated_mb == 0
