"""Tests for partitionable services (§3.5 extension)."""

import pytest

from repro.core import MachineConfig, ResourceRequirement
from repro.core.auth import Credentials
from repro.core.errors import AuthenticationError, InvalidRequestError
from repro.core.node import Request, ServiceUnavailableError
from repro.guestos.rootfs import RootFilesystem
from repro.guestos.services import default_registry
from repro.guestos.syscall import SyscallMix
from repro.image.image import ServiceComponent, ServiceImage
from repro.obs.metrics import MetricsRegistry
from repro.sla import SLAContract


def shop_image():
    """A two-component on-line shop: web frontend + database backend."""
    registry = default_registry()
    rootfs = RootFilesystem.build(
        "shop-rootfs", base_mb=15.0,
        services=["syslog", "network", "httpd", "mysqld", "sshd", "random"],
        registry=registry,
    )
    front = ServiceComponent("frontend", "httpd", ("httpd", "sshd"), weight=2.0)
    back = ServiceComponent("database", "mysqld", ("mysqld", "sshd"), weight=1.0)
    return ServiceImage(
        name="shop", rootfs=rootfs, required_services=("httpd", "mysqld", "sshd"),
        entrypoint="httpd", port=8080, components=(front, back),
    )


def create_shop(tb, n=3, sla=None):
    """SODA_service_creation of the shop: the image makes it partitioned."""
    tb.repo.publish(shop_image())
    requirement = ResourceRequirement(n=n, machine=MachineConfig())
    tb.run(
        tb.agent.service_creation(tb.creds, "shop", tb.repo, "shop", requirement, sla=sla)
    )
    return tb.master.get_service("shop")


def wait(sim, seconds):
    yield sim.timeout(seconds)


def component_request(client, component):
    return Request(
        client=client, response_mb=0.1, mix=SyscallMix(1.0, 30), component=component
    )


def test_one_node_per_component_weighted(testbed):
    record = create_shop(testbed, n=3)
    by_component = {n.component: n for n in record.nodes}
    assert set(by_component) == {"frontend", "database"}
    # Weight 2:1 over 3 units -> 2M frontend, 1M database.
    assert by_component["frontend"].units == 2
    assert by_component["database"].units == 1


def test_component_nodes_boot_only_their_services(testbed):
    record = create_shop(testbed)
    front = next(n for n in record.nodes if n.component == "frontend")
    back = next(n for n in record.nodes if n.component == "database")
    assert "httpd" in front.vm.rootfs.services
    assert "mysqld" not in front.vm.rootfs.services
    assert "mysqld" in back.vm.rootfs.services
    assert "httpd" not in back.vm.rootfs.services
    # Each runs its own entrypoint.
    assert front.vm.processes.find_by_command("httpd")
    assert back.vm.processes.find_by_command("mysqld")


def test_switch_routes_by_component(testbed):
    record = create_shop(testbed)
    client = testbed.add_client("c1")
    for component in ("frontend", "database"):
        response = testbed.run(
            record.switch.serve(component_request(client, component))
        )
        node = next(n for n in record.nodes if n.name == response.node_name)
        assert node.component == component


def test_untagged_requests_use_any_node(testbed):
    record = create_shop(testbed)
    client = testbed.add_client("c1")
    request = Request(client=client, response_mb=0.1, mix=SyscallMix(1.0, 30))
    response = testbed.run(record.switch.serve(request))
    assert response.elapsed > 0


def test_crashed_component_unavailable_other_survives(testbed):
    record = create_shop(testbed)
    client = testbed.add_client("c1")
    back = next(n for n in record.nodes if n.component == "database")
    back.vm.crash()
    with pytest.raises(ServiceUnavailableError, match="database"):
        testbed.run(record.switch.serve(component_request(client, "database")))
    response = testbed.run(record.switch.serve(component_request(client, "frontend")))
    assert response.elapsed > 0


def test_image_without_components_is_replicated(testbed):
    requirement = ResourceRequirement(n=2, machine=MachineConfig())
    testbed.run(
        testbed.agent.service_creation(
            testbed.creds, "web2", testbed.repo, "web-content", requirement
        )
    )
    record = testbed.master.get_service("web2")
    assert [node.component for node in record.nodes] == [""]
    assert record.nodes[0].vm.processes.find_by_command("httpd_19_5")


def test_n_must_cover_components(testbed):
    with pytest.raises(InvalidRequestError, match="at least one"):
        create_shop(testbed, n=1)
    assert "shop" not in testbed.master.services
    assert testbed.agent.ledger.n_open == 0


def test_component_plans_see_earlier_reservations(testbed):
    """Seattle fits 3 units, tacoma 1.  n=4 gives frontend 2 and database
    2: frontend fills 2 of seattle's units, so the database plan must
    put one unit on seattle and one on tacoma, not both on seattle."""
    record = create_shop(testbed, n=4)
    placed = sorted((n.component, n.host.name, n.units) for n in record.nodes)
    assert placed == [
        ("database", "seattle", 1),
        ("database", "tacoma", 1),
        ("frontend", "seattle", 2),
    ]
    assert [n.name for n in record.nodes] == [
        "shop@seattle#0", "shop@seattle#1", "shop@tacoma#2"
    ]


def test_partitioned_service_is_billed_and_counted(testbed):
    """Partitioned creation goes through the Agent: billing, admission
    counter, SLA shedder, and authentication all apply."""
    registry = MetricsRegistry()
    testbed.sim.metrics = registry
    record = create_shop(testbed, n=3, sla=SLAContract.silver(p95_s=2.0))
    assert sorted(n.component for n in record.nodes) == ["database", "frontend"]
    assert testbed.agent.ledger.n_open == 1
    testbed.run(wait(testbed.sim, 100.0))
    assert testbed.agent.invoice(testbed.creds) > 0.0
    admissions = registry.get("soda_master_admissions_total")
    assert {labels: child.value for labels, child in admissions.samples()} == {
        ("admitted",): 1.0
    }
    assert record.switch.shedder is not None
    with pytest.raises(AuthenticationError):
        testbed.run(
            testbed.agent.service_creation(
                Credentials("acme", "wrong"), "shop2", testbed.repo, "shop",
                ResourceRequirement(n=2, machine=MachineConfig()),
            )
        )


def test_partitioned_teardown_releases_all(testbed):
    create_shop(testbed)
    testbed.master.teardown_service("shop")
    for host in testbed.hosts.values():
        assert host.reservations.n_live == 0


def test_config_file_lists_component_nodes(testbed):
    record = create_shop(testbed, n=3)
    assert record.switch.config.total_capacity == 3
    assert len(record.switch.config) == 2


@pytest.mark.parametrize("n_new", [2, 4])
def test_partitioned_service_rejects_resize(testbed, n_new):
    """Resizing is per replica, not per component: shrinking to 2 would
    drop the only database node and growing to 4 would add a node with
    no component, so the resize is refused and nothing moves."""
    record = create_shop(testbed, n=3)
    nodes = [(n.name, n.component, n.units) for n in record.nodes]
    reserved = {name: host.reservations.reserved for name, host in testbed.hosts.items()}
    config = record.switch.config.render()
    with pytest.raises(InvalidRequestError, match="partitioned"):
        testbed.run(
            testbed.agent.service_resizing(testbed.creds, "shop", testbed.repo, n_new)
        )
    assert record.is_running
    assert [(n.name, n.component, n.units) for n in record.nodes] == nodes
    assert {
        name: host.reservations.reserved for name, host in testbed.hosts.items()
    } == reserved
    assert record.switch.config.render() == config
    assert record.requirement.n == 3
