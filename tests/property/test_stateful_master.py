"""Stateful property test: the SODA Master under random operation mixes.

Hypothesis drives random sequences of service creations (replicated
and partitionable), resizings (some failing in priming), teardowns and
crash-reboots against the paper testbed; after every step the platform
invariants must hold (reservation books balanced, IP pools consistent,
every node's bridge entry on its guest, billing open for exactly the
hosted services, capacity never exceeded, ``<n, M>`` matching the units
hosted).
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.core import MachineConfig, ResourceRequirement, build_paper_testbed
from repro.core.auth import Credentials
from repro.core.errors import PrimingError, SODAError
from repro.host.bridge import BridgingModule
from repro.image.profiles import paper_profiles
from tests.core.test_partitioned import shop_image


class MasterMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.counter = 0
        self.live = set()

    @initialize()
    def setup(self):
        self.tb = build_paper_testbed(seed=0)
        repo = self.tb.add_repository()
        for image in paper_profiles().values():
            repo.publish(image)
        repo.publish(shop_image())  # partitionable: frontend + database
        self.repo = repo
        self.tb.agent.register_asp("acme", "supersecret")
        self.creds = Credentials("acme", "supersecret")

    # -- operations ---------------------------------------------------------
    @rule(
        n=st.integers(min_value=1, max_value=3),
        image=st.sampled_from(["web-content", "honeypot", "shop"]),
    )
    def create(self, n, image):
        name = f"svc-{self.counter}"
        self.counter += 1
        requirement = ResourceRequirement(n=n, machine=MachineConfig())
        try:
            self.tb.run(
                self.tb.agent.service_creation(self.creds, name, self.repo, image, requirement)
            )
        except SODAError:
            return  # admission failure is legal; invariants still checked
        self.live.add(name)

    @precondition(lambda self: self.live)
    @rule(n=st.integers(min_value=1, max_value=4), pick=st.randoms())
    def resize(self, n, pick):
        name = sorted(self.live)[0]
        try:
            self.tb.run(self.tb.agent.service_resizing(self.creds, name, self.repo, n))
        except SODAError:
            return

    @precondition(lambda self: self.live)
    @rule(n=st.integers(min_value=2, max_value=4))
    def resize_fails_in_priming(self, n):
        """With every IP pool exhausted, a grow that needs a new node
        fails in priming and must leave the service as it was."""
        name = sorted(self.live)[0]
        record = self.tb.master.get_service(name)
        units_before = [(node.name, node.units) for node in record.nodes]
        hogged = []
        for daemon in self.tb.daemons.values():
            pool = daemon.ip_pool
            hogged.extend((pool, pool.allocate()) for _ in range(pool.n_free))
        try:
            self.tb.run(self.tb.agent.service_resizing(self.creds, name, self.repo, n))
        except PrimingError:
            assert [(node.name, node.units) for node in record.nodes] == units_before
        except SODAError:
            pass
        finally:
            for pool, address in hogged:
                pool.release(address)

    @precondition(lambda self: self.live)
    @rule()
    def teardown_service(self):
        # NB: not named ``teardown`` — that is RuleBasedStateMachine's
        # unconditional end-of-run cleanup hook.
        name = sorted(self.live)[-1]
        self.tb.run(self.tb.agent.service_teardown(self.creds, name))
        self.live.discard(name)

    @precondition(lambda self: self.live)
    @rule()
    def crash_and_recover(self):
        name = sorted(self.live)[0]
        record = self.tb.master.get_service(name)
        node = record.nodes[0]
        if node.vm.is_running:
            node.vm.crash(cause="chaos")
            self.tb.run(node.daemon.reboot_node(node))

    # -- invariants -------------------------------------------------------------
    @invariant()
    def books_balance(self):
        if not hasattr(self, "tb"):
            return
        tb = self.tb
        expected_nodes = sum(len(r.nodes) for r in tb.master.services.values())
        live_reservations = sum(h.reservations.n_live for h in tb.hosts.values())
        assert live_reservations == expected_nodes
        assert set(tb.master.services) == self.live
        assert tb.agent.ledger.n_open == len(self.live)

    @invariant()
    def capacity_never_exceeded(self):
        if not hasattr(self, "tb"):
            return
        for host in self.tb.hosts.values():
            assert host.reservations.reserved.fits_within(host.reservations.capacity)
            assert host.memory.free_mb >= -1e-9

    @invariant()
    def ip_pools_consistent(self):
        if not hasattr(self, "tb"):
            return
        for name, daemon in self.tb.daemons.items():
            node_ips = {
                n.source_ip
                for r in self.tb.master.services.values()
                for n in r.nodes
                if n.host.name == name
            }
            assert daemon.ip_pool.n_allocated == len(node_ips)
            assert daemon.networking.n_nodes == len(node_ips)

    @invariant()
    def networking_resolves_to_each_guest(self):
        if not hasattr(self, "tb"):
            return
        for record in self.tb.master.services.values():
            for node in record.nodes:
                networking = self.tb.daemons[node.host.name].networking
                key = (
                    node.source_ip
                    if isinstance(networking, BridgingModule)
                    else node.endpoint.port
                )
                assert networking.resolve(key) is node.vm

    @invariant()
    def services_stay_serviceable(self):
        if not hasattr(self, "tb"):
            return
        for record in self.tb.master.services.values():
            assert record.is_running
            assert record.switch is not None
            assert record.switch.config.total_capacity == record.total_units
            assert record.requirement.n == record.total_units


TestMasterStateful = MasterMachine.TestCase
TestMasterStateful.settings = settings(
    max_examples=15, stateful_step_count=12, deadline=None
)
