"""Tests for shedding, SLA-aware admission, and breach escalation."""

import pytest

from repro.core import MachineConfig, ResourceRequirement
from repro.core.errors import AdmissionError, ServiceNotFoundError
from repro.core.autoscaler import AutoscalerConfig, ReactiveAutoscaler
from repro.sim.rng import RandomStreams
from repro.sla import (
    BreachEscalator,
    ClassPriorityShedder,
    LatencyObjective,
    ServiceClass,
    SLAContract,
    SLOMonitor,
    check_admissible,
    estimate_capacity_rps,
)
from repro.workload.clients import ClientPool
from repro.workload.replay import poisson_trace
from repro.workload.siege import Siege
from tests.sla.conftest import (
    DATASET_MB,
    SPIKE_DURATION_S,
    SPIKE_RPS,
    create_sla_service,
    overload_tiers,
)


# ------------------------------------------------------------ shedder unit
class _FakeQueue(list):
    pass


class _FakeResource:
    def __init__(self, n):
        self.queue = _FakeQueue(range(n))


class _FakeNode:
    def __init__(self, n):
        self.workers = _FakeResource(n)


class _FakeSwitch:
    def __init__(self, dispatcher_q, worker_qs):
        self._dispatcher = _FakeResource(dispatcher_q)
        self.nodes = [_FakeNode(n) for n in worker_qs]


def test_shedder_limits_scale_with_class():
    bronze = ClassPriorityShedder(ServiceClass.BRONZE, base_queue_limit=8)
    silver = ClassPriorityShedder(ServiceClass.SILVER, base_queue_limit=8)
    gold = ClassPriorityShedder(ServiceClass.GOLD, base_queue_limit=8)
    assert bronze.queue_limit == 8
    assert silver.queue_limit == 16
    assert gold.queue_limit == 32


def test_shedder_pressure_and_decision():
    shedder = ClassPriorityShedder(ServiceClass.BRONZE, base_queue_limit=8)
    light = _FakeSwitch(dispatcher_q=2, worker_qs=[3, 2])
    heavy = _FakeSwitch(dispatcher_q=2, worker_qs=[3, 3])
    assert shedder.pressure(light) == 7
    assert not shedder.should_shed(light)
    assert shedder.pressure(heavy) == 8
    assert shedder.should_shed(heavy)
    # Same backlog, higher class: tolerated.
    assert not ClassPriorityShedder(
        ServiceClass.GOLD, base_queue_limit=8
    ).should_shed(heavy)


def test_shedder_validation():
    with pytest.raises(ValueError):
        ClassPriorityShedder(ServiceClass.GOLD, base_queue_limit=0)


# ------------------------------------------------------------ admission
def test_estimate_capacity_rps():
    assert estimate_capacity_rps(2, 512.0) == pytest.approx(2 * 512.0 / 2.5)
    with pytest.raises(ValueError):
        estimate_capacity_rps(0, 512.0)


def test_infeasible_throughput_floor_rejected():
    contract = SLAContract(
        service_class=ServiceClass.GOLD, throughput_floor_rps=1e6,
    )
    requirement = ResourceRequirement(n=1, machine=MachineConfig())
    with pytest.raises(AdmissionError, match="throughput floor"):
        check_admissible(contract, requirement)


def test_infeasible_latency_objective_rejected():
    contract = SLAContract(
        service_class=ServiceClass.GOLD,
        latency=(LatencyObjective(95.0, 1e-6),),
    )
    requirement = ResourceRequirement(n=1, machine=MachineConfig())
    with pytest.raises(AdmissionError, match="feasibility floor"):
        check_admissible(contract, requirement)


def test_feasible_contract_passes():
    check_admissible(
        SLAContract.gold(p95_s=0.5),
        ResourceRequirement(n=2, machine=MachineConfig()),
    )


def test_master_rejects_infeasible_contract(testbed):
    contract = SLAContract(
        service_class=ServiceClass.GOLD, throughput_floor_rps=1e6,
    )
    with pytest.raises(AdmissionError):
        create_sla_service(testbed, "greedy", contract)
    # Nothing was admitted or leaked.
    with pytest.raises(ServiceNotFoundError):
        testbed.master.get_service("greedy")


def test_master_attaches_class_shedder(testbed):
    record = create_sla_service(testbed, "web", SLAContract.bronze())
    assert isinstance(record.switch.shedder, ClassPriorityShedder)
    assert record.switch.shedder.service_class is ServiceClass.BRONZE
    assert record.sla.service_class is ServiceClass.BRONZE


def test_uncontracted_service_has_no_shedder(testbed):
    requirement = ResourceRequirement(n=1, machine=MachineConfig())
    testbed.run(
        testbed.agent.service_creation(
            testbed.creds, "plain", testbed.repo, "web-content", requirement
        )
    )
    record = testbed.master.get_service("plain")
    assert record.switch.shedder is None
    assert record.sla is None
    assert record.switch.shedded == 0


# ------------------------------------------------------- shedding under load
def test_overloaded_bronze_service_sheds(testbed):
    record = create_sla_service(testbed, "bronze", SLAContract.bronze())
    streams = RandomStreams(3)
    clients = ClientPool(testbed.lan, n=4)
    trace = poisson_trace(streams, SPIKE_RPS, SPIKE_DURATION_S, dataset_mb=DATASET_MB)
    siege = Siege(testbed.sim, record.switch, clients)
    report = testbed.run(siege.run_trace(trace), name="spike")
    assert record.switch.shedded > 0
    assert report.failures == record.switch.shedded  # sheds surface as failures
    assert report.completed + report.failures == len(trace)
    # Shedding keeps the backlog bounded by the bronze queue limit.
    assert record.switch.shedder.pressure(record.switch) <= (
        record.switch.shedder.queue_limit
    )


def test_shedding_order_bronze_before_silver_before_gold():
    _, records, monitors, _ = overload_tiers(seed=11)
    shed = {name: records[name].switch.shedded for name in records}
    # Same offered load, same capacity: the lower the class, the more shed.
    assert shed["bronze"] > shed["silver"] > shed["gold"]
    first = {name: monitors[name].first_shed_time for name in monitors}
    assert first["bronze"] is not None and first["silver"] is not None
    assert first["bronze"] < first["silver"]
    if first["gold"] is not None:
        assert first["silver"] < first["gold"]


# --------------------------------------------------------- breach escalation
class _FakeAutoscaler:
    def __init__(self):
        self.notified = []

    def notify_breach(self, violation):
        self.notified.append(violation)


def test_escalator_batches_sustained_violations():
    autoscaler = _FakeAutoscaler()
    escalator = BreachEscalator(autoscaler, sustained=3)
    violations = [object() for _ in range(7)]
    for violation in violations:
        escalator(violation)
    # 7 violations at sustained=3 -> escalations after #3 and #6.
    assert len(autoscaler.notified) == 2
    assert escalator.escalations == 2
    assert escalator.forwarded == [violations[2], violations[5]]
    with pytest.raises(ValueError):
        BreachEscalator(autoscaler, sustained=0)


def test_breach_triggers_autoscaler_resize(testbed):
    record = create_sla_service(testbed, "gold", SLAContract.gold(p95_s=0.5))
    monitor = SLOMonitor(testbed.sim, "gold", record.sla, check_period_s=5.0)
    monitor.attach(record.switch)
    # Target so loose the latency heuristic never fires: any resize that
    # happens is attributable to the breach path alone.
    autoscaler = ReactiveAutoscaler(
        testbed.sim, testbed.agent, testbed.creds, "gold", testbed.repo,
        AutoscalerConfig(target_response_s=1000.0, min_units=1, max_units=2,
                         check_period_s=10.0),
    )
    BreachEscalator(autoscaler, sustained=2).wire(monitor)

    streams = RandomStreams(5)
    clients = ClientPool(testbed.lan, n=4)
    trace = poisson_trace(streams, SPIKE_RPS, SPIKE_DURATION_S, dataset_mb=DATASET_MB)
    siege = Siege(testbed.sim, record.switch, clients)
    testbed.spawn(monitor.run(90.0), name="slo")
    testbed.spawn(siege.run_trace(trace), name="spike")
    testbed.run(autoscaler.run(90.0), name="autoscaler")
    testbed.sim.run()

    assert monitor.violations  # the SLO was breached...
    assert autoscaler.breach_resizes >= 1  # ...and the breach forced a resize
    assert record.total_units == 2
    assert [d.reason for d in autoscaler.decisions].count("sla breach") == (
        autoscaler.breach_resizes
    )
