"""Tests for staged guest boot (mount -> kernel -> per-service)."""

import pytest

from repro.guestos.uml import UmlError, UmlState
from tests.guestos.test_uml import boot, make_vm


def test_total_boot_time_equals_plan():
    sim, host, vm = make_vm()
    plan = boot(sim, vm)
    assert sim.now == pytest.approx(plan.total_s)
    assert vm.boot_progress == "running"


def test_progress_advances_through_stages():
    sim, host, vm = make_vm()
    stages = []

    def watcher(sim):
        last = None
        while vm.state is not UmlState.RUNNING:
            if vm.boot_progress != last:
                last = vm.boot_progress
                stages.append(last)
            yield sim.timeout(0.05)

    sim.process(vm.boot())
    sim.process(watcher(sim))
    sim.run()
    assert stages[0] in ("created", "mounting rootfs")
    assert "kernel init" in stages
    assert any(s.startswith("starting ") for s in stages)


def test_services_start_in_dependency_order_over_time():
    sim, host, vm = make_vm()
    seen = []

    def sweep():
        for proc in vm.processes.alive_processes:
            if proc.command not in seen and not proc.command.startswith("["):
                if proc.command != "init":
                    seen.append(proc.command)

    def watcher(sim):
        while vm.state is not UmlState.RUNNING:
            sweep()
            yield sim.timeout(0.01)
        sweep()  # catch services spawned in the final instant

    sim.process(vm.boot())
    sim.process(watcher(sim))
    sim.run()
    assert seen.index("syslog") < seen.index("network") < seen.index("sshd")


def test_partial_process_table_mid_boot():
    sim, host, vm = make_vm()
    sim.process(vm.boot())
    # Run until kernel init is done but services are still starting.
    plan_probe = None
    sim.run(until=vm.boot_plan.mount_time_s + 0.01 if vm.boot_plan else 0.3)
    # Mid-boot: booting state, not all services up yet.
    assert vm.state is UmlState.BOOTING
    sim.run()
    assert vm.state is UmlState.RUNNING


def test_crash_mid_boot_aborts_boot():
    sim, host, vm = make_vm()
    boot_proc = sim.process(vm.boot())

    def saboteur(sim):
        yield sim.timeout(1.0)  # mid-boot (S_I takes ~2.8 s)
        vm.crash(cause="host fault during priming")

    sim.process(saboteur(sim))
    # Nobody waits on the boot process, so its failure escapes run().
    with pytest.raises(UmlError, match="aborted"):
        sim.run()
    assert vm.state is UmlState.CRASHED
    assert not boot_proc.ok  # the boot process failed
    with pytest.raises(UmlError, match="aborted"):
        _ = boot_proc.value


def test_crashed_mid_boot_can_be_shut_down():
    sim, host, vm = make_vm()
    free_before = host.memory.free_mb
    sim.process(vm.boot())

    def saboteur(sim):
        yield sim.timeout(1.0)
        vm.crash()

    sim.process(saboteur(sim))
    with pytest.raises(UmlError, match="aborted"):
        sim.run()
    vm.shutdown()
    assert host.memory.free_mb == pytest.approx(free_before)
