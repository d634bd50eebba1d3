"""Unit tests for the UML virtual machine lifecycle and isolation."""

import pytest

from repro.guestos.boot import BootTimeModel
from repro.guestos.syscall import SyscallMix
from repro.guestos.uml import UmlError, UmlState, UserModeLinux
from repro.host.machine import make_seattle, make_tacoma
from repro.image.profiles import make_s1_web_content, make_s2_honeypot
from repro.sim import Simulator


def make_vm(sim=None, host=None, image_factory=make_s1_web_content, mem=256.0):
    sim = sim or Simulator()
    host = host or make_seattle(sim)
    image = image_factory()
    vm = UserModeLinux(
        sim, name=f"{image.name}-node", host=host,
        rootfs=image.tailored_rootfs(), guest_mem_mb=mem,
    )
    return sim, host, vm


def boot(sim, vm):
    proc = sim.process(vm.boot())
    sim.run()
    return proc.value


def test_boot_lifecycle_and_timing():
    sim, host, vm = make_vm()
    assert vm.state is UmlState.CREATED
    plan = boot(sim, vm)
    assert vm.state is UmlState.RUNNING
    assert vm.is_running
    assert vm.booted_at == pytest.approx(plan.total_s)
    assert plan.total_s == pytest.approx(3.0, rel=0.2)  # Table 2 S_I seattle


def test_boot_populates_guest_processes():
    sim, host, vm = make_vm()
    boot(sim, vm)
    # Kernel threads plus one process per started system service.
    assert len(vm.processes) == len(vm.processes.KERNEL_THREADS) + len(vm.rootfs.services)
    assert vm.processes.find_by_command("sshd")


def test_boot_claims_host_memory():
    sim, host, vm = make_vm()
    free_before = host.memory.free_mb
    boot(sim, vm)
    # Guest cap + RAM-disk for the rootfs.
    expected = vm.guest_mem_mb + vm.rootfs.size_mb
    assert host.memory.free_mb == pytest.approx(free_before - expected)


def test_double_boot_rejected():
    sim, host, vm = make_vm()
    boot(sim, vm)
    proc = sim.process(vm.boot())
    sim2 = Simulator()
    _, _, vm2 = make_vm(sim2)
    boot_gen = vm2.boot()
    sim2.process(boot_gen)
    sim2.run()
    with pytest.raises(UmlError):
        next(vm2.boot())  # second boot attempt


def test_boot_fails_when_memory_exhausted():
    sim = Simulator()
    host = make_tacoma(sim)  # 768 MB, 300 reserved -> 468 free
    _, _, vm1 = make_vm(sim, host, mem=400.0)
    boot(sim, vm1)
    _, _, vm2 = make_vm(sim, host, mem=400.0)
    with pytest.raises(UmlError, match="boot failed"):
        sim.process(vm2.boot())
        sim.run()


def test_crash_kills_guest_only():
    sim, host, vm = make_vm(image_factory=make_s2_honeypot)
    boot(sim, vm)
    n_alive = len(vm.processes.alive_processes)
    killed = vm.crash(cause="ghttpd buffer overflow")
    assert killed == n_alive
    assert vm.state is UmlState.CRASHED
    assert vm.crash_cause == "ghttpd buffer overflow"
    # Host-side state is untouched: memory still held until shutdown.
    assert host.memory.allocated_mb > 0


def test_crash_requires_running():
    sim, host, vm = make_vm()
    with pytest.raises(UmlError):
        vm.crash()


def test_shutdown_releases_memory():
    sim, host, vm = make_vm()
    free_before = host.memory.free_mb
    boot(sim, vm)
    vm.shutdown()
    assert vm.state is UmlState.STOPPED
    assert host.memory.free_mb == pytest.approx(free_before)
    with pytest.raises(UmlError):
        vm.shutdown()


def test_shutdown_after_crash_allowed():
    sim, host, vm = make_vm()
    free_before = host.memory.free_mb
    boot(sim, vm)
    vm.crash()
    vm.shutdown()
    assert host.memory.free_mb == pytest.approx(free_before)


def test_request_time_includes_uml_slowdown():
    sim, host, vm = make_vm()
    boot(sim, vm)
    mix = SyscallMix(user_mcycles=3.0, n_syscalls=62)
    in_vm = vm.request_time_s(mix)
    native = vm.syscalls.mix_time_s(mix, host.cpu_mhz, in_uml=False)
    assert in_vm > native
    assert in_vm / native == pytest.approx(vm.syscalls.application_slowdown(mix))


def test_request_time_scales_with_capacity_fraction():
    sim, host, vm = make_vm()
    boot(sim, vm)
    mix = SyscallMix(user_mcycles=1.0, n_syscalls=10)
    full = vm.request_time_s(mix, capacity_fraction=1.0)
    half = vm.request_time_s(mix, capacity_fraction=0.5)
    assert half == pytest.approx(2 * full)
    with pytest.raises(ValueError):
        vm.request_time_s(mix, capacity_fraction=0)
    with pytest.raises(ValueError):
        vm.request_time_s(mix, capacity_fraction=1.5)


def test_request_time_requires_running():
    sim, host, vm = make_vm()
    with pytest.raises(UmlError):
        vm.request_time_s(SyscallMix(1.0, 1))


def test_exploit_compromises_guest_not_host():
    sim, host, vm = make_vm(image_factory=make_s2_honeypot)
    boot(sim, vm)
    vm.exploit()
    assert vm.compromised
    assert not vm.attacker_can_reach_host()


def test_exploit_requires_running():
    sim, host, vm = make_vm()
    with pytest.raises(UmlError):
        vm.exploit()


def test_guest_mem_validation():
    sim = Simulator()
    host = make_seattle(sim)
    image = make_s1_web_content()
    with pytest.raises(ValueError):
        UserModeLinux(sim, "x", host, image.tailored_rootfs(), guest_mem_mb=0)


def test_two_vms_coexist_on_one_host():
    """Figure 3's setting: web + honeypot sharing seattle."""
    sim = Simulator()
    host = make_seattle(sim)
    web_image, pot_image = make_s1_web_content(), make_s2_honeypot()
    web = UserModeLinux(sim, "web", host, web_image.tailored_rootfs(), 256.0)
    pot = UserModeLinux(sim, "honeypot", host, pot_image.tailored_rootfs(), 256.0)
    sim.process(web.boot())
    sim.process(pot.boot())
    sim.run()
    assert web.is_running and pot.is_running
    pot.crash(cause="attack")
    # Isolation: the web node is untouched.
    assert web.is_running
    assert web.processes.find_by_command("sshd")
    assert not web.compromised
