"""Unit tests for the syscall interposition cost model (Table 4)."""

import pytest

from repro.guestos.syscall import (
    PAPER_TABLE4_HOST_CYCLES,
    PAPER_TABLE4_UML_CYCLES,
    SyscallCostModel,
    SyscallMix,
)


def test_host_costs_match_paper_exactly():
    model = SyscallCostModel()
    for name, cycles in PAPER_TABLE4_HOST_CYCLES.items():
        assert model.host_cycles(name) == cycles


def test_uml_costs_close_to_paper():
    """Modelled UML cost = host + interception; within 3% of Table 4."""
    model = SyscallCostModel()
    for name, paper_cycles in PAPER_TABLE4_UML_CYCLES.items():
        assert model.uml_cycles(name) == pytest.approx(paper_cycles, rel=0.03)


def test_syscall_slowdown_magnitude():
    """Table 4's headline: ~20-27x slow-down per syscall."""
    model = SyscallCostModel()
    for name in PAPER_TABLE4_HOST_CYCLES:
        slowdown = model.syscall_slowdown(name)
        assert 18.0 <= slowdown <= 30.0


def test_gettimeofday_is_the_worst():
    model = SyscallCostModel()
    costs = {n: model.uml_cycles(n) for n in model.known_syscalls}
    assert max(costs, key=costs.get) == "gettimeofday"


def test_unknown_syscall_uses_default():
    model = SyscallCostModel()
    assert model.host_cycles("read") > 0
    assert model.uml_cycles("read") > model.host_cycles("read")


def test_cycles_dispatch():
    model = SyscallCostModel()
    assert model.cycles("getpid", in_uml=True) == model.uml_cycles("getpid")
    assert model.cycles("getpid", in_uml=False) == model.host_cycles("getpid")


def test_time_s_scaling():
    model = SyscallCostModel()
    fast = model.time_s("getpid", cpu_mhz=2600.0, in_uml=False)
    slow = model.time_s("getpid", cpu_mhz=1300.0, in_uml=False)
    assert slow == pytest.approx(2 * fast)
    with pytest.raises(ValueError):
        model.time_s("getpid", cpu_mhz=0, in_uml=False)


def test_mix_validation():
    with pytest.raises(ValueError):
        SyscallMix(user_mcycles=-1, n_syscalls=0)
    with pytest.raises(ValueError):
        SyscallMix(user_mcycles=0, n_syscalls=-1)


def test_application_slowdown_small_for_user_heavy_mix():
    """Figure 6's point: app-level slow-down << syscall-level."""
    model = SyscallCostModel()
    mix = SyscallMix(user_mcycles=3.0, n_syscalls=60)
    slowdown = model.application_slowdown(mix)
    assert 1.1 < slowdown < 2.0


def test_application_slowdown_approaches_syscall_ratio_without_user_work():
    model = SyscallCostModel()
    mix = SyscallMix(user_mcycles=0.0, n_syscalls=1000)
    assert model.application_slowdown(mix) == pytest.approx(
        model.syscall_slowdown("getpid"), rel=0.2
    )


def test_application_slowdown_of_pure_user_work_is_one():
    model = SyscallCostModel()
    assert SyscallCostModel().application_slowdown(
        SyscallMix(user_mcycles=10.0, n_syscalls=0)
    ) == pytest.approx(1.0)
    assert model.application_slowdown(SyscallMix(0.0, 0.0)) == 1.0


def test_mix_time_monotone_in_load():
    model = SyscallCostModel()
    small = SyscallMix(user_mcycles=1.0, n_syscalls=10)
    large = SyscallMix(user_mcycles=2.0, n_syscalls=20)
    assert model.mix_time_s(large, 2600, True) > model.mix_time_s(small, 2600, True)
    with pytest.raises(ValueError):
        model.mix_time_s(small, 0, True)


def test_table4_regeneration_structure():
    table = SyscallCostModel().table4()
    assert set(table) == set(PAPER_TABLE4_HOST_CYCLES)
    for row in table.values():
        assert row["in_uml"] > row["in_host_os"]


def test_model_validation():
    with pytest.raises(ValueError):
        SyscallCostModel(interception_cycles=-1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_mix_rejects_non_finite_or_negative_fields(bad):
    with pytest.raises(ValueError, match="user cycles must be finite"):
        SyscallMix(user_mcycles=bad, n_syscalls=10)
    with pytest.raises(ValueError, match="syscall count must be finite"):
        SyscallMix(user_mcycles=1.0, n_syscalls=bad)
