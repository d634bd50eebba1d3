"""Unit tests for application request profiles."""

import pytest

from repro.guestos.syscall import SyscallCostModel
from repro.net.lan import LAN
from repro.sim import Simulator
from repro.workload.apps import honeypot_probe_request, web_request, web_request_mix


def client():
    sim = Simulator()
    lan = LAN(sim)
    return lan.nic("c", 100.0)


def test_web_mix_scales_with_dataset():
    small = web_request_mix(1.0)
    large = web_request_mix(8.0)
    assert large.user_mcycles > small.user_mcycles
    assert large.n_syscalls > small.n_syscalls
    with pytest.raises(ValueError):
        web_request_mix(-1)


def test_web_mix_slowdown_is_modest_and_size_stable():
    """The Figure 6 property: app-level slow-down ~1.3-1.6x, roughly
    constant across dataset sizes."""
    model = SyscallCostModel()
    slowdowns = [model.application_slowdown(web_request_mix(d)) for d in (1, 2, 4, 8, 16, 32)]
    for s in slowdowns:
        assert 1.25 < s < 1.7
    assert max(slowdowns) - min(slowdowns) < 0.2


def test_web_request_fields():
    c = client()
    request = web_request(c, dataset_mb=4.0)
    assert request.response_mb == 4.0
    assert request.client is c
    assert not request.is_exploit


def test_honeypot_probe_vs_exploit():
    c = client()
    probe = honeypot_probe_request(c)
    exploit = honeypot_probe_request(c, exploit=True)
    assert not probe.is_exploit
    assert exploit.is_exploit
    assert exploit.label == "exploit"
    assert probe.response_mb < 0.1


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -0.5])
def test_web_mix_and_request_reject_non_finite_or_negative_sizes(bad):
    with pytest.raises(ValueError, match="finite and non-negative"):
        web_request_mix(bad)
    with pytest.raises(ValueError, match="finite and non-negative"):
        web_request(client(), bad)
