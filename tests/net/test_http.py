"""Unit tests for the HTTP/1.1 transfer model."""

import pytest

from repro.net.http import TCP_EFFICIENCY, HttpModel
from repro.net.lan import LAN
from repro.sim import Simulator


def build(bandwidth=100.0, latency=0.0):
    sim = Simulator()
    lan = LAN(sim, bandwidth_mbps=bandwidth, latency_s=latency)
    http = HttpModel(sim, lan)
    client = lan.nic("client", 1000.0)
    server = lan.nic("server", 1000.0)
    return sim, lan, http, client, server


def run_download(sim, http, client, server, **kwargs):
    proc = sim.process(http.download(client, server, **kwargs))
    sim.run()
    return proc.value


def test_download_time_dominated_by_bandwidth():
    sim, lan, http, client, server = build(bandwidth=100.0)
    stats = run_download(sim, http, client, server, size_mb=12.5)
    # 12.5 MB payload inflated by 1/TCP_EFFICIENCY at 12.5 MB/s.
    expected = (12.5 / TCP_EFFICIENCY) / 12.5
    assert stats.elapsed == pytest.approx(expected, rel=0.01)


def test_download_linear_in_size():
    """Paper §4.3: downloading time grows linearly with image size."""
    times = []
    for size in [10.0, 20.0, 40.0, 80.0]:
        sim, lan, http, client, server = build(bandwidth=100.0)
        stats = run_download(sim, http, client, server, size_mb=size)
        times.append(stats.elapsed)
    ratios = [t2 / t1 for t1, t2 in zip(times, times[1:])]
    for ratio in ratios:
        assert ratio == pytest.approx(2.0, rel=0.02)


def test_server_time_added():
    sim, lan, http, client, server = build()
    fast = run_download(sim, http, client, server, size_mb=1.0)
    sim2, lan2, http2, client2, server2 = build()
    slow = run_download(sim2, http2, client2, server2, size_mb=1.0, server_time_s=0.5)
    assert slow.elapsed == pytest.approx(fast.elapsed + 0.5, rel=0.01)
    assert slow.server_time_s == 0.5


def test_handshake_paid_once_per_session():
    sim, lan, http, client, server = build(latency=0.01)
    session = http.session(client, server)
    stats = []

    def proc(sim):
        for _ in range(3):
            s = yield from http.exchange(session, response_mb=0.1)
            stats.append(s)

    sim.process(proc(sim))
    sim.run()
    assert stats[0].connection_setup_s > 0
    assert stats[1].connection_setup_s == 0
    assert stats[2].connection_setup_s == 0
    assert session.requests_served == 3


def test_rate_cap_applies_to_response():
    sim, lan, http, client, server = build(bandwidth=100.0)
    stats = run_download(sim, http, client, server, size_mb=1.25, rate_cap_mbps=10.0)
    # 1.25 MB payload -> ~1.33 MB wire at 1.25 MB/s cap.
    expected = (1.25 / TCP_EFFICIENCY) / 1.25
    assert stats.elapsed == pytest.approx(expected, rel=0.02)


def test_exchange_validation():
    sim, lan, http, client, server = build()
    session = http.session(client, server)

    def bad_size(sim):
        yield from http.exchange(session, response_mb=-1)

    def bad_time(sim):
        yield from http.exchange(session, response_mb=1, server_time_s=-1)

    sim.process(bad_size(sim))
    with pytest.raises(ValueError):
        sim2 = Simulator()
        lan2 = LAN(sim2, bandwidth_mbps=100.0)
        http2 = HttpModel(sim2, lan2)
        c2, s2 = lan2.nic("c", 100.0), lan2.nic("s", 100.0)
        session2 = http2.session(c2, s2)

        def bad(sim):
            yield from http2.exchange(session2, response_mb=-1)

        sim2.process(bad(sim2))
        sim2.run()


def test_zero_size_response_allowed():
    """A zero-length body is a valid exchange (header-only response):
    nothing goes on the wire and delivery costs one propagation delay,
    even though the LAN model itself rejects zero-size flows."""
    sim, lan, http, client, server = build(latency=0.01)
    session = http.session(client, server)
    stats = []

    def proc(sim):
        s = yield from http.exchange(session, response_mb=0.0)
        stats.append(s)

    sim.process(proc(sim))
    sim.run()
    assert len(stats) == 1
    assert stats[0].payload_mb == 0.0
    assert stats[0].elapsed > 0
    assert session.requests_served == 1
    assert not lan.active_flows


def test_goodput_reported():
    sim, lan, http, client, server = build(bandwidth=100.0)
    stats = run_download(sim, http, client, server, size_mb=12.5)
    assert stats.goodput_mbps == pytest.approx(100.0 * TCP_EFFICIENCY, rel=0.02)


def test_concurrent_downloads_share_bandwidth():
    sim, lan, http, _, _ = build(bandwidth=100.0)
    repo = lan.nic("repo", 1000.0)
    results = {}

    def downloader(sim, name):
        nic = lan.nic(name, 1000.0)
        stats = yield from http.download(nic, repo, size_mb=6.25)
        results[name] = stats

    sim.process(downloader(sim, "host1"))
    sim.process(downloader(sim, "host2"))
    sim.run()
    # Two 6.25 MB downloads sharing 100 Mbps take ~2x a lone one.
    for stats in results.values():
        assert stats.elapsed == pytest.approx(2 * 6.25 / TCP_EFFICIENCY / 12.5, rel=0.05)
