"""Unit tests for the token bucket and per-IP traffic shaper."""

import math
import random

import pytest

from repro.host.traffic import TokenBucket, TrafficShaper


def test_bucket_validation():
    with pytest.raises(ValueError):
        TokenBucket(rate_mbps=0, burst_mb=1)
    with pytest.raises(ValueError):
        TokenBucket(rate_mbps=10, burst_mb=0)


@pytest.mark.parametrize("field", ["rate_mbps", "burst_mb"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_bucket_rejects_non_finite(field, bad):
    params = {"rate_mbps": 10.0, "burst_mb": 1.0, field: bad}
    with pytest.raises(ValueError, match="positive and finite"):
        TokenBucket(**params)


def test_bucket_starts_full():
    bucket = TokenBucket(rate_mbps=8.0, burst_mb=5.0)
    assert bucket.tokens(0.0) == 5.0
    assert bucket.try_consume(0.0, 5.0)
    assert not bucket.try_consume(0.0, 0.1)


def test_bucket_refills_at_rate():
    bucket = TokenBucket(rate_mbps=8.0, burst_mb=10.0)  # 1 MB/s
    bucket.try_consume(0.0, 10.0)
    assert bucket.tokens(3.0) == pytest.approx(3.0)
    assert bucket.try_consume(3.0, 3.0)
    assert not bucket.try_consume(3.0, 0.5)


def test_bucket_never_exceeds_burst():
    bucket = TokenBucket(rate_mbps=80.0, burst_mb=2.0)
    assert bucket.tokens(100.0) == 2.0


def test_bucket_time_monotonicity_enforced():
    bucket = TokenBucket(rate_mbps=8.0, burst_mb=1.0)
    bucket.tokens(5.0)
    with pytest.raises(ValueError):
        bucket.tokens(4.0)


def test_bucket_negative_consume_rejected():
    bucket = TokenBucket(rate_mbps=8.0, burst_mb=1.0)
    with pytest.raises(ValueError):
        bucket.try_consume(0.0, -1)


def test_delay_until_available():
    bucket = TokenBucket(rate_mbps=8.0, burst_mb=10.0)  # 1 MB/s
    bucket.try_consume(0.0, 10.0)
    assert bucket.delay_until_available(0.0, 4.0) == pytest.approx(4.0)
    assert bucket.delay_until_available(5.0, 4.0) == pytest.approx(0.0)


@pytest.mark.parametrize("offset", [0.0, 1e4, 1e7, 1e9])
def test_waiting_the_delay_always_suffices(offset):
    """A caller that waits exactly ``delay_until_available`` gets its
    tokens at any clock value, though ``now + delay`` rounds to the
    clock's step there."""
    rng = random.Random(7)
    for _ in range(200):
        bucket = TokenBucket(rate_mbps=rng.uniform(1.0, 1000.0), burst_mb=rng.uniform(0.1, 10.0))
        bucket.try_consume(offset, bucket.burst_mb * rng.uniform(0.5, 1.0))
        size = rng.uniform(0.01, bucket.burst_mb)
        delay = bucket.delay_until_available(offset, size)
        assert bucket.try_consume(offset + delay, size)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_size_rejected(bad):
    bucket = TokenBucket(rate_mbps=8.0, burst_mb=1.0)
    with pytest.raises(ValueError, match="finite"):
        bucket.try_consume(0.0, bad)
    with pytest.raises(ValueError, match="finite"):
        bucket.delay_until_available(0.0, bad)
    with pytest.raises(ValueError, match="finite"):
        bucket.tokens(bad)


def test_delay_for_oversized_request_rejected():
    bucket = TokenBucket(rate_mbps=8.0, burst_mb=1.0)
    with pytest.raises(ValueError, match="fragment"):
        bucket.delay_until_available(0.0, 2.0)


def test_steady_state_throughput_approaches_rate():
    """Property: over a long window, admitted volume ~ rate * time + burst."""
    bucket = TokenBucket(rate_mbps=8.0, burst_mb=2.0)  # 1 MB/s
    sent = 0.0
    t = 0.0
    while t < 100.0:
        if bucket.try_consume(t, 0.5):
            sent += 0.5
        t += 0.1
    assert sent <= 1.0 * 100.0 + 2.0 + 1e-9
    assert sent >= 1.0 * 100.0 - 1.0


def test_shaper_install_and_cap():
    shaper = TrafficShaper("seattle", enforced=True)
    shaper.install("128.10.9.125", 10.0)
    shaper.install("128.10.9.126", 20.0)
    assert shaper.cap_for("128.10.9.125") == 10.0
    assert shaper.cap_for("128.10.9.200") is None
    assert shaper.n_entries == 2
    assert shaper.total_allocated_mbps() == 30.0


def test_shaper_unenforced_by_default():
    """The paper's shaper was work-in-progress (§4.2): entries are
    installed but caps apply only once enforcement is enabled."""
    shaper = TrafficShaper()
    shaper.install("10.0.0.1", 10.0)
    assert shaper.share_for("10.0.0.1") == 10.0
    assert shaper.cap_for("10.0.0.1") is None
    shaper.enforced = True
    assert shaper.cap_for("10.0.0.1") == 10.0


def test_shaper_update_overwrites():
    shaper = TrafficShaper(enforced=True)
    shaper.install("10.0.0.1", 10.0)
    shaper.install("10.0.0.1", 25.0)
    assert shaper.cap_for("10.0.0.1") == 25.0
    assert shaper.n_entries == 1


def test_shaper_remove():
    shaper = TrafficShaper(enforced=True)
    shaper.install("10.0.0.1", 10.0)
    shaper.remove("10.0.0.1")
    assert shaper.cap_for("10.0.0.1") is None
    with pytest.raises(KeyError):
        shaper.remove("10.0.0.1")


def test_shaper_rejects_nonpositive_rate():
    shaper = TrafficShaper()
    with pytest.raises(ValueError):
        shaper.install("10.0.0.1", 0)
