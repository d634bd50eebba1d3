"""Spot pricing: pure repricing function, seeded pricer, ledger wiring."""

import math

import pytest

from repro.core.billing import BillingLedger
from repro.market import PricingParams, SpotPricer, reprice
from repro.sim import RandomStreams, Simulator


def test_reprice_raises_price_above_target_utilization():
    p = PricingParams()
    assert reprice(1.0, 0.9, p) > 1.0


def test_reprice_lowers_price_below_target_utilization():
    p = PricingParams()
    assert reprice(1.0, 0.2, p) < 1.0


def test_reprice_holds_at_target():
    p = PricingParams()
    assert reprice(1.0, p.target_utilization, p) == pytest.approx(1.0)


def test_reprice_clamped_to_floor_and_ceiling():
    p = PricingParams(floor=0.5, ceiling=2.0)
    assert reprice(0.5, 0.0, p) == pytest.approx(0.5)
    assert reprice(2.0, 1.0, p) == pytest.approx(2.0)


def test_reprice_is_pure():
    p = PricingParams()
    assert reprice(1.3, 0.8, p) == reprice(1.3, 0.8, p)


def test_params_validated():
    with pytest.raises(ValueError):
        PricingParams(floor=2.0, ceiling=1.0)
    with pytest.raises(ValueError):
        PricingParams(target_utilization=1.5)
    with pytest.raises(ValueError):
        PricingParams(interval_s=0.0)


@pytest.mark.parametrize("field", ["sensitivity", "interval_s", "jitter_sigma"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_params_reject_non_finite(field, bad):
    with pytest.raises(ValueError, match="finite"):
        PricingParams(**{field: bad})


def test_tick_records_history_and_notifies():
    pricer = SpotPricer()
    heard = []
    pricer.add_listener(lambda now, rate: heard.append((now, rate)))
    r1 = pricer.tick(10.0, 0.9)
    r2 = pricer.tick(20.0, 0.9)
    assert pricer.history == [(10.0, 0.9, r1), (20.0, 0.9, r2)]
    assert heard == [(10.0, r1), (20.0, r2)]
    assert r2 > r1 > 1.0
    assert pricer.n_ticks == 2


def test_rate_at_replays_history():
    pricer = SpotPricer()
    r1 = pricer.tick(10.0, 0.9)
    r2 = pricer.tick(20.0, 0.9)
    assert pricer.rate_at(0.0) == pytest.approx(1.0)
    assert pricer.rate_at(10.0) == pytest.approx(r1)
    assert pricer.rate_at(15.0) == pytest.approx(r1)
    assert pricer.rate_at(25.0) == pytest.approx(r2)


def test_tick_pushes_rate_into_attached_ledger():
    pricer = SpotPricer()
    ledger = BillingLedger()
    pricer.attach_ledger(ledger)
    ledger.service_started(service="s", asp="acme", now=0.0, m_units=1)
    new_rate = pricer.tick(3600.0, 0.95)
    assert ledger.rate_per_m_hour == pytest.approx(new_rate)
    # The first hour accrued at the base rate, split at the tick.
    assert ledger.gross("acme", 3600.0) == pytest.approx(1.0)


def test_seeded_jitter_is_deterministic():
    params = PricingParams(jitter_sigma=0.1)

    def path(seed):
        pricer = SpotPricer(params, streams=RandomStreams(seed))
        return [pricer.tick(float(i), 0.8) for i in range(1, 20)]

    assert path(42) == path(42)
    assert path(1) != path(2)


def test_run_process_reprices_on_cadence():
    sim = Simulator()
    loads = iter([0.9, 0.9, 0.5, 0.5])
    pricer = SpotPricer(
        PricingParams(interval_s=10.0),
        utilization_fn=lambda: next(loads),
    )
    sim.process(pricer.run(sim, duration_s=40.0), name="pricer")
    sim.run()
    assert [t for t, _u, _r in pricer.history] == [10.0, 20.0, 30.0, 40.0]


def test_run_requires_utilization_fn():
    sim = Simulator()
    pricer = SpotPricer()
    with pytest.raises(ValueError, match="utilization_fn"):
        next(pricer.run(sim, duration_s=10.0))
