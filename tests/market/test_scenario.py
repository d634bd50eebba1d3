"""The market contention scenario: invariants and market-vs-FCFS facts."""

import math
from dataclasses import replace

import pytest

from repro.market import fast_params, run_market_scenario

PARAMS = fast_params(duration_s=120.0, n_tenants=60)


@pytest.fixture(scope="module")
def market():
    return run_market_scenario(seed=11, policy="market", params=PARAMS)


@pytest.fixture(scope="module")
def fcfs():
    return run_market_scenario(seed=11, policy="fcfs", params=PARAMS)


def test_conservation_holds(market, fcfs):
    for report in (market, fcfs):
        assert report.conservation_holds()
        assert report.expired <= report.rejected
        assert report.preempted <= report.admitted


def test_no_tenant_billed_past_budget(market, fcfs):
    for report in (market, fcfs):
        assert report.over_budget_tenants() == []
        for tenant in report.tenants:
            assert tenant.spent <= tenant.budget + 1e-9
            assert tenant.committed == pytest.approx(0.0)  # all settled


def test_revenue_is_gross_net_of_credits(market):
    deducted = sum(
        min(market.ledger.gross(t.name, market.finished_at),
            market.ledger.credit_total(asp=t.name))
        for t in market.tenants
    )
    assert market.revenue() == pytest.approx(
        market.gross_revenue() - deducted
    )


def test_spot_price_stays_in_band(market):
    pricing = market.params.pricing
    for _t, _u, rate in market.price_history:
        assert pricing.floor <= rate <= pricing.ceiling


def test_market_actually_repriced_and_preempted(market):
    rates = {rate for _t, _u, rate in market.price_history}
    assert len(rates) > 1  # the price moved
    assert market.requested > 0
    assert market.admitted > 0


def test_fcfs_charges_flat_rate(fcfs):
    assert all(
        rate == fcfs.params.flat_rate for _t, _u, rate in fcfs.price_history
    )
    assert fcfs.preempted == 0  # nobody is ever outbid at a flat rate


def test_market_credit_exposure_not_worse_than_fcfs(market, fcfs):
    assert market.total_credits() <= fcfs.total_credits() + 1e-9


def test_same_seed_same_digest():
    a = run_market_scenario(seed=5, policy="market", params=PARAMS)
    b = run_market_scenario(seed=5, policy="market", params=PARAMS)
    assert a.digest() == b.digest()


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        run_market_scenario(seed=0, policy="communism", params=PARAMS)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field",
    [
        "duration_s", "mean_hold_s", "mean_calm_s", "mean_burst_s",
        "patience_s", "load_factor", "burst_factor",
    ],
)
def test_params_reject_non_finite_floats(field, bad):
    with pytest.raises(ValueError, match=field):
        replace(fast_params(50.0, 10), **{field: bad})


@pytest.mark.parametrize("field", ["mean_hold_s", "mean_calm_s", "mean_burst_s"])
@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_params_reject_non_positive_means(field, bad):
    with pytest.raises(ValueError, match=field):
        replace(fast_params(50.0, 10), **{field: bad})


def test_params_accept_zero_patience():
    assert replace(fast_params(50.0, 10), patience_s=0.0).patience_s == 0.0
