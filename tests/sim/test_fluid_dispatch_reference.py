"""Fluid host dispatch against the host-wide vectorized reference.

``FluidCluster.dispatch_batch`` evaluates its closed form once per count
run for the idle hosts and exactly only for the hosts still backlogged.
The reference below is the form it replaced: one NumPy pass over every
host, both the saturated and the unsaturated branch evaluated and picked
by ``np.where``.  Both must return the same ``(completion,
mean_sojourn)`` and leave the same three ledgers and rotation cursor,
compared with ``==`` and byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.fluid import FluidCluster
from repro.sim.kernel import Simulator


def reference_dispatch(cluster, now, n, service_s, window_s=0.0):
    """The host-wide vectorized dispatch, one array op per formula term."""
    h = cluster.n_hosts
    unit = service_s / cluster.workers_per_host
    base, extra = divmod(n, h)
    counts = np.full(h, base, dtype=np.int64)
    if extra:
        take = (np.arange(h) - cluster._cursor) % h < extra
        counts[take] += 1
        cluster._cursor = (cluster._cursor + extra) % h
    involved = counts > 0
    k = counts[involved].astype(np.float64)
    t0 = now - window_s
    b0 = np.maximum(cluster.busy_until[involved] - now, 0.0)
    d = window_s / k
    slack = d - unit
    sat = slack <= 0.0
    safe_slack = np.where(sat, 1.0, slack)
    sum_sat = k * (b0 + unit) - slack * (k * (k - 1.0) / 2.0)
    finish_sat = b0 + k * unit
    m = np.minimum(k, np.ceil(b0 / safe_slack))
    sum_unsat = k * unit + m * b0 - slack * (m * (m - 1.0) / 2.0)
    finish_unsat = (k - 1.0) * d + unit + np.maximum(
        0.0, b0 - (k - 1.0) * slack
    )
    mean_sojourn = float(np.where(sat, sum_sat, sum_unsat).sum()) / n
    finish = t0 + np.where(sat, finish_sat, finish_unsat)
    cluster.busy_until[involved] = finish
    cluster.served += counts
    cluster.busy_s[involved] += k * service_s
    return float(finish.max()), mean_sojourn


def clusters(n_hosts, workers):
    return (
        FluidCluster(Simulator(), "c", n_hosts, workers_per_host=workers),
        FluidCluster(Simulator(), "ref", n_hosts, workers_per_host=workers),
    )


def assert_same_state(cluster, ref):
    assert cluster.busy_until.tobytes() == ref.busy_until.tobytes()
    assert cluster.served.tobytes() == ref.served.tobytes()
    assert cluster.busy_s.tobytes() == ref.busy_s.tobytes()
    assert cluster._cursor == ref._cursor


def drive(n_hosts, workers, calls):
    """Run both dispatches over ``calls``; returns how many hosts were
    backlogged before each call."""
    cluster, ref = clusters(n_hosts, workers)
    backlogged = []
    now = 0.0
    for dt, n, service_s, window_s in calls:
        now += dt
        backlogged.append(int((ref.busy_until > now).sum()))
        expected = reference_dispatch(ref, now, n, service_s, window_s)
        assert cluster.dispatch_batch(now, n, service_s, window_s) == expected
        assert_same_state(cluster, ref)
    return backlogged


host_counts = st.one_of(
    st.integers(min_value=1, max_value=9),
    # Around NumPy's 128-element pairwise-summation block.
    st.sampled_from([127, 128, 129, 255, 256, 257, 300]),
    st.integers(min_value=1, max_value=300),
)


@st.composite
def call_sequences(draw):
    n_hosts = draw(host_counts)
    workers = draw(st.integers(min_value=1, max_value=4))
    batch_sizes = st.one_of(
        st.just(1),
        st.integers(min_value=1, max_value=n_hosts),  # n <= h, wraps the cursor
        st.just(n_hosts),
        st.integers(min_value=1, max_value=8).map(lambda j: j * n_hosts),
        st.integers(min_value=n_hosts, max_value=60 * n_hosts),  # n >> h
    )
    gaps = st.one_of(
        st.just(0.0),  # same instant: everything still owed is backlog
        st.floats(min_value=1e-6, max_value=0.05),  # partly drained
        st.floats(min_value=0.5, max_value=5.0),  # fully idle again
    )
    windows = st.one_of(
        st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)
    )
    services = st.one_of(
        st.sampled_from([0.004, 0.01, 0.02]),
        st.floats(min_value=1e-5, max_value=0.2),
    )
    calls = draw(
        st.lists(st.tuples(gaps, batch_sizes, services, windows), min_size=1, max_size=12)
    )
    return n_hosts, workers, calls


@settings(max_examples=300, deadline=None)
@given(call_sequences())
def test_dispatch_sequences_match_reference(sequence):
    drive(*sequence)


@pytest.mark.parametrize("n_hosts", [1, 7, 50, 128, 129, 300])
def test_scripted_backlog_mixes_match_reference(n_hosts):
    """Idle, partly and fully backlogged hosts; saturated, unsaturated and
    instantaneous batches; a cursor that wraps — all on one fleet."""
    calls = [
        (0.0, 3 * n_hosts + 1, 0.02, 0.0),  # instantaneous, saturated
        (0.0, max(1, n_hosts // 2), 0.004, 0.1),  # all backlogged, n < h
        (0.001, 2 * n_hosts - 1, 0.004, 0.5),  # unsaturated, draining backlog
        (0.0, 40 * n_hosts + 3, 0.02, 0.05),  # n >> h, saturated
        (10.0, n_hosts, 0.004, 0.2),  # all idle, one request each
        (0.0, n_hosts + max(1, n_hosts - 1), 0.004, 0.0),  # wraps the cursor
        (0.0005, 1, 0.01, 0.0),  # single request behind a busy host
    ]
    backlogged = drive(n_hosts, 2, calls)
    assert backlogged[0] == 0
    assert backlogged[1] == n_hosts
    assert backlogged[4] == 0
