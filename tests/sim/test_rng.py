"""Unit tests for seeded named random streams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host.scheduler import ProportionalShareScheduler, TaskGroup, WorkloadSpec
from repro.sim import RandomStreams


def test_same_seed_same_draws():
    a = RandomStreams(seed=7).stream("x")
    b = RandomStreams(seed=7).stream("x")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_independent():
    streams = RandomStreams(seed=7)
    xs = [streams.stream("x").random() for _ in range(5)]
    ys = [streams.stream("y").random() for _ in range(5)]
    assert xs != ys


def test_order_of_first_use_does_not_matter():
    fresh = RandomStreams(seed=3).stream("a")
    first, second = fresh.random(), fresh.random()
    s1 = RandomStreams(seed=3)
    s2 = RandomStreams(seed=3)
    # s1 touches "b" before "a"; s2 draws from "a" first.
    s1.stream("b").random()
    s2.stream("a").random()
    assert s1.stream("a").random() == first
    assert s2.stream("a").random() == second
    fresh2 = RandomStreams(seed=3)
    fresh2.stream("zzz")  # creating an unrelated stream must not perturb "a"
    assert fresh2.stream("a").random() == first


def test_stream_cached_by_name():
    streams = RandomStreams(seed=1)
    assert streams.stream("a") is streams.stream("a")


def test_seed_type_checked():
    with pytest.raises(TypeError):
        RandomStreams(seed="abc")
    with pytest.raises(TypeError):
        RandomStreams(seed=True)
    with pytest.raises(TypeError):
        RandomStreams(seed=3.0)


def test_integral_seed_types_are_one_seed():
    numpy_seeded = RandomStreams(seed=np.int64(3))
    assert numpy_seeded.seed == 3 and type(numpy_seeded.seed) is int
    assert numpy_seeded.exponential("e", 1.0) == RandomStreams(seed=3).exponential("e", 1.0)


def test_spawn_children_are_stable_and_distinct():
    parent = RandomStreams(seed=11)
    child1 = parent.spawn("rep-1")
    child2 = parent.spawn("rep-2")
    again = RandomStreams(seed=11).spawn("rep-1")
    assert child1.seed == again.seed
    assert child1.seed != child2.seed


def test_exponential_mean_and_validation():
    streams = RandomStreams(seed=5)
    draws = [streams.exponential("e", mean=2.0) for _ in range(4000)]
    assert sum(draws) / len(draws) == pytest.approx(2.0, rel=0.1)
    with pytest.raises(ValueError):
        streams.exponential("e", mean=0)


def test_uniform_bounds_and_validation():
    streams = RandomStreams(seed=5)
    for _ in range(100):
        x = streams.uniform("u", 2.0, 3.0)
        assert 2.0 <= x <= 3.0
    with pytest.raises(ValueError):
        streams.uniform("u", 3.0, 2.0)


def test_normal_validation():
    streams = RandomStreams(seed=5)
    assert streams.normal("n", 10.0, 0.0) == 10.0
    with pytest.raises(ValueError):
        streams.normal("n", 0.0, -1.0)


def test_lognormal_factor_median_one():
    streams = RandomStreams(seed=5)
    assert streams.lognormal_factor("l", 0.0) == 1.0
    draws = sorted(streams.lognormal_factor("l", 0.3) for _ in range(4001))
    median = draws[len(draws) // 2]
    assert median == pytest.approx(1.0, rel=0.1)
    with pytest.raises(ValueError):
        streams.lognormal_factor("l", -0.1)


def test_choice_range_and_validation():
    streams = RandomStreams(seed=5)
    seen = {streams.choice("c", 3) for _ in range(200)}
    assert seen == {0, 1, 2}
    with pytest.raises(ValueError):
        streams.choice("c", 0)


@pytest.mark.parametrize(
    "draw",
    [
        lambda s: s.exponential("e", math.nan),
        lambda s: s.exponential("e", math.inf),
        lambda s: s.uniform("u", 0.0, math.inf),
        lambda s: s.uniform("u", math.nan, 1.0),
        lambda s: s.uniform("u", -1e308, 1e308),
        lambda s: s.normal("n", math.nan, 1.0),
        lambda s: s.normal("n", 0.0, math.nan),
        lambda s: s.normal("n", 0.0, math.inf),
        lambda s: s.lognormal("n", 0.0, math.nan),
        lambda s: s.lognormal_factor("l", math.nan),
        lambda s: s.lognormal_factor("l", math.inf),
        lambda s: s.pareto("x", 0.0),
        lambda s: s.pareto("x", math.nan),
        lambda s: s.poisson("p", math.nan),
        lambda s: s.poisson("p", math.inf),
        lambda s: s.poisson("p", -1.0),
    ],
)
def test_non_finite_parameters_rejected(draw):
    with pytest.raises(ValueError):
        draw(RandomStreams(seed=5))


# -- block reads equal scalar draws -------------------------------------------

#: family -> (parameter strategy, block read, numpy scalar draw).
FAMILIES = {
    "exponential": (
        st.tuples(st.floats(1e-3, 1e3)),
        lambda s, name, p: s.exponential(name, p[0]),
        lambda g, p: g.exponential(p[0]),
    ),
    "uniform": (
        st.tuples(st.floats(-1e3, 1e3), st.floats(0.0, 1e3)),
        lambda s, name, p: s.uniform(name, p[0], p[0] + p[1]),
        lambda g, p: g.uniform(p[0], p[0] + p[1]),
    ),
    "normal": (
        st.tuples(st.floats(-1e3, 1e3), st.floats(0.0, 1e2)),
        lambda s, name, p: s.normal(name, p[0], p[1]),
        lambda g, p: g.normal(p[0], p[1]),
    ),
    "lognormal": (
        st.tuples(st.floats(-5.0, 5.0), st.floats(0.0, 3.0)),
        lambda s, name, p: s.lognormal(name, p[0], p[1]),
        lambda g, p: g.lognormal(p[0], p[1]),
    ),
    "lognormal_factor": (
        st.tuples(st.floats(1e-3, 3.0)),
        lambda s, name, p: s.lognormal_factor(name, p[0]),
        lambda g, p: g.lognormal(0.0, p[0]),
    ),
    "pareto": (
        st.tuples(st.floats(0.1, 10.0)),
        lambda s, name, p: s.pareto(name, p[0]),
        lambda g, p: g.pareto(p[0]),
    ),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=20, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32))
def test_block_reads_equal_scalar_draws(family, data, seed):
    """Runs of draws on three interleaved names, with parameters that
    change from call to call, cross block boundaries and still equal a
    fresh generator's scalar draws value for value."""
    params, block_read, scalar = FAMILIES[family]
    runs = data.draw(
        st.lists(st.tuples(st.integers(0, 2), st.integers(1, 300)), min_size=1, max_size=6)
    )
    streams, reference = RandomStreams(seed), RandomStreams(seed)
    for which, count in runs:
        name = f"{family}-{which}"
        ps = [data.draw(params) for _ in range(3)]
        got = [block_read(streams, name, ps[i % 3]) for i in range(count)]
        want = [float(scalar(reference.stream(name), ps[i % 3])) for i in range(count)]
        assert got == want


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    means=st.lists(st.floats(0.1, 50.0), min_size=3, max_size=3),
    runs=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 300)), min_size=1, max_size=6),
)
def test_poisson_block_reads_equal_scalar_draws(seed, means, runs):
    """One fixed mean per name (both sides of numpy's lam = 10 switch)."""
    streams, reference = RandomStreams(seed), RandomStreams(seed)
    for which, count in runs:
        name, mean = f"p-{which}", means[which]
        got = [streams.poisson(name, mean) for _ in range(count)]
        want = [int(reference.stream(name).poisson(mean)) for _ in range(count)]
        assert got == want


def test_normal_family_draws_share_one_block():
    streams, reference = RandomStreams(seed=9), RandomStreams(seed=9)
    generator = reference.stream("z")
    for _ in range(300):
        assert streams.normal("z", 1.0, 2.0) == float(generator.normal(1.0, 2.0))
        assert streams.lognormal_factor("z", 0.5) == float(generator.lognormal(0.0, 0.5))
        assert streams.lognormal("z", 0.3, 0.2) == float(generator.lognormal(0.3, 0.2))


class _RecordingStreams(RandomStreams):
    def __init__(self, seed):
        super().__init__(seed)
        self.drawn = []

    def lognormal_factor(self, name, sigma):
        value = super().lognormal_factor(name, sigma)
        self.drawn.append((name, sigma, value))
        return value


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32), horizons=st.tuples(st.floats(0.5, 8.0), st.floats(0.5, 8.0)))
def test_second_scheduler_run_continues_each_stream(seed, horizons):
    """A second ``run()`` reads on from the entries the first one left
    in each task's block: every jitter of both runs, per task, equals
    the scalar lognormal draws of a fresh generator."""
    groups = [
        TaskGroup("web", (WorkloadSpec.web_server(),) * 2, tickets=2.0),
        TaskGroup("log", (WorkloadSpec.disk_logger(),)),
    ]
    streams = _RecordingStreams(seed)
    scheduler = ProportionalShareScheduler(groups, streams)
    scheduler.run(horizons[0])
    first = len(streams.drawn)
    scheduler.run(horizons[1])
    assert 0 < first < len(streams.drawn)
    reference = RandomStreams(seed)
    for name, sigma, value in streams.drawn:
        assert value == float(reference.stream(name).lognormal(0.0, sigma))


# -- stream ownership ----------------------------------------------------------


def test_second_family_on_a_name_raises():
    streams = RandomStreams(seed=1)
    streams.exponential("x", 1.0)
    with pytest.raises(ValueError, match="already reads standard exponential"):
        streams.normal("x", 0.0, 1.0)
    with pytest.raises(ValueError, match="already reads"):
        streams.uniform("x", 0.0, 1.0)


def test_poisson_mean_change_on_a_name_raises():
    streams = RandomStreams(seed=1)
    streams.poisson("p", 2.0)
    assert streams.poisson("p", 2) >= 0  # the same mean, as an int
    with pytest.raises(ValueError, match="Poisson variates of mean 2.0"):
        streams.poisson("p", 3.0)


def test_stream_on_a_block_read_name_raises():
    streams = RandomStreams(seed=1)
    streams.lognormal_factor("l", 0.3)
    with pytest.raises(ValueError, match="generator handed out by stream"):
        streams.stream("l")


def test_block_read_on_a_handed_out_name_raises():
    streams = RandomStreams(seed=1)
    streams.stream("g")
    with pytest.raises(ValueError, match="already reads the generator"):
        streams.exponential("g", 1.0)
    streams.choice("c", 3)  # choice draws through stream()
    with pytest.raises(ValueError, match="already reads the generator"):
        streams.uniform("c", 0.0, 1.0)
