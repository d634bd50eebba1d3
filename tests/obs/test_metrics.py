"""Tests for the labeled metrics registry."""

import ast
import math
import pathlib
import re

import pytest

import repro
from repro.obs.metrics import (
    FAMILIES,
    FLUID_BATCHES,
    NODE_SERVED,
    SWITCH_REQUESTS,
    SWITCH_TIMEOUTS,
    Counter,
    MetricsRegistry,
    registry_of,
)

SRC = pathlib.Path(repro.__file__).parent
DOCS = SRC.parents[1] / "docs" / "OBSERVABILITY.md"


def test_counter_inc_and_value():
    registry = MetricsRegistry()
    c = registry.counter("soda_test_total", "help", ("service",))
    c.inc(service="web")
    c.inc(2.5, service="web")
    c.inc(service="db")
    assert c.value(service="web") == 3.5
    assert c.value(service="db") == 1.0


def test_counter_rejects_negative_increment():
    registry = MetricsRegistry()
    c = registry.counter("soda_up_total")
    with pytest.raises(ValueError, match="only go up"):
        c.inc(-1.0)


@pytest.mark.parametrize("amount", [math.nan, math.inf])
def test_counter_rejects_non_finite_increment(amount):
    registry = MetricsRegistry()
    c = registry.counter("soda_finite_total", labels=("k",))
    with pytest.raises(ValueError, match="finite"):
        c.inc(amount, k="v")
    with pytest.raises(ValueError, match="finite"):
        c.labels(k="v").inc(amount)
    assert c.value(k="v") == 0.0  # nothing was added


def test_gauge_set_inc_dec():
    registry = MetricsRegistry()
    g = registry.gauge("soda_inflight", labels=("node",))
    g.set(4.0, node="n0")
    g.inc(node="n0")
    g.dec(2.0, node="n0")
    assert g.value(node="n0") == 3.0


def test_histogram_buckets_and_inf():
    registry = MetricsRegistry()
    h = registry.histogram("soda_lat_seconds", buckets=(0.1, 1.0))
    assert h.buckets[-1] == math.inf  # +Inf auto-appended
    h.observe(0.05)
    h.observe(0.5)
    h.observe(100.0)
    child = h.labels()
    assert child.counts == [1, 1, 1]
    assert child.count == 3
    assert child.sum == pytest.approx(100.55)


def test_histogram_rejects_nan_but_keeps_inf():
    registry = MetricsRegistry()
    h = registry.histogram("soda_nan_seconds", buckets=(0.1, 1.0))
    with pytest.raises(ValueError, match="NaN"):
        h.observe(math.nan)
    child = h.labels()
    # A rejected observation leaves count, sum and buckets untouched.
    assert (child.count, child.sum, child.counts) == (0, 0.0, [0, 0, 0])
    h.observe(math.inf)  # the +Inf bucket is a legal destination
    assert child.counts == [0, 0, 1]
    assert child.count == sum(child.counts)


def test_histogram_rejects_bad_buckets():
    registry = MetricsRegistry()
    with pytest.raises(ValueError, match="sorted"):
        registry.histogram("soda_bad_seconds", buckets=(1.0, 0.1))
    with pytest.raises(ValueError, match="at least one bucket"):
        registry.histogram("soda_empty_seconds", buckets=())


def test_label_shape_is_enforced():
    registry = MetricsRegistry()
    c = registry.counter("soda_shape_total", labels=("a", "b"))
    with pytest.raises(ValueError, match="expected labels"):
        c.inc(a="1")  # missing b
    with pytest.raises(ValueError, match="expected labels"):
        c.inc(a="1", b="2", c="3")  # extra


def test_duplicate_label_names_rejected_at_construction():
    registry = MetricsRegistry()
    with pytest.raises(ValueError, match="duplicate label names"):
        registry.counter("soda_dup_total", labels=("a", "a"))
    with pytest.raises(ValueError, match="duplicate label names"):
        registry.histogram("soda_dup_seconds", labels=("a", "b", "a"))
    assert len(registry) == 0  # nothing half-registered


def test_registration_is_idempotent_for_same_shape():
    registry = MetricsRegistry()
    first = registry.counter("soda_idem_total", labels=("x",))
    again = registry.counter("soda_idem_total", labels=("x",))
    assert first is again
    assert len(registry) == 1


def test_registration_rejects_shape_change():
    registry = MetricsRegistry()
    registry.counter("soda_clash_total", labels=("x",))
    with pytest.raises(ValueError, match="already registered"):
        registry.counter("soda_clash_total", labels=("y",))
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("soda_clash_total", labels=("x",))


def test_invalid_metric_name_rejected():
    registry = MetricsRegistry()
    with pytest.raises(ValueError, match="invalid metric name"):
        registry.counter("9starts_with_digit")


def test_collect_sorted_and_snapshot():
    registry = MetricsRegistry()
    registry.gauge("soda_z_gauge").set(2.0)
    registry.counter("soda_a_total", labels=("k",)).inc(k="v")
    registry.histogram("soda_m_seconds", buckets=(1.0,)).observe(0.5)
    assert [m.name for m in registry.collect()] == [
        "soda_a_total", "soda_m_seconds", "soda_z_gauge",
    ]
    snap = registry.snapshot()
    assert snap["soda_a_total"] == {("v",): 1.0}
    assert snap["soda_z_gauge"] == {(): 2.0}
    assert snap["soda_m_seconds_sum"] == {(): 0.5}
    assert snap["soda_m_seconds_count"] == {(): 1.0}


def test_registry_of_defaults_to_none():
    class FakeSim:
        pass

    sim = FakeSim()
    assert registry_of(sim) is None
    sim.metrics = MetricsRegistry()
    assert registry_of(sim) is sim.metrics


# -- declared families and the series memo -----------------------------------


def test_series_binds_a_child_once_per_registry():
    registry = MetricsRegistry()
    child = registry.series[NODE_SERVED, "web@a#0"]
    child.inc()
    assert registry.series[NODE_SERVED, "web@a#0"] is child
    assert registry.get("soda_node_served_total").value(node="web@a#0") == 1.0
    other = MetricsRegistry()
    assert other.series[NODE_SERVED, "web@a#0"] is not child
    assert other.get("soda_node_served_total").value(node="web@a#0") == 0.0


def test_first_record_registers_the_group_and_only_its_own_child():
    registry = MetricsRegistry()
    registry.series[SWITCH_TIMEOUTS, "web"].inc()
    assert {m.name: len(m) for m in registry.collect()} == {
        "soda_switch_requests_total": 0,
        "soda_switch_response_seconds": 0,
        "soda_switch_dispatch_total": 0,
        "soda_switch_failovers_total": 0,
        "soda_switch_timeouts_total": 1,
        "soda_tenant_requests_total": 0,
    }


def test_fluid_batch_registers_the_switch_counter_alone():
    registry = MetricsRegistry()
    registry.series[FLUID_BATCHES, "web", "c0"].inc()
    registry.series[SWITCH_REQUESTS, "web", "ok"].inc(5)
    assert [m.name for m in registry.collect()] == [
        "soda_fluid_batches_total",
        "soda_fluid_mean_sojourn_seconds",
        "soda_switch_requests_total",
    ]


def test_series_checks_values_and_shape():
    registry = MetricsRegistry()
    with pytest.raises(ValueError, match="expected values"):
        registry.series[SWITCH_REQUESTS, "web"]
    clash = MetricsRegistry()
    clash.counter("soda_node_served_total", labels=("shard", "node"))
    with pytest.raises(ValueError, match="already registered"):
        clash.series[NODE_SERVED, "web@a#0"]


def test_get_or_create_returns_existing_family_without_building_one(monkeypatch):
    registry = MetricsRegistry()
    first = registry.counter("soda_idem_total", labels=("x",))

    def refuse(*args, **kwargs):
        raise AssertionError("built a family that already exists")

    monkeypatch.setattr(Counter, "__init__", refuse)
    assert registry.counter("soda_idem_total", labels=("x",)) is first


def test_docs_catalogue_matches_the_declarations():
    rows = re.findall(r"^\| `(soda_\w+)` \| ([^|]+) \|", DOCS.read_text(), re.M)
    documented = {
        name: () if labels.strip() == "—" else tuple(
            label.strip() for label in labels.split(",")
        )
        for name, labels in rows
    }
    assert len(rows) == len(documented) == 30
    assert documented == {name: f.labels for name, f in FAMILIES.items()}


def _strings_and_registry_calls(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.startswith("soda_"):
                yield f"string {node.value!r}"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("counter", "gauge", "histogram")
        ):
            yield f"call .{node.func.attr}()"


def test_families_are_declared_only_in_the_catalogue():
    """Outside ``repro.obs`` no module names a family or builds one: it
    records through ``registry.series`` with a declaration."""
    offenders = [
        f"{path.relative_to(SRC)}: {what}"
        for path in sorted(SRC.rglob("*.py"))
        if path.parent.name != "obs"
        for what in _strings_and_registry_calls(path)
    ]
    assert offenders == []
