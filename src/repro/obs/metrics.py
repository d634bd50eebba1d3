"""Labeled metrics: counters, gauges and histograms.

A :class:`MetricsRegistry` owns a flat namespace of named metrics, each
carrying a fixed tuple of label *names* and any number of label-*value*
children.  Components instrument themselves against a registry attached
to their simulator (``sim.metrics``).  With no registry attached every
instrumentation site is a cheap ``None`` check, so experiments pay
nothing for the machinery they do not use.

Every ``soda_*`` family the platform emits is declared once, below, as
a :class:`Family` (name, kind, help text, label names).  A component
records through the registry's memo, ``registry.series[family,
*values]``, which maps the declaration and its label values to the
child, so a record is one dict lookup once bound.  The first record of
a family registers it together with its declared ``group`` (the
families a component exposes as a set, even before it touches some of
them), and creates only the child it records.

Design constraints inherited from the simulation substrate:

* **Determinism** — metrics only *observe*.  Updating a counter never
  touches simulated state, never allocates events, and never iterates a
  set; the exposition (:mod:`repro.obs.prometheus`) sorts metrics by
  name and children by label values so two identical runs render
  byte-identical text.
* **Snapshot queries mid-sim** — all state is plain Python numbers, so
  a registry can be read at any simulated instant without draining or
  locking anything.

>>> registry = MetricsRegistry()
>>> registry.series[SWITCH_REQUESTS, "web", "ok"].inc()
>>> registry.get("soda_switch_requests_total").value(service="web", outcome="ok")
1.0
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry_of",
    "DEFAULT_LATENCY_BUCKETS",
    "FAMILIES",
    "Family",
]

#: Default histogram buckets, tuned for request latencies in seconds.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, math.inf,
)

_INF = math.inf

_VALID_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")


def _check_name(name: str) -> str:
    if not name or name[0] not in _VALID_FIRST:
        raise ValueError(f"invalid metric name {name!r}")
    return name


class _CounterChild:
    """One label-value combination of a counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not 0 <= amount < _INF:
            if amount < 0:
                raise ValueError(f"counters only go up; got {amount}")
            raise ValueError(f"counter increment must be finite; got {amount}")
        self.value += amount


class _GaugeChild:
    """One label-value combination of a gauge."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class _HistogramChild:
    """One label-value combination of a histogram."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...]):
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # Linear scan: bucket lists are short and the constant beats
        # bisect for the typical low-latency observation.
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                break
        else:
            # The last bound is +Inf, so only NaN falls through.
            raise ValueError(f"histogram observation must not be NaN; got {value}")
        self.counts[i] += 1
        self.sum += value
        self.count += 1


class _Metric:
    """Base: a named family with fixed label names and value children."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Tuple[str, ...]):
        self.name = _check_name(name)
        self.help = help
        self.label_names = tuple(label_names)
        if len(set(self.label_names)) != len(self.label_names):
            raise ValueError(f"{name}: duplicate label names in {self.label_names}")
        self._children: Dict[Tuple[str, ...], object] = {}

    def _new_child(self) -> object:
        raise NotImplementedError

    def _key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, got {tuple(labels)}"
            )
        return tuple(str(labels[k]) for k in self.label_names)

    def labels(self, **labels: str):
        """The child for one label-value combination (created on demand)."""
        return self._child(self._key(labels))

    def _child(self, key: Tuple[str, ...]):
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._new_child()
        return child

    def samples(self) -> List[Tuple[Tuple[str, ...], object]]:
        """(label values, child) pairs, sorted for deterministic output."""
        return sorted(self._children.items())

    def __len__(self) -> int:
        return len(self._children)


class Counter(_Metric):
    """A monotonically increasing value (events, totals)."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self.labels(**labels).inc(amount)

    def value(self, **labels: str) -> float:
        return self.labels(**labels).value


class Gauge(_Metric):
    """A value that can go up and down (inflight, utilisation)."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float, **labels: str) -> None:
        self.labels(**labels).set(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self.labels(**labels).inc(amount)

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.labels(**labels).dec(amount)

    def value(self, **labels: str) -> float:
        return self.labels(**labels).value


class Histogram(_Metric):
    """A distribution with cumulative buckets, a sum and a count."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Tuple[str, ...],
        buckets: Optional[Iterable[float]] = None,
    ):
        super().__init__(name, help, label_names)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        if not bounds:
            raise ValueError(f"{name}: histogram needs at least one bucket")
        if list(bounds) != sorted(bounds):
            raise ValueError(f"{name}: bucket bounds must be sorted: {bounds}")
        if not math.isinf(bounds[-1]):
            bounds = bounds + (math.inf,)
        self.buckets = bounds

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float, **labels: str) -> None:
        self.labels(**labels).observe(value)


class _SeriesMemo(dict):
    """``MetricsRegistry.series``: a miss binds the child once."""

    __slots__ = ("_registry",)

    def __init__(self, registry: "MetricsRegistry"):
        super().__init__()
        self._registry = registry

    def __missing__(self, key):
        child = self[key] = self._registry._bind(key)
        return child


class MetricsRegistry:
    """A flat namespace of metrics, snapshot-queryable at any instant."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        #: ``series[family, *label values]`` (``series[family]`` for a
        #: family without labels) is that child of a declared family.
        #: Bound once per registry: a miss registers the family (with
        #: its group) and creates the child; a hit is one dict lookup.
        self.series = _SeriesMemo(self)

    def _family(self, cls: type, name: str, help: str, labels, **options) -> _Metric:
        """Get the family ``name`` (checking its shape), or create it."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, help, labels, **options)
        elif type(metric) is not cls or metric.label_names != tuple(labels):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{metric.kind}{metric.label_names}"
            )
        return metric

    def counter(
        self, name: str, help: str = "", labels: Tuple[str, ...] = ()
    ) -> Counter:
        """Get or create a counter (idempotent for identical shape)."""
        return self._family(Counter, name, help, labels)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labels: Tuple[str, ...] = ()) -> Gauge:
        """Get or create a gauge (idempotent for identical shape)."""
        return self._family(Gauge, name, help, labels)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Tuple[str, ...] = (),
        buckets: Optional[Iterable[float]] = None,
    ) -> Histogram:
        """Get or create a histogram (idempotent for identical shape)."""
        return self._family(  # type: ignore[return-value]
            Histogram, name, help, labels, buckets=buckets
        )

    def _declared(self, family: "Family") -> _Metric:
        return self._family(family.cls, family.name, family.help, family.labels)

    def _bind(self, key):
        family, values = (key[0], key[1:]) if type(key) is tuple else (key, ())
        if family.name not in self._metrics:
            for member in family.group:
                self._declared(member)
        metric = self._declared(family)
        if len(values) != len(metric.label_names):
            raise ValueError(
                f"{family.name}: expected values for {metric.label_names}, got {values}"
            )
        return metric._child(tuple(str(v) for v in values))

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def collect(self) -> List[_Metric]:
        """All metrics, sorted by name (deterministic exposition order)."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> Dict[str, Dict[Tuple[str, ...], float]]:
        """``{metric name: {label values: scalar}}`` for counters/gauges;
        histograms contribute ``name_sum`` and ``name_count`` entries."""
        out: Dict[str, Dict[Tuple[str, ...], float]] = {}
        for metric in self.collect():
            if isinstance(metric, Histogram):
                sums = {k: c.sum for k, c in metric.samples()}  # type: ignore[union-attr]
                counts = {k: float(c.count) for k, c in metric.samples()}  # type: ignore[union-attr]
                out[f"{metric.name}_sum"] = sums
                out[f"{metric.name}_count"] = counts
            else:
                out[metric.name] = {k: c.value for k, c in metric.samples()}  # type: ignore[union-attr]
        return out

    def dump(self) -> List[Dict[str, object]]:
        """A picklable, registry-free snapshot of every family.

        The shard→coordinator wire format for metrics federation: plain
        lists/dicts/numbers only, so it crosses a multiprocessing pipe
        and merges via :class:`repro.obs.federation.FederatedMetrics`
        without importing this module on the far side.  Children are
        sorted (via :meth:`_Metric.samples`) for deterministic merges.
        """
        out: List[Dict[str, object]] = []
        for metric in self.collect():
            family: Dict[str, object] = {
                "name": metric.name,
                "help": metric.help,
                "kind": metric.kind,
                "labels": list(metric.label_names),
            }
            if isinstance(metric, Histogram):
                family["buckets"] = list(metric.buckets)
                family["children"] = [
                    (
                        list(key),
                        {
                            "counts": list(child.counts),  # type: ignore[union-attr]
                            "sum": child.sum,  # type: ignore[union-attr]
                            "count": child.count,  # type: ignore[union-attr]
                        },
                    )
                    for key, child in metric.samples()
                ]
            else:
                family["children"] = [
                    (list(key), child.value)  # type: ignore[union-attr]
                    for key, child in metric.samples()
                ]
            out.append(family)
        return out

    def render(self) -> str:
        """Prometheus text exposition (see :mod:`repro.obs.prometheus`)."""
        from repro.obs.prometheus import render

        return render(self)

    def __len__(self) -> int:
        return len(self._metrics)


def registry_of(sim) -> Optional[MetricsRegistry]:
    """The registry attached to ``sim``, if any (else ``None``).

    Like :func:`repro.obs.tracing.tracer_of`: observability is attached
    to the simulator object, and every instrumentation site degrades to
    one attribute lookup when nothing is attached.
    """
    return getattr(sim, "metrics", None)


# ---------------------------------------------------------------------------
# The catalogue: every family the platform emits, declared once.
# ---------------------------------------------------------------------------

class Family:
    """One declared metric family: class, name, help text and label names.

    ``group`` is what ``MetricsRegistry.series`` registers when this
    family's first record finds it missing: the family alone, or the
    set a component exposes together.
    """

    __slots__ = ("cls", "name", "help", "labels", "group")

    def __init__(self, cls: type, name: str, help: str, labels: Tuple[str, ...] = ()):
        self.cls = cls
        self.name = name
        self.help = help
        self.labels = labels
        self.group: Tuple["Family", ...] = (self,)


#: Declared families by name (``docs/OBSERVABILITY.md`` §2 lists them).
FAMILIES: Dict[str, Family] = {}


def _declare(cls: type, name: str, help: str, labels: Tuple[str, ...] = ()) -> Family:
    if name in FAMILIES:
        raise ValueError(f"metric family {name!r} declared twice")
    family = FAMILIES[name] = Family(cls, name, help, labels)
    return family


def _together(*families: Family) -> None:
    for family in families:
        family.group = families


# Service switch (core/switch.py).
SWITCH_REQUESTS = _declare(
    Counter, "soda_switch_requests_total",
    "Requests seen by a service switch, by outcome.", ("service", "outcome"),
)
SWITCH_RESPONSE = _declare(
    Histogram, "soda_switch_response_seconds",
    "Client-visible response time through the switch.", ("service",),
)
SWITCH_DISPATCH = _declare(
    Counter, "soda_switch_dispatch_total",
    "Requests dispatched to each back-end node.", ("service", "node"),
)
SWITCH_FAILOVERS = _declare(
    Counter, "soda_switch_failovers_total",
    "Dispatch attempts retried on another replica.", ("service",),
)
SWITCH_TIMEOUTS = _declare(
    Counter, "soda_switch_timeouts_total",
    "Requests that exhausted their timeout budget.", ("service",),
)
TENANT_REQUESTS = _declare(
    Counter, "soda_tenant_requests_total",
    "Requests by owning tenant and outcome (market extension).",
    ("tenant", "service", "outcome"),
)
# A switch's first record registers all six, so its exposition lists
# the failover and timeout families (empty) before either happens.
_together(
    SWITCH_REQUESTS, SWITCH_RESPONSE, SWITCH_DISPATCH,
    SWITCH_FAILOVERS, SWITCH_TIMEOUTS, TENANT_REQUESTS,
)

# Virtual service node (core/node.py).
NODE_INFLIGHT = _declare(
    Gauge, "soda_node_inflight",
    "Requests currently inside each virtual service node.", ("node",),
)
NODE_SERVED = _declare(
    Counter, "soda_node_served_total",
    "Requests served to completion by each node.", ("node",),
)
NODE_FAILED = _declare(
    Counter, "soda_node_failed_total",
    "Requests failed at each node (down or died while queued).", ("node",),
)

# Control plane (core/master.py, core/daemon.py, core/monitoring.py).
MASTER_ADMISSIONS = _declare(
    Counter, "soda_master_admissions_total",
    "Service admission decisions by the SODA Master.", ("outcome",),
)
DAEMON_PRIMING = _declare(
    Counter, "soda_daemon_priming_total",
    "Service-priming stages reached, by host.", ("host", "stage"),
)
HOST_CPU_RESERVED = _declare(
    Gauge, "soda_host_cpu_reserved_ratio",
    "Reserved CPU fraction per HUP host (sampled).", ("host",),
)

# Clients and the LAN (workload/clients.py, net/lan.py).
CLIENT_REQUESTS = _declare(
    Counter, "soda_client_requests_total",
    "Client machines handed out by the pool (one per request).", ("pool",),
)
LAN_FLUSHES = _declare(
    Counter, "soda_lan_flushes_total",
    "Batched LAN allocator flushes (rate recomputations).",
)
LAN_TRANSFERS = _declare(
    Counter, "soda_lan_transfers_total",
    "Transfers started on the LAN, by path kind.", ("kind",),
)
_together(LAN_FLUSHES, LAN_TRANSFERS)

# Faults (faults/injector.py, faults/health.py).
FAULTS_INJECTED = _declare(
    Counter, "soda_faults_injected_total",
    "Faults injected into the platform, by kind.", ("kind",),
)
HEALTH_TRANSITIONS = _declare(
    Counter, "soda_health_transitions_total",
    "Quarantine/restore transitions made by health checkers.",
    ("service", "action"),
)

# SLA (sla/monitor.py, sla/penalties.py).
SLA_BREACHES = _declare(
    Counter, "soda_sla_breaches_total",
    "SLA objective breaches detected, by kind.", ("service", "kind"),
)
SLA_CREDIT = _declare(
    Counter, "soda_sla_credit_total",
    "SLA penalty credits posted to the billing ledger.", ("service",),
)

# Market (market/pricing.py).
MARKET_SPOT_RATE = _declare(
    Gauge, "soda_market_spot_rate",
    "Current spot price of one machine-instance-hour.",
)

# Host CPU scheduler (host/scheduler.py).
SCHED_QUANTA = _declare(
    Counter, "soda_sched_quanta_total",
    "Scheduler quanta simulated, by scheduler and disposition.",
    ("scheduler", "state"),
)
SCHED_RUNS = _declare(
    Counter, "soda_sched_runs_total",
    "Quantum-loop batches executed, by scheduler.", ("scheduler",),
)

# Fluid fleet (sim/fluid.py).
FLUID_BATCHES = _declare(
    Counter, "soda_fluid_batches_total",
    "Fluid arrival batches completed, per service and cluster.",
    ("service", "cluster"),
)
FLUID_SOJOURN = _declare(
    Gauge, "soda_fluid_mean_sojourn_seconds",
    "Mean host sojourn of the latest fluid batch.", ("service", "cluster"),
)
# A fleet also counts its requests in SWITCH_REQUESTS, but exposes none
# of the switch's other families: it records a batch first, so this
# group, not the switch's, registers that counter.
FLUID_BATCHES.group = (FLUID_BATCHES, FLUID_SOJOURN, SWITCH_REQUESTS)

# Parallel federation shards and the geo broker (sim/parallel.py).
SHARD_MESSAGES = _declare(
    Counter, "soda_shard_messages_total",
    "Cross-shard messages at this shard, by direction and kind.",
    ("direction", "kind"),
)
GEO_REQUESTS = _declare(
    Counter, "soda_geo_requests_total",
    "Geo-routed requests by scope (local/remote issued, served, replied).",
    ("scope",),
)
BROKER_PLACEMENTS = _declare(
    Counter, "soda_broker_placements_total",
    "Broker placement decisions, by chosen hosting cluster.", ("cluster",),
)

# Federation coordinator (obs/federation.py).
FEDERATION_EPOCH = _declare(
    Gauge, "soda_federation_epoch",
    "Epoch barriers completed by the federated run.",
)
FEDERATION_MESSAGES = _declare(
    Gauge, "soda_federation_messages_exchanged",
    "Cross-shard messages exchanged over the whole run.",
)
FEDERATION_BARRIER_WAIT = _declare(
    Gauge, "soda_federation_barrier_wait_seconds",
    "CPU-seconds each worker spent waiting at epoch barriers.", ("worker",),
)
