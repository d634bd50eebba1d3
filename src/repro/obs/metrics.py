"""Labeled metrics: counters, gauges and histograms.

A :class:`MetricsRegistry` owns a flat namespace of named metrics, each
carrying a fixed tuple of label *names* and any number of label-*value*
children.  Components instrument themselves against a registry attached
to their simulator (``sim.metrics``).  With no registry attached every
instrumentation site is a cheap ``None`` check, so experiments pay
nothing for the machinery they do not use.

With a registry attached, a family-level ``inc(**labels)`` or
``observe(value, **labels)`` is not cheap: it goes through ``labels()``,
which sorts and validates the label names on every call.  Per-request
sites therefore never make those calls.  They hold the children they
need, each bound through ``labels()`` once, lazily, on first use — the
moment the family-level call would have created it, so the exposition
carries no extra zero-valued series.  Where a label varies per request,
the site keeps a plain dict from that label value to its child.

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
>>> requests = registry.counter(
...     "soda_switch_requests_total", "Requests by outcome", ("service", "outcome"))
>>> requests.inc(service="web", outcome="ok")
>>> requests.value(service="web", outcome="ok")
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
        key = self._key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._new_child()
            self._children[key] = child
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


class MetricsRegistry:
    """A flat namespace of metrics, snapshot-queryable at any instant."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def _register(self, metric: _Metric) -> _Metric:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric) or (
                existing.label_names != metric.label_names
            ):
                raise ValueError(
                    f"metric {metric.name!r} already registered as "
                    f"{existing.kind}{existing.label_names}"
                )
            return existing
        self._metrics[metric.name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labels: Tuple[str, ...] = ()
    ) -> Counter:
        """Get or create a counter (idempotent for identical shape)."""
        return self._register(Counter(name, help, labels))  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labels: Tuple[str, ...] = ()) -> Gauge:
        """Get or create a gauge (idempotent for identical shape)."""
        return self._register(Gauge(name, help, labels))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Tuple[str, ...] = (),
        buckets: Optional[Iterable[float]] = None,
    ) -> Histogram:
        """Get or create a histogram (idempotent for identical shape)."""
        return self._register(Histogram(name, help, labels, buckets))  # type: ignore[return-value]

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
