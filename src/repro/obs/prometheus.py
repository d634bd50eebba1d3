"""Prometheus text exposition for a :class:`~repro.obs.metrics.MetricsRegistry`.

Implements the classic ``text/plain; version=0.0.4`` format: ``# HELP``
and ``# TYPE`` headers per family, one ``name{labels} value`` sample
line per child, histograms expanded into cumulative ``_bucket`` series
plus ``_sum``/``_count``.  Output is fully deterministic: families sort
by name, children by label values.

The exposition is a *pull* format — dump it at experiment end, or at any
simulated instant for a mid-run snapshot.
"""

from __future__ import annotations

import math
from typing import List

from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = ["render", "format_value", "escape_label_value"]


def escape_label_value(value: str) -> str:
    """Escape per the exposition format: backslash, quote, newline."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_value(value: float) -> str:
    """Render a sample value (ints without trailing .0, +Inf spelled out)."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_text(names, values) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{escape_label_value(value)}"' for name, value in zip(names, values)
    )
    return "{" + inner + "}"


def _bucket_labels_text(names, values, le: float) -> str:
    inner = [
        f'{name}="{escape_label_value(value)}"' for name, value in zip(names, values)
    ]
    inner.append(f'le="{format_value(le)}"')
    return "{" + ",".join(inner) + "}"


def render(registry: MetricsRegistry) -> str:
    """The whole registry as Prometheus exposition text."""
    lines: List[str] = []
    for metric in registry.collect():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            for values, child in metric.samples():
                cumulative = 0
                for bound, count in zip(child.buckets, child.counts):  # type: ignore[union-attr]
                    cumulative += count
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_bucket_labels_text(metric.label_names, values, bound)}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{metric.name}_sum{_labels_text(metric.label_names, values)}"
                    f" {format_value(child.sum)}"  # type: ignore[union-attr]
                )
                lines.append(
                    f"{metric.name}_count{_labels_text(metric.label_names, values)}"
                    f" {child.count}"  # type: ignore[union-attr]
                )
        else:
            for values, child in metric.samples():
                lines.append(
                    f"{metric.name}{_labels_text(metric.label_names, values)}"
                    f" {format_value(child.value)}"  # type: ignore[union-attr]
                )
    return "\n".join(lines) + ("\n" if lines else "")


#: The name :mod:`repro.obs` re-exports :func:`render` under.
render_prometheus = render
