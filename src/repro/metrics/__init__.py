"""Measurement analysis and report rendering.

* :mod:`repro.metrics.stats` — summary statistics, confidence
  intervals, and least-squares fits (used e.g. to verify download time
  is linear in image size, §4.3).
* :mod:`repro.metrics.report` — plain-text table and chart renderers
  plus the :class:`ExperimentResult` container every experiment module
  returns; EXPERIMENTS.md is generated from these.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "report": ["Comparison", "ExperimentResult", "render_chart", "render_table"],
    "stats": ["confidence_interval_95", "linear_fit", "summarize"],
})
