"""Sim-time metrics: a gauge table, deterministic scraper, profiler.

Public surface:

* :data:`~repro.metrics.instruments.GAUGES` and
  :func:`scenario_reader` — the gauge table and histograms read from a
  :class:`~repro.scenarios.ManetScenario`, bound to it;
* :class:`MetricsScraper`, :func:`load_jsonl` and the process-wide
  default toggle (:mod:`repro.metrics.scraper`);
* :class:`Histogram` and :func:`render_prometheus`
  (:mod:`repro.metrics.registry`);
* :class:`~repro.metrics.profiler.KernelProfiler` — opt-in wall-time
  attribution (imported from its module directly; it is the one part of
  this package allowed to touch the host clock);
* ``python -m repro.metrics`` — tables, sparkline dashboards, Prometheus
  exposition and profiling.

Design and the determinism contract: DESIGN.md §5i.
"""

from repro.metrics.registry import Histogram, render_prometheus
from repro.metrics.scraper import (
    SCHEMA,
    MetricsScraper,
    MetricsSection,
    Snapshot,
    default_interval,
    disable_default,
    enable_default,
    export_registered,
    interval_arg,
    load_jsonl,
    register,
    registered,
)
from repro.metrics.instruments import scenario_reader

__all__ = [
    "SCHEMA",
    "Histogram",
    "MetricsScraper",
    "MetricsSection",
    "Snapshot",
    "default_interval",
    "disable_default",
    "enable_default",
    "export_registered",
    "interval_arg",
    "load_jsonl",
    "register",
    "registered",
    "render_prometheus",
    "scenario_reader",
]
