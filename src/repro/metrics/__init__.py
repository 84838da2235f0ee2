"""Sim-time metrics: instrument registry, deterministic scraper, profiler.

Public surface:

* :class:`MetricsRegistry`, :class:`Counter`, :class:`Gauge`,
  :class:`Histogram` — the instruments (:mod:`repro.metrics.registry`);
* :class:`MetricsScraper`, :func:`load_jsonl` and the process-wide
  default toggle (:mod:`repro.metrics.scraper`);
* :func:`install_scenario_instruments` — the standard gauge set over a
  :class:`~repro.scenarios.ManetScenario`;
* :class:`~repro.metrics.profiler.KernelProfiler` — opt-in wall-time
  attribution (imported from its module directly; it is the one part of
  this package allowed to touch the host clock);
* ``python -m repro.metrics`` — tables, sparkline dashboards, Prometheus
  exposition and profiling.

Design and the determinism contract: DESIGN.md §5i.
"""

from repro.metrics.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
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
from repro.metrics.instruments import install_scenario_instruments

__all__ = [
    "SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsScraper",
    "MetricsSection",
    "Snapshot",
    "default_interval",
    "disable_default",
    "enable_default",
    "export_registered",
    "install_scenario_instruments",
    "interval_arg",
    "load_jsonl",
    "register",
    "registered",
    "render_prometheus",
]
