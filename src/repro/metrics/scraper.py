"""Deterministic sim-time scraper and the JSONL time-series codec.

The scraper calls one reader every ``interval`` simulation seconds
**without scheduling any events**. Instead,
:meth:`repro.netsim.simulator.Simulator.run` chops each clock advance at
scrape boundaries and calls :meth:`MetricsScraper.scrape` between
chunks. Because the chunks pop exactly the same ``(time, seq)`` sequence
as one uncut advance, the event schedule — and therefore every
byte-identity gate — is unchanged whether metrics are on or off. That is
the whole determinism contract:

* no scrape events in the queue (schedule identical with metrics off),
* scrape times are ``tick * interval`` with an integer tick counter
  (no float accumulation drift),
* the reader only *reads* simulation state,
* exports are canonical JSON (sorted keys, fixed separators) so two
  same-seed runs produce byte-identical JSONL files.

Module-level ``enable_default()`` / ``register()`` / ``export_registered()``
mirror :mod:`repro.trace.collector`: harness flags like ``--metrics`` turn
on a process-wide default so every scenario built afterwards scrapes
itself without plumbing a scraper through each call site.
"""

from __future__ import annotations

import argparse
import io
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import MetricsError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.simulator import Simulator

SCHEMA = "repro.metrics/v1"

#: What one scrape reads: its gauges and its histograms, each by name.
Reading = tuple[dict[str, Any], dict[str, Any]]
#: Called once per scrape (:func:`repro.metrics.instruments.scenario_reader`
#: binds one to a scenario); it must only read simulation state.
Reader = Callable[[], Reading]


@dataclass
class Snapshot:
    """One scrape: simulation time plus what the reader read."""

    t: float
    counters: dict[str, Any] = field(default_factory=dict)
    gauges: dict[str, Any] = field(default_factory=dict)
    histograms: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "t": self.t,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": dict(sorted(self.histograms.items())),
        }


class MetricsScraper:
    """Calls a reader at fixed sim-time intervals during kernel runs."""

    def __init__(self, read: Reader, interval: float = 1.0, label: str = "") -> None:
        if interval <= 0 or math.isnan(interval) or math.isinf(interval):
            raise MetricsError(f"scrape interval must be positive and finite, got {interval}")
        self.read = read
        self.interval = float(interval)
        self.label = label
        self.snapshots: list[Snapshot] = []
        self._tick = 0  # next scrape fires at (_tick + 1) * interval

    @property
    def next_due(self) -> float:
        return (self._tick + 1) * self.interval

    def attach(self, sim: "Simulator") -> "MetricsScraper":
        """Install on a simulator, aligning the next scrape after ``sim.now``."""
        if sim.metrics is not None and sim.metrics is not self:
            raise MetricsError("simulator already has a metrics scraper attached")
        # Skip boundaries already in the past so re-attachment mid-run
        # never scrapes at t <= now.
        while self.next_due <= sim.now:
            self._tick += 1
        sim.metrics = self
        return self

    def scrape(self, t: float) -> Snapshot:
        """Collect one snapshot at sim time ``t`` (a tick boundary)."""
        self._tick += 1
        gauges, histograms = self.read()
        snap = Snapshot(
            t=t,
            counters={"metrics.scrapes": len(self.snapshots) + 1},
            gauges=gauges,
            histograms=histograms,
        )
        self.snapshots.append(snap)
        return snap

    # -- export -------------------------------------------------------------
    def meta(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "interval": self.interval,
            "label": self.label,
            "snapshots": len(self.snapshots),
        }

    def export_jsonl(self, target: Any) -> int:
        """Write the meta header plus one canonical-JSON line per snapshot.

        ``target`` is a path or a text file object. Returns the number of
        snapshot lines written (excluding the header).
        """
        if hasattr(target, "write"):
            return self._write(target)
        with open(target, "w", encoding="utf-8") as fh:
            return self._write(fh)

    def _write(self, fh: Any) -> int:
        dump = _canonical
        fh.write(dump(self.meta()) + "\n")
        for snap in self.snapshots:
            fh.write(dump(snap.to_dict()) + "\n")
        return len(self.snapshots)

    def export_text(self) -> str:
        buf = io.StringIO()
        self._write(buf)
        return buf.getvalue()


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class MetricsSection:
    """One scraper's contribution to an export: its meta plus snapshots."""

    meta: dict[str, Any]
    snapshots: list[Snapshot] = field(default_factory=list)

    @property
    def label(self) -> str:
        return self.meta.get("label", "")

    @property
    def interval(self) -> float:
        return float(self.meta.get("interval", 0.0))


def load_jsonl(source: Any) -> list[MetricsSection]:
    """Parse a metrics JSONL export; validates headers and every line.

    ``source`` is a path or a text file object. An export may concatenate
    several sections (:func:`export_registered` writes one per registered
    scraper, e.g. one per overload sweep point); each meta header line
    starts a new section.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    lines = [line for line in lines if line.strip()]
    if not lines:
        raise MetricsError("empty metrics export")
    sections: list[MetricsSection] = []
    for lineno, line in enumerate(lines, start=1):
        try:
            body = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MetricsError(f"line {lineno}: not JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise MetricsError(f"line {lineno}: expected a JSON object")
        if "schema" in body:
            if body.get("schema") != SCHEMA:
                raise MetricsError(
                    f"line {lineno}: unsupported schema {body.get('schema')!r} "
                    f"(want {SCHEMA!r})"
                )
            sections.append(MetricsSection(meta=body))
            continue
        if not sections:
            raise MetricsError(f"line {lineno}: snapshot before any meta header")
        if "t" not in body:
            raise MetricsError(f"line {lineno}: snapshot missing 't'")
        sections[-1].snapshots.append(
            Snapshot(
                t=body["t"],
                counters=body.get("counters", {}),
                gauges=body.get("gauges", {}),
                histograms=body.get("histograms", {}),
            )
        )
    return sections


# ---------------------------------------------------------------------------
# Process-wide default (mirrors repro.trace.collector's runtime toggle)
# ---------------------------------------------------------------------------

_default_interval: float | None = None
_registered: list[MetricsScraper] = []


def enable_default(interval: float = 1.0) -> None:
    """Make every scenario built from now on scrape itself at ``interval``."""
    global _default_interval
    if not (interval > 0 and math.isfinite(interval)):
        raise MetricsError(f"scrape interval must be positive and finite, got {interval}")
    _default_interval = float(interval)
    _registered.clear()


def interval_arg(text: str) -> float:
    """The ``--metrics-interval`` argparse type: positive, finite sim-seconds."""
    interval = float(text)
    if not (interval > 0 and math.isfinite(interval)):
        raise argparse.ArgumentTypeError(
            f"metrics interval must be a positive, finite number of seconds, got {text}"
        )
    return interval


def disable_default() -> None:
    global _default_interval
    _default_interval = None
    _registered.clear()


def default_interval() -> float | None:
    return _default_interval


def register(scraper: MetricsScraper) -> None:
    """Track a scraper for :func:`export_registered` (default mode only)."""
    if _default_interval is not None:
        _registered.append(scraper)


def registered() -> list[MetricsScraper]:
    return list(_registered)


def export_registered(target: Any) -> int:
    """Concatenate every registered scraper's export into one JSONL file.

    Each scraper contributes its own meta header (carrying its label) then
    its snapshot lines, in registration order. Returns total snapshot
    lines written.
    """
    total = 0
    if hasattr(target, "write"):
        for scraper in _registered:
            total += scraper._write(target)
        return total
    with open(target, "w", encoding="utf-8") as fh:
        for scraper in _registered:
            total += scraper._write(fh)
    return total
