"""Fixed-bucket histograms and the Prometheus text renderer.

A snapshot is a pure function of simulation state, so two same-seed runs
export byte-identical time series. A :class:`Histogram` has fixed
upper-bound buckets (Prometheus classic-histogram semantics: cumulative
``le`` buckets plus ``+Inf``, a running sum and a count); the gauge table
in :mod:`repro.metrics.instruments` feeds each one a whole population
per scrape (e.g. every node's TX-queue depth).

Nothing here reads the host clock or draws randomness — lint rule OBS001
enforces that for the whole package except the profiler.
"""

from __future__ import annotations

import math
import re
from typing import Iterable

from repro.errors import MetricsError

#: Default histogram bucket bounds for small queue-depth style populations.
DEPTH_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


class Histogram:
    """Fixed-bucket histogram (cumulative ``le`` semantics at export time).

    ``bounds`` are the finite upper bucket edges, strictly ascending; an
    implicit ``+Inf`` bucket catches everything above the last edge. The
    internal counts are *per-bucket* (non-cumulative); the snapshot codec
    and the Prometheus renderer cumulate on the way out.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(self, name: str, bounds: Iterable[float]) -> None:
        self.name = name
        edges = tuple(float(b) for b in bounds)
        if not edges:
            raise MetricsError(f"histogram {name} needs at least one bucket bound")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise MetricsError(
                f"histogram {name} bounds must be strictly ascending, got {edges}"
            )
        if any(math.isnan(edge) or math.isinf(edge) for edge in edges):
            raise MetricsError(f"histogram {name} bounds must be finite, got {edges}")
        self.bounds = edges
        self.counts = [0] * (len(edges) + 1)  # last slot is +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def read(self) -> dict[str, object]:
        """Snapshot form: cumulative bucket counts aligned with ``bounds``."""
        cumulative = []
        running = 0
        for bucket in self.counts:
            running += bucket
            cumulative.append(running)
        return {
            "bounds": list(self.bounds),
            "buckets": cumulative,  # cumulative, +Inf last == count
            "count": self.count,
            "sum": self.total,
        }


# ---------------------------------------------------------------------------
# Prometheus text exposition (version 0.0.4)
# ---------------------------------------------------------------------------


def prometheus_name(name: str, prefix: str = "repro") -> str:
    """Map a dotted metric name onto the Prometheus grammar."""
    flat = _PROM_BAD.sub("_", name)
    return f"{prefix}_{flat}" if prefix else flat


def _fmt_value(value: object) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    number = float(value)  # type: ignore[arg-type]
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    return repr(number)


def render_prometheus(sections: dict[str, dict[str, object]], prefix: str = "repro") -> str:
    """Render one snapshot body as Prometheus text exposition format.

    ``sections`` is a snapshot body: ``{"counters": ..., "gauges": ...,
    "histograms": ...}``, as a parsed JSONL snapshot holds it.
    """
    lines: list[str] = []
    for kind in ("counter", "gauge"):
        for name, value in sections.get(kind + "s", {}).items():
            prom = prometheus_name(name, prefix)
            lines.append(f"# TYPE {prom} {kind}")
            lines.append(f"{prom} {_fmt_value(value)}")
    for name, data in sections.get("histograms", {}).items():
        prom = prometheus_name(name, prefix)
        lines.append(f"# TYPE {prom} histogram")
        bounds = data["bounds"]  # type: ignore[index]
        buckets = data["buckets"]  # type: ignore[index]
        for bound, cumulative in zip(bounds, buckets):
            lines.append(f'{prom}_bucket{{le="{_fmt_value(bound)}"}} {cumulative}')
        lines.append(f'{prom}_bucket{{le="+Inf"}} {data["count"]}')  # type: ignore[index]
        lines.append(f"{prom}_sum {_fmt_value(data['sum'])}")  # type: ignore[index]
        lines.append(f"{prom}_count {data['count']}")  # type: ignore[index]
    return "\n".join(lines) + ("\n" if lines else "")
