"""Measurement infrastructure: counters, byte accounting and samples.

One :class:`Stats` object per simulation collects everything the experiment
harness needs: per-port on-air traffic (control overhead), arbitrary named
counters, and latency samples (e.g. call setup delays).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

from repro.netsim.packet import PORT_AODV, PORT_OLSR, PORT_SIP, PORT_SLP


@dataclass
class TrafficCounter:
    """Packets and bytes transmitted for one traffic class."""

    packets: int = 0
    bytes: int = 0

    def add(self, size: int) -> None:
        self.packets += 1
        self.bytes += size


@dataclass
class SampleSeries:
    """A collection of numeric samples with summary statistics."""

    values: list[float] = field(default_factory=list)
    # Sorted-view cache for percentile(): values only ever grows through
    # add(), so a cache keyed by length is sufficient to detect staleness.
    _sorted: list[float] = field(default_factory=list, repr=False, compare=False)

    def add(self, value: float) -> None:
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else math.nan

    @property
    def minimum(self) -> float:
        return min(self.values) if self.values else math.nan

    @property
    def maximum(self) -> float:
        return max(self.values) if self.values else math.nan

    @property
    def stddev(self) -> float:
        if len(self.values) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((v - mu) ** 2 for v in self.values) / (len(self.values) - 1))

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile, ``pct`` in [0, 100].

        The sorted view is cached and reused while no new samples arrive,
        so querying several percentiles of the same series (p50/p95/p99 in
        every summary) sorts once instead of once per query.
        """
        if not self.values:
            return math.nan
        if len(self._sorted) != len(self.values):
            self._sorted = sorted(self.values)
        ordered = self._sorted
        rank = max(0, min(len(ordered) - 1, math.ceil(pct / 100.0 * len(ordered)) - 1))
        return ordered[rank]


_PORT_LABELS = {
    PORT_AODV: "aodv",
    PORT_OLSR: "olsr",
    PORT_SIP: "sip",
    PORT_SLP: "slp",
}


def traffic_class_for_port(dport: int) -> str:
    """Map a UDP destination port to a coarse traffic class label."""
    label = _PORT_LABELS.get(dport)
    if label is not None:
        return label
    if 16384 <= dport < 32768:
        return "rtp"
    if dport in (5062, 5063):
        return "siphoc"
    if dport == 5065:
        return "flooding-register"  # baseline: broadcast REGISTER flooding
    if dport == 5066:
        return "proactive-hello"  # baseline: Pico-SIP HELLO mapping
    if 5060 <= dport < 5100:
        return "sip"  # softphone/WAN-leg ports
    return "other"


class Stats:
    """Simulation-wide measurement registry."""

    def __init__(self) -> None:
        self.traffic: dict[str, TrafficCounter] = defaultdict(TrafficCounter)
        self.counters: dict[str, int] = defaultdict(int)
        self.samples: dict[str, SampleSeries] = defaultdict(SampleSeries)
        # dport -> (its class counter, the total counter), filled on first use
        # so a port's class is classified once, not per frame.
        self._port_counters: dict[int, tuple[TrafficCounter, TrafficCounter]] = {}

    # -- traffic -----------------------------------------------------------
    def record_transmission(self, dport: int, size: int) -> None:
        """Account one on-air transmission of ``size`` bytes to port ``dport``."""
        counters = self._port_counters.get(dport)
        if counters is None:
            counters = (self.traffic[traffic_class_for_port(dport)], self.traffic["total"])
            self._port_counters[dport] = counters
        port_class, total = counters
        port_class.add(size)
        total.add(size)

    # Readers use ``.get``: indexing a defaultdict would insert a zero entry
    # for a name never written, and that entry would show in to_dict().
    def traffic_bytes(self, traffic_class: str) -> int:
        counter = self.traffic.get(traffic_class)
        return counter.bytes if counter is not None else 0

    def traffic_packets(self, traffic_class: str) -> int:
        counter = self.traffic.get(traffic_class)
        return counter.packets if counter is not None else 0

    # -- counters ----------------------------------------------------------
    def increment(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def count(self, name: str) -> int:
        return self.counters.get(name, 0)

    # -- samples -----------------------------------------------------------
    def sample(self, name: str, value: float) -> None:
        self.samples[name].add(value)

    #: Version of the :meth:`to_dict` serialization schema. Bump on any
    #: incompatible shape change so archived exports stay interpretable.
    SCHEMA_VERSION = 1

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """Lossless plain-dict form (schema-versioned, keys sorted).

        Unlike :meth:`summary` this keeps raw sample values, so
        :meth:`from_dict` reconstructs an equivalent :class:`Stats`. All
        traffic-class, counter and sample keys are sorted for stable
        serialization (byte-identical JSON across same-seed runs).
        """
        return {
            "schema_version": self.SCHEMA_VERSION,
            "traffic": {
                name: {"packets": counter.packets, "bytes": counter.bytes}
                for name, counter in sorted(self.traffic.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "samples": {
                name: list(series.values)
                for name, series in sorted(self.samples.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Stats":
        """Rebuild a :class:`Stats` from :meth:`to_dict` output."""
        version = data.get("schema_version")
        if version != cls.SCHEMA_VERSION:
            raise ValueError(
                f"unsupported Stats schema_version {version!r} "
                f"(expected {cls.SCHEMA_VERSION})"
            )
        stats = cls()
        for name, traffic in data.get("traffic", {}).items():
            counter = stats.traffic[name]
            counter.packets = int(traffic["packets"])
            counter.bytes = int(traffic["bytes"])
        for name, value in data.get("counters", {}).items():
            stats.counters[name] = int(value)
        for name, values in data.get("samples", {}).items():
            series = stats.samples[name]
            for value in values:
                series.add(value)
        return stats

    # -- reporting ---------------------------------------------------------
    def summary(self) -> dict[str, object]:
        """A plain-dict snapshot suitable for printing or assertions."""
        return {
            "traffic": {
                name: {"packets": counter.packets, "bytes": counter.bytes}
                for name, counter in sorted(self.traffic.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "samples": {
                name: {
                    "count": series.count,
                    "mean": series.mean,
                    "min": series.minimum,
                    "max": series.maximum,
                    "p50": series.percentile(50),
                    "p95": series.percentile(95),
                    "p99": series.percentile(99),
                    "stddev": series.stddev,
                }
                for name, series in sorted(self.samples.items())
            },
        }
