"""repro.faults: deterministic fault injection for SIPHoc scenarios.

Three pieces (see DESIGN.md §5e):

* :mod:`repro.faults.channel` — per-link channel fault models (Gilbert–
  Elliott bursty loss, per attempt or in sim-seconds) pluggable into the
  wireless medium.
* :mod:`repro.faults.plan` — the :class:`FaultPlan` DSL of timed events
  (node crash/restart, link partition/heal, gateway down/up), applied to
  any scenario via ``ManetConfig(faults=plan)``.
* :mod:`repro.faults.metrics` — recovery metrics computed from the trace
  (re-registration latency, gateway failover time, route re-discovery,
  calls surviving vs. dropped).

:mod:`repro.faults.harness` runs them together as the chaos run, artifact
R1 of :data:`repro.experiments.artifacts.ARTIFACTS`:
``python -m repro.experiments R1`` prints its fault plan and recovery
report.
"""

from repro.faults.channel import GilbertElliottChannel, TimedGilbertElliottChannel
from repro.faults.injector import FaultInjector
from repro.faults.metrics import RecoveryReport, analyze_recovery
from repro.faults.plan import (
    FaultEvent,
    FaultPlan,
    GatewayDown,
    GatewayUp,
    LinkHeal,
    LinkPartition,
    NodeCrash,
    NodeRestart,
    describe_event,
)

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "GatewayDown",
    "GatewayUp",
    "GilbertElliottChannel",
    "LinkHeal",
    "LinkPartition",
    "NodeCrash",
    "NodeRestart",
    "RecoveryReport",
    "TimedGilbertElliottChannel",
    "analyze_recovery",
    "describe_event",
]
