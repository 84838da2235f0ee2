"""The reproduction's artifacts: one registry entry per figure, table or report.

An :class:`Artifact` holds the function that regenerates it, the
parameters of each of its tables, a larger set for ``--full`` where one
exists, the check that lists where a table misses the shape
EXPERIMENTS.md reports, and what of a table the golden digest pins.
:func:`table_runs` turns an entry into one run per table, named
``<id>`` or ``<id>_<label>``. A run returns a result whose ``str`` is the
table's text. The check reads that result as it is, wherever it runs:
``python -m repro.experiments`` prints each table and its check's
failures, ``benchmarks/test_bench_paper.py`` times every checked table,
and each pinned table is a gate of the same name in
:data:`repro.experiments.gates.GATES`, whose digest covers only what the
pin keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping

from repro.experiments import (
    Table,
    ablation_discovery_table,
    cache_ablation_table,
    call_flow_table,
    capture_figure5,
    city_table,
    convergence_table,
    footprint_table,
    gateway_table,
    handover_table,
    interop_table,
    media_quality_table,
    module_inventory_table,
    overhead_vs_nodes_table,
    scalability_table,
    services_table,
    setup_delay_table,
    voice_quality_table,
)
from repro.experiments.overload import MODE_CONTROLLED, MODE_UNCONTROLLED, SweepReport, run_sweep
from repro.faults.harness import ChaosResult, run_chaos
from repro.trace.events import TraceError, parse_jsonl_line

#: The callee in the gates' calls and in the Figure 5 capture.
BOB = "sip:bob@voicehoc.ch"

#: "Users satisfied" threshold on the E-model MOS scale (ITU-T G.107).
MOS_SATISFIED = 3.6

#: One table named like its artifact, with the function's defaults.
DEFAULTS: Mapping[str, Mapping[str, Any]] = {"": {}}


def pin_whole(result: Any) -> Any:
    """The whole table: its digest is the sha256 of its text."""
    return result


@dataclass(frozen=True)
class Artifact:
    """One paper artifact: how to regenerate its tables and what they must show."""

    description: str
    fn: Callable[..., Any]
    #: Lists what a table fails to show; ``None`` for an artifact without a check.
    check: Callable[[Any], list[str]] | None = None
    #: Label -> keyword arguments of each table: the set the gates, the
    #: benchmark and EXPERIMENTS.md use.
    tables: Mapping[str, Mapping[str, Any]] = field(default_factory=lambda: DEFAULTS)
    #: The larger set ``--full`` runs, where one exists.
    full: Mapping[str, Mapping[str, Any]] | None = None
    #: What of a table the golden digest pins (the digest is the sha256 of
    #: its ``str``); ``None`` for an artifact that is no gate.
    pin: Callable[[Any], Any] | None = pin_whole


def table_runs(key: str, full: bool = False) -> dict[str, Callable[[], Any]]:
    """Table name -> zero-argument run, for each table of artifact ``key``."""
    artifact = ARTIFACTS[key]
    tables = artifact.full if full and artifact.full is not None else artifact.tables
    return {
        f"{key}_{label}" if label else key: partial(artifact.fn, **kwargs)
        for label, kwargs in tables.items()
    }


def _rows_where(table: Table, **match: object) -> list[dict[str, object]]:
    return [
        row for row in table.to_dicts() if all(row[key] == value for key, value in match.items())
    ]


def _all_of(fraction: object) -> bool:
    """True for an ``"n/n"`` count: every attempt succeeded."""
    done, _, attempted = str(fraction).partition("/")
    return done == attempted


def _nan(value: object) -> bool:
    return isinstance(value, float) and math.isnan(value)


def trace_failures(jsonl: str) -> list[str]:
    """An empty trace export or the first line that fails the event schema."""
    if not jsonl.strip():
        return ["trace export is empty"]
    for number, line in enumerate(jsonl.splitlines(), start=1):
        try:
            parse_jsonl_line(line)
        except TraceError as exc:
            return [f"trace line {number} failed schema validation: {exc}"]
    return []


# ---------------------------------------------------------------------------
# Checks: the shape each artifact claims, as a list of failures
# ---------------------------------------------------------------------------


def check_call_flow(table: Table) -> list[str]:
    """F3: every one of the eight steps happens."""
    return [f"step {row[0]} did not happen: {row[1]}" for row in table.rows if not row[2]]


def check_capture(rendering: str | None) -> list[str]:
    """F5: a captured AODV route reply carries bob's SIP contact binding."""
    if rendering is None:
        return ["no RREP with a piggybacked SIP contact was captured"]
    parts = ("Route Reply (RREP)", "SIPHoc Extension", "service:siphoc-sip://", BOB)
    return [f"the rendering lacks {part!r}" for part in parts if part not in rendering]


#: The paper's section 4 components, each a row of F6.
FOOTPRINT_COMPONENTS = (
    "SIPHoc proxy", "MANET SLP", "Gateway Provider", "Connection Provider", "VoIP application",
)


def check_footprint(table: Table) -> list[str]:
    """F6: every component is present and the system fits the iPAQ's free flash."""
    components = table.column("component")
    failures = [
        f"component {name} is missing" for name in FOOTPRINT_COMPONENTS if name not in components
    ]
    if not any("fit: True" in note for note in table.notes):
        failures.append("the system and the VoIP app do not fit the iPAQ's free flash")
    return failures


def pin_footprint(table: Table) -> Table:
    """F6 without its sizes, which every edit moves, and its peak-memory note,
    which depends on what ran before it in the interpreter."""
    return Table(
        table.title,
        ["component"],
        [[name] for name in table.column("component")],
        [note for note in table.notes if "fit:" in note],
    )


def check_inventory(table: Table) -> list[str]:
    """The library inventory lists the core packages, each with code."""
    packages = table.column("package")
    failures = [
        f"package {name} is missing"
        for name in ("core", "sip", "slp", "routing", "netsim", "rtp")
        if name not in packages
    ]
    failures.extend(f"package {row[0]} has no code" for row in table.rows if not row[2] > 0)
    return failures


def check_interop(table: Table) -> list[str]:
    """T1: plain providers work both ways; the SBC provider works only with the fix."""
    plain = _rows_where(table, mandates_sbc=False)
    broken = _rows_where(table, mandates_sbc=True, fix_configured=False)
    fixed = _rows_where(table, mandates_sbc=True, fix_configured=True)
    if len(plain) != 2 or not broken or not fixed:
        return ["the matrix lacks a plain provider or an SBC provider row"]
    failures = [
        f"{row['provider']} (fix {row['fix_configured']}) lacks full service"
        for row in plain + fixed[:1]
        if not (row["upstream_reg"] and row["manet_to_inet"] and row["inet_to_manet"])
    ]
    if broken[0]["upstream_reg"] or broken[0]["manet_to_inet"]:
        failures.append("the SBC provider works without the outbound-proxy fix")
    return failures


def check_setup_delay(table: Table) -> list[str]:
    """E1: every call sets up, and delay grows with hops but stays sub-second."""
    failures = []
    for routing in ("aodv", "olsr"):
        rows = _rows_where(table, routing=routing)
        if not rows:
            failures.append(f"{routing}: no rows")
            continue
        failures.extend(
            f"{routing} {row['hops']} hops: {row['success']} calls set up"
            for row in rows
            if not _all_of(row["success"])
        )
        delays = [row["mean_setup_s"] for row in rows]
        if any(_nan(delay) for delay in delays):
            failures.append(f"{routing}: a hop count has no setup delay")
        elif not delays[0] < delays[-1]:
            failures.append(f"{routing}: delay does not grow with hops")
        elif not delays[-1] < 1.0:
            failures.append(f"{routing}: {rows[-1]['hops']}-hop setup is not sub-second")
    return failures


def check_overhead(table: Table) -> list[str]:
    """E2: SIPHoc resolves every lookup without dedicated discovery packets and
    for under a third of the flooding baselines' control bytes; the baselines
    grow superlinearly with the network."""
    control = {(row["scheme"], row["nodes"]): row["control_bytes"] for row in table.to_dicts()}
    node_counts = sorted(set(table.column("nodes")))
    failures = []
    for row in _rows_where(table, scheme="siphoc"):
        if row["discovery_bytes"] != 0:
            failures.append(f"{row['nodes']} nodes: SIPHoc sent dedicated discovery packets")
        if not _all_of(row["lookups_ok"]):
            failures.append(f"{row['nodes']} nodes: SIPHoc resolved {row['lookups_ok']} lookups")
    for nodes in node_counts:
        for baseline in ("flooding-register", "proactive-hello"):
            if not control[baseline, nodes] > 3 * control["siphoc", nodes]:
                failures.append(f"{nodes} nodes: {baseline} costs under 3x SIPHoc")
    hello = [control["proactive-hello", nodes] for nodes in node_counts]
    if not hello[-1] > 3 * hello[0]:
        failures.append("proactive-hello overhead does not grow superlinearly")
    return failures


def check_convergence(table: Table) -> list[str]:
    """E3: on-demand lookups resolve for both protocols; OLSR also fills caches."""
    failures = []
    for routing in ("aodv", "olsr"):
        lookups = _rows_where(table, routing=routing, mode="on-demand lookup")
        if not lookups:
            failures.append(f"{routing}: no on-demand lookup row")
        elif not (_all_of(lookups[0]["resolved"]) and lookups[0]["mean_s"] < 3.0):
            failures.append(
                f"{routing}: lookups resolved {lookups[0]['resolved']} in {lookups[0]['mean_s']} s"
            )
    proactive = _rows_where(table, routing="olsr", mode="proactive cache fill")
    if not proactive or not proactive[0]["mean_s"] < 40.0:
        failures.append("OLSR does not fill caches proactively within 40 s")
    return failures


def check_gateway(table: Table) -> list[str]:
    """E4: the tunnel comes up, registers upstream, and calls cross both ways."""
    failures = []
    for row in table.to_dicts():
        where = f"{row['manet_nodes']} nodes"
        if not row["tunnel_up_s"] < 30.0:  # a tunnel that never came up reads NaN
            failures.append(f"{where}: the tunnel did not come up within 30 s")
        for column in ("upstream_reg", "out_call", "in_call"):
            if row[column] is not True:
                failures.append(f"{where}: {column} failed")
        if not row["out_setup_s"] < 10.0:
            failures.append(f"{where}: the MANET -> Internet call took {row['out_setup_s']} s")
    return failures


def check_scalability(table: Table) -> list[str]:
    """E5: at least 70 % of calls establish at every network size."""
    return [
        f"{row['nodes']} nodes: only {row['established']} of {row['calls']} calls established"
        for row in table.to_dicts()
        if not row["success_ratio"] >= 0.7
    ]


def check_voice_quality(table: Table) -> list[str]:
    """E6: loss-free calls score MOS 3.6 or more, and more loss never helps."""
    failures = []
    rows = table.to_dicts()
    for row in _rows_where(table, link_loss=0.0):
        if not row["established"] or not row["mos"] >= MOS_SATISFIED:
            failures.append(f"{row['hops']} hops without loss: MOS {row['mos']}")
    for hops in sorted({row["hops"] for row in rows}):
        # A stream that died (NaN) counts as the floor of the scale.
        series = [
            1.0 if _nan(row["mos"]) else row["mos"]
            for row in rows
            if row["hops"] == hops and row["established"]
        ]
        if not all(a >= b - 0.15 for a, b in zip(series, series[1:])):
            failures.append(f"{hops} hops: MOS rises with loss")
    return failures


def check_media(table: Table) -> list[str]:
    """M1: at each PCMU fade point, fixed playout without RFC 2198 redundancy
    scores below MOS 3.6 and adaptive playout with RED 2 recovers it."""
    baseline = _rows_where(table, codec="PCMU", policy="fixed", red=0)
    recovered = _rows_where(table, codec="PCMU", policy="adaptive", red=2)
    if not baseline or not recovered:
        return ["the table lacks a PCMU fixed/no-RED or adaptive/RED 2 row"]
    failures = [
        f"fixed/no-RED at {row['fade_pct']} % fade is satisfied: MOS {row['mos']}"
        for row in baseline
        if not row["mos"] < MOS_SATISFIED
    ]
    failures.extend(
        f"adaptive/RED 2 at {row['fade_pct']} % fade did not recover: MOS {row['mos']}"
        for row in recovered
        if not row["mos"] >= MOS_SATISFIED  # a call that never set up reads NaN
    )
    return failures


def check_discovery_ablation(table: Table) -> list[str]:
    """A1: SIPHoc alone sends no discovery packets, resolves faster than multicast
    SLP, costs less than the proactive baselines and drains a fifth of their energy."""
    rows = {row["scheme"]: row for row in table.to_dicts()}
    siphoc = rows["siphoc"]
    failures = []
    if not siphoc["success_ratio"] >= 0.9:
        failures.append(f"SIPHoc resolved only {siphoc['success_ratio']} of lookups")
    if siphoc["discovery_bytes"] != 0:
        failures.append("SIPHoc sent dedicated discovery packets")
    if not siphoc["mean_latency_s"] < rows["multicast-slp"]["mean_latency_s"]:
        failures.append("SIPHoc does not resolve faster than multicast SLP")
    for baseline in ("flooding-register", "proactive-hello"):
        if not siphoc["control_bytes"] < rows[baseline]["control_bytes"]:
            failures.append(f"SIPHoc does not cost less than {baseline}")
        for column in ("energy_j", "hotspot_j"):
            if not rows[baseline][column] > 5 * siphoc[column]:
                failures.append(f"{baseline} {column} is not 5x SIPHoc's")
    return failures


def check_cache_ablation(table: Table) -> list[str]:
    """A2: refresh keeps caches warm; a short lifetime purges a crashed node's
    entry that a long one still serves, at the cost of more adverts."""
    rows = table.to_dicts()
    failures = [
        f"lifetime {row['lifetime_s']} s: no cache hit after warmup"
        for row in rows
        if not row["hit_after_warmup"]
    ]
    shortest, longest = rows[0], rows[-1]
    if shortest["stale_after_leave"]:
        failures.append(f"lifetime {shortest['lifetime_s']} s still serves a crashed node")
    if not longest["stale_after_leave"]:
        failures.append(f"lifetime {longest['lifetime_s']} s purged a crashed node's entry")
    if not shortest["adverts_piggybacked"] > longest["adverts_piggybacked"]:
        failures.append("freshness costs no extra piggybacked adverts")
    return failures


def check_services(table: Table) -> list[str]:
    """S1: IM, presence and video work at every hop count."""
    failures = []
    for row in table.to_dicts():
        where = f"{row['hops']} hops"
        if not row["im_delivered"] or not row["im_latency_s"] < 0.5:
            failures.append(f"{where}: IM lost or slower than 0.5 s")
        if not row["presence_latency_s"] < 1.0:
            failures.append(f"{where}: presence took {row['presence_latency_s']} s")
        if not row["video_ok"]:
            failures.append(f"{where}: video unwatchable")
    return failures


#: Separates the fault plan from the trace export in R1's pinned text.
CHAOS_SEPARATOR = "\n=====\n"


def pin_chaos(result: ChaosResult) -> str:
    """R1's fault plan, then its trace export, from which the report is derived."""
    assert result.scenario.trace is not None
    return result.plan.describe() + CHAOS_SEPARATOR + result.scenario.trace.export_jsonl()


def check_chaos(result: ChaosResult) -> list[str]:
    """R1: the valid trace shows every planned fault, and the post-fault call
    re-establishes."""
    assert result.scenario.trace is not None
    jsonl = result.scenario.trace.export_jsonl()
    failures = trace_failures(jsonl)
    if failures:
        return failures
    planned = len(result.plan)
    injected = sum(parse_jsonl_line(line).category == "fault" for line in jsonl.splitlines())
    if injected != planned:
        failures.append(f"{planned} fault events planned but {injected} showed up in the trace")
    if not result.recovered:
        failures.append("the post-fault call did not re-establish")
    return failures


def check_sweep(report: SweepReport) -> list[str]:
    """O1: at the top load admission sheds with 503s while the queues without
    it collapse, and the controlled rate at twice the knee holds half the
    knee rate."""
    top = max(point.load for point in report.points)
    controlled = report.point(top, MODE_CONTROLLED)
    uncontrolled = report.point(top, MODE_UNCONTROLLED)
    if controlled is None or uncontrolled is None:
        return ["the sweep report is missing its top-load points"]
    failures = []
    if controlled.rejected_503 == 0:
        failures.append("no 503 admission rejections at the overload point")
    if controlled.admission_rejected == 0:
        failures.append("sip.admission_rejected counter never moved")
    if uncontrolled.queue_drops == 0:
        failures.append("bounded TX queues shed nothing without admission")
    if controlled.ok_rate <= uncontrolled.ok_rate:
        failures.append(
            f"admission control did not help at {top:.1f} cps (controlled "
            f"{controlled.ok_rate:.3f} <= uncontrolled {uncontrolled.ok_rate:.3f})"
        )
    if uncontrolled.rejected_503 or uncontrolled.admission_rejected:
        failures.append("uncontrolled run unexpectedly produced 503 rejections")
    if report.knee is None:
        failures.append("no knee: controlled runs never cleared the threshold")
    elif not report.graceful_pass:
        failures.append(
            f"the controlled rate at {2 * report.knee:.2f} cps does not hold half the knee rate"
        )
    return failures


def check_city(table: Table) -> list[str]:
    """C1: three in four city calls establish, over a busy event loop."""
    failures = []
    for row in table.to_dicts():
        if not row["success_ratio"] >= 0.75:
            failures.append(f"{row['nodes']} nodes: too many failed calls")
        if not row["sim_events"] > 50_000:
            failures.append(f"{row['nodes']} nodes: only {row['sim_events']} events")
    return failures


ARTIFACTS: dict[str, Artifact] = {
    "F3": Artifact(
        "Figure 3 call flow",
        call_flow_table,
        check_call_flow,
        tables={"aodv": {"routing": "aodv"}, "olsr": {"routing": "olsr"}},
    ),
    "F5": Artifact("Figure 5 route reply carrying a SIP contact", capture_figure5, check_capture),
    "F6": Artifact(
        "deployment footprint (section 4)", footprint_table, check_footprint, pin=pin_footprint
    ),
    "T1": Artifact("provider interoperability (section 3.2)", interop_table, check_interop),
    "E1": Artifact("setup delay vs hop count", setup_delay_table, check_setup_delay),
    "E2": Artifact("control overhead vs node count", overhead_vs_nodes_table, check_overhead),
    "E3": Artifact("registration availability", convergence_table, check_convergence),
    "E4": Artifact("gateway attachment + Internet calls", gateway_table, check_gateway),
    "E5": Artifact(
        "scalability (future work)",
        scalability_table,
        check_scalability,
        tables={
            "static": dict(node_counts=(10, 20, 30), seeds=(1, 2), calls_per_run=5),
            "mobile": dict(node_counts=(16,), seeds=(1, 2), calls_per_run=5, mobility=True),
        },
    ),
    "E6": Artifact(
        "voice quality vs hops and loss",
        voice_quality_table,
        check_voice_quality,
        tables={"": dict(talk_time=10.0)},
        full=DEFAULTS,
    ),
    "M1": Artifact(
        "media stacks (codec x redundancy x playout) under GE fading",
        media_quality_table,
        check_media,
        tables={"": dict(codecs=("PCMU",), ge_points=((1.2, 0.05),), talk_time=8.0)},
        full=DEFAULTS,
    ),
    "H1": Artifact(
        "mid-call coverage loss, baseline vs multihomed handover (section 5k)",
        handover_table,
        tables={"": dict(seeds=(1,), conditions=(("clean", None, None, False),))},
        full=DEFAULTS,
        pin=None,
    ),
    "A1": Artifact(
        "discovery scheme ablation",
        ablation_discovery_table,
        check_discovery_ablation,
        tables={"": dict(seeds=(1, 2))},
        full=DEFAULTS,
    ),
    "A2": Artifact(
        "advert lifetime ablation",
        cache_ablation_table,
        check_cache_ablation,
        tables={"": dict(observation=40.0)},
        full=DEFAULTS,
    ),
    "S1": Artifact(
        "IM/presence/video services over SIPHoc (extension)", services_table, check_services
    ),
    "R1": Artifact(
        "chaos run: relay crash, gateway failure, recovery (section 5e)",
        run_chaos,
        check_chaos,
        pin=pin_chaos,
    ),
    "O1": Artifact(
        "offered-load sweep, with and without admission control (section 5f)",
        run_sweep,
        check_sweep,
        tables={"": dict(loads=(1.0, 2.0), window=12.5, grace=12.0)},
        full=DEFAULTS,
    ),
    "C1": Artifact(
        "city-scale MANET call load (5k nodes with --full)",
        city_table,
        check_city,
        tables={"": dict(node_counts=(300, 1000), n_calls=12, drain=15.0)},
        full=DEFAULTS,
        pin=None,
    ),
    "INV": Artifact("library inventory", module_inventory_table, check_inventory, pin=None),
}
