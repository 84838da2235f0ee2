"""Typed trace events: the taxonomy, the record, and its JSONL codec.

A :class:`TraceEvent` is one observation of simulator behaviour: a packet
transmission, an AODV route discovery step, an SLP resolution, a SIP
transaction edge. Events are immutable, carry their simulation timestamp
(always :attr:`Simulator.now` — never the host clock) and a collector
sequence number, and serialize to one JSON line each with sorted keys, so
a seeded run produces byte-identical trace files every time.

The taxonomy below is the contract between emission points and analysis
passes: every emitted ``kind`` must be registered in :data:`EVENT_KINDS`
(the collector rejects unknown kinds) and ``kind.split(".", 1)[0]`` is the
event's category.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import ReproError


class TraceError(ReproError):
    """A malformed trace event or trace file."""


#: kind -> one-line description. The authoritative event taxonomy; grouped
#: by category (the dotted prefix). DESIGN.md §5d mirrors this table.
EVENT_KINDS: dict[str, str] = {
    # packet — on-air frame lifecycle (uid correlates hops of one packet)
    "packet.tx": "frame handed to the medium (broadcast or unicast)",
    "packet.rx": "frame delivered to a node's IP layer",
    "packet.forward": "transit packet re-dispatched by an intermediate node",
    "packet.drop": "frame or packet lost (detail.cause says why)",
    # aodv — reactive route discovery and maintenance
    "aodv.rreq": "RREQ originated (route discovery round started)",
    "aodv.rreq_forward": "RREQ re-flooded by an intermediate node",
    "aodv.rrep": "RREP originated (by destination or by cached route)",
    "aodv.rrep_forward": "RREP forwarded along the reverse route",
    "aodv.rerr": "RERR sent (link break or propagated unreachability)",
    "aodv.route_update": "route table entry added or refreshed",
    "aodv.route_expired": "expired/invalid route found on lookup",
    "aodv.discovery_complete": "route discovery resolved, buffer flushed",
    "aodv.discovery_failed": "route discovery exhausted its retries",
    # olsr — proactive link state
    "olsr.hello": "HELLO beacon sent",
    "olsr.tc": "TC message sent (topology dissemination)",
    "olsr.mpr_change": "multipoint relay set changed",
    "olsr.route_recompute": "shortest-path table recomputed",
    "olsr.link_failure": "symmetric link dropped after TX failure",
    # slp — MANET service location
    "slp.advertise": "local service (re-)registered for dissemination",
    "slp.withdraw": "local service deregistered",
    "slp.cache_hit": "lookup answered from local/cache state",
    "slp.query": "network lookup launched (cache miss)",
    "slp.entry_learned": "piggybacked remote entry entered the cache",
    "slp.resolved": "pending lookup resolved with results",
    "slp.miss": "pending lookup timed out with no results",
    # queue — bounded interface TX queue lifecycle (opt-in, §5f)
    "queue.enqueue": "frame queued behind a busy interface (detail.depth)",
    "queue.drop": "bounded TX queue shed a frame (detail.policy says which)",
    "queue.high_watermark": "TX queue depth crossed its high watermark",
    # sip — proxy routing decisions, message flow, transaction edges
    "sip.register": "REGISTER accepted by the local SIPHoc proxy",
    "sip.route": "request forwarded (detail.via: manet|internet|local)",
    "sip.route_failed": "no route for request (404 to the caller)",
    "sip.overload_reject": "proxy shed a new INVITE/REGISTER with 503 (§5f)",
    "sip.msg_tx": "SIP message sent by an endpoint",
    "sip.msg_rx": "SIP message received by an endpoint",
    "sip.txn_state": "transaction state machine edge",
    # tunnel — layer-2 tunnel lifecycle (client and gateway side)
    "tunnel.lease": "gateway granted or renewed a lease",
    "tunnel.lease_expired": "gateway expired an idle lease",
    "tunnel.release": "client released its lease",
    "tunnel.connected": "client brought the tunnel interface up",
    "tunnel.disconnected": "client tore the tunnel interface down",
    "tunnel.nack": "gateway told a client its lease is gone",
    # gateway — Internet gateway advertisement
    "gateway.up": "gateway provider started and advertised",
    "gateway.down": "gateway provider stopped and withdrew",
    # rtp — media-plane lifecycle and recovery (§5j)
    "rtp.session_open": "RTP session bound (codec, playout policy, redundancy)",
    "rtp.session_close": "RTP session closed (sent/received/played/recovered)",
    "rtp.retarget": "jitter buffer re-targeted its playout delay",
    "rtp.recovered": "lost primary rebuilt from RFC 2198 redundancy",
    "rtp.spurt": "sender talk-spurt transition (detail.talking)",
    "rtp.dtmf": "RFC 2833 telephone event received (detail.digit)",
    # fault — injected failures (repro.faults; node="" = network-wide)
    "fault.node_crash": "injected node crash (stack torn down, host state lost)",
    "fault.node_restart": "injected node restart (stack rebuilt from scratch)",
    "fault.partition": "injected link partition between two node groups",
    "fault.heal": "injected partition healed",
    "fault.gateway_down": "injected gateway failure (detail.graceful says how)",
    "fault.gateway_up": "injected gateway recovery (provider restarted)",
    "fault.interface_down": "injected interface failure (detail.iface says which)",
    "fault.interface_up": "injected interface recovery",
    # iface — per-interface administrative state (§5k)
    "iface.up": "interface administratively enabled (detail.iface)",
    "iface.down": "interface administratively disabled (detail.iface)",
    # handover — mid-call multihomed handover (§5k)
    "handover.trigger": "handover decided for a call (detail.cause, detail.mode)",
    "handover.attempt": "migration re-INVITE launched (detail.attempt)",
    "handover.complete": "call re-anchored on the new interface (latency_ms)",
    "handover.media_restored": "inbound media resumed (gap_ms, packets_lost)",
    "handover.abandoned": "give-up deadline or dead peer; call torn down",
    # mobility — movement epochs
    "mobility.waypoint": "node picked a new waypoint (speed, target)",
}

#: Every category present in the taxonomy, in sorted order.
CATEGORIES: tuple[str, ...] = tuple(
    sorted({kind.split(".", 1)[0] for kind in EVENT_KINDS})
)

_REQUIRED_FIELDS = ("t", "seq", "kind", "node")

#: JSON scalar types allowed in detail values (lists/dicts of them too).
_SCALARS = (str, int, float, bool, type(None))


@dataclass(frozen=True)
class TraceEvent:
    """One structured observation at a point in simulated time."""

    t: float  #: simulation time (Simulator.now) when the event occurred
    seq: int  #: collector-assigned monotonic sequence number
    kind: str  #: dotted event kind from :data:`EVENT_KINDS`
    node: str  #: primary node identity (MANET IP, or "" for network-wide)
    detail: dict[str, object] = field(default_factory=dict)

    @property
    def category(self) -> str:
        return self.kind.split(".", 1)[0]

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "t": self.t,
            "seq": self.seq,
            "kind": self.kind,
            "node": self.node,
        }
        if self.detail:
            out["detail"] = self.detail
        return out

    def to_json_line(self) -> str:
        """One JSONL record; sorted keys keep seeded runs byte-identical."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, raw: dict[str, object]) -> "TraceEvent":
        validate_event_dict(raw)
        return cls(
            t=float(raw["t"]),  # type: ignore[arg-type]
            seq=int(raw["seq"]),  # type: ignore[arg-type]
            kind=str(raw["kind"]),
            node=str(raw["node"]),
            detail=dict(raw.get("detail") or {}),  # type: ignore[arg-type]
        )


def _detail_value_ok(value: object, depth: int = 0) -> bool:
    if isinstance(value, _SCALARS):
        return True
    if depth >= 3:
        return False
    if isinstance(value, (list, tuple)):
        return all(_detail_value_ok(item, depth + 1) for item in value)
    if isinstance(value, dict):
        return all(
            isinstance(key, str) and _detail_value_ok(item, depth + 1)
            for key, item in value.items()
        )
    return False


def validate_event_dict(raw: object) -> None:
    """Raise :class:`TraceError` unless ``raw`` is a schema-valid event dict.

    The schema: required keys ``t`` (number >= 0), ``seq`` (int >= 0),
    ``kind`` (a registered kind), ``node`` (str); optional ``detail`` (a
    dict with string keys and JSON-scalar/shallow-container values).
    """
    if not isinstance(raw, dict):
        raise TraceError(f"trace event must be an object, got {type(raw).__name__}")
    missing = [key for key in _REQUIRED_FIELDS if key not in raw]
    if missing:
        raise TraceError(f"trace event missing fields: {', '.join(missing)}")
    t = raw["t"]
    if not isinstance(t, (int, float)) or isinstance(t, bool) or t < 0:
        raise TraceError(f"trace event field 't' must be a non-negative number, got {t!r}")
    seq = raw["seq"]
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise TraceError(f"trace event field 'seq' must be a non-negative int, got {seq!r}")
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in EVENT_KINDS:
        raise TraceError(f"unknown trace event kind {kind!r}")
    if not isinstance(raw["node"], str):
        raise TraceError(f"trace event field 'node' must be a string, got {raw['node']!r}")
    detail = raw.get("detail", {})
    if not isinstance(detail, dict) or not _detail_value_ok(detail):
        raise TraceError(f"trace event 'detail' must be a shallow JSON object, got {detail!r}")
    unknown = set(raw) - {*_REQUIRED_FIELDS, "detail"}
    if unknown:
        raise TraceError(f"trace event has unknown fields: {', '.join(sorted(unknown))}")


def parse_jsonl_line(line: str) -> TraceEvent:
    """Parse one JSONL record into a validated :class:`TraceEvent`."""
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceError(f"invalid JSON in trace line: {exc}") from exc
    return TraceEvent.from_dict(raw)
