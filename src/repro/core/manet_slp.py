"""MANET SLP: fully distributed service location via routing piggybacking.

This is the component Figure 4 of the paper shows: it exposes a regular
SLP-style interface (register / deregister / find_services) but never sends
a dedicated control packet of its own — all dissemination and lookup
traffic rides on routing messages, which a protocol-specific
:mod:`routing handler plugin <repro.core.handlers>` attaches via the
node's netfilter hook chain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.netsim.node import Node
from repro.slp.messages import SrvRqst
from repro.slp.service import ServiceEntry, ServiceUrl

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.handlers import RoutingHandler

LookupCallback = Callable[[list[ServiceEntry]], None]


#: How long a network lookup waits for an answer before it misses.
LOOKUP_TIMEOUT = 2.0


@dataclass
class ManetSlpConfig:
    """The advert lifetime and refresh period (the A2 ablation axes)."""

    advert_lifetime: float = 120.0
    #: Re-announce local registrations this often (proactive refresh).
    refresh_interval: float = 30.0


@dataclass
class _PendingLookup:
    xid: int
    service_type: str
    predicate: str
    callback: LookupCallback
    started_at: float = 0.0
    done: bool = False


class ManetSlp:
    """Distributed SLP engine; one instance per node."""

    def __init__(
        self,
        node: Node,
        handler: "RoutingHandler",
        config: ManetSlpConfig | None = None,
    ) -> None:
        self.node = node
        self.sim = node.sim
        self.config = config or ManetSlpConfig()
        self.handler = handler
        self._local: dict[str, ServiceEntry] = {}
        self._cache: dict[str, ServiceEntry] = {}
        self._pending: dict[int, _PendingLookup] = {}
        self._xid = itertools.count(1)
        self._refresh_task = None
        handler.attach(self)

    def resume_xids(self, previous: "ManetSlp") -> None:
        """Number queries and adverts on from ``previous``, the engine this
        one replaces when its node reboots.

        Every node holds the bytes of an SLP message it handled for
        ``RoutingHandler.MESSAGE_HOLD_TIME``. Counting from XID 1 again,
        a rebooted agent would resend a query or advert byte for byte and
        every node would drop it as a copy; a real agent starts from a
        random XID for the same reason.
        """
        self._xid = previous._xid
        self.handler._xid = previous.handler._xid

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "ManetSlp":
        if self._refresh_task is None and self.config.refresh_interval > 0:
            self._refresh_task = self.sim.schedule_periodic(
                self.config.refresh_interval, self._refresh_local, jitter=0.1
            )
        return self

    def stop(self) -> None:
        if self._refresh_task is not None:
            self._refresh_task.stop()
            self._refresh_task = None
        # Pending lookups die with the component: their already-scheduled
        # timeout events must not fire callbacks into stopped (or rebuilt)
        # components — e.g. resurrecting a tunnel on a crashed node.
        for pending in self._pending.values():
            pending.done = True
        self._pending.clear()

    # -- SLP-facing API ----------------------------------------------------------
    def register(
        self,
        url: ServiceUrl | str,
        attributes: dict[str, str] | None = None,
        lifetime: float | None = None,
    ) -> ServiceEntry:
        """Register a local service and queue it for piggyback dissemination."""
        parsed = ServiceUrl.parse(url) if isinstance(url, str) else url
        life = lifetime if lifetime is not None else self.config.advert_lifetime
        entry = ServiceEntry(
            url=parsed,
            attributes=dict(attributes or {}),
            lifetime=life,
            expires_at=self.sim.now + life,
            origin=self.node.ip,
        )
        self._local[entry.key()] = entry
        self.node.stats.increment("manetslp.registrations")
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "slp.advertise", self.node.ip, url=str(entry.url), lifetime=life,
            )
        self.handler.advertise(entry)
        return entry

    def deregister(self, url: ServiceUrl | str) -> None:
        key = str(ServiceUrl.parse(url) if isinstance(url, str) else url)
        entry = self._local.pop(key, None)
        if entry is not None:
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit("slp.withdraw", self.node.ip, url=key)
            self.handler.withdraw(entry)

    def forget_local(self, url: ServiceUrl | str | None) -> None:
        """Drop a local registration *without* announcing a withdrawal.

        Crash semantics: a dead service cannot say goodbye, so remote
        caches keep the stale entry until its lifetime expires. Used by
        fault injection (e.g. an abrupt gateway failure).
        """
        if url is None:
            return
        key = str(ServiceUrl.parse(url) if isinstance(url, str) else url)
        self._local.pop(key, None)

    def find_services(
        self,
        service_type: str,
        predicate: str = "",
        callback: LookupCallback | None = None,
        timeout: float = LOOKUP_TIMEOUT,
    ) -> int:
        """Resolve services of ``service_type`` matching ``predicate``.

        Local registrations and fresh cache entries answer immediately (the
        callback still fires asynchronously, on the next event). On a cache
        miss the routing handler launches an in-band network query.
        Returns the lookup transaction id.
        """
        xid = next(self._xid) & 0xFFFF  # the SLP XID wire field is 16 bits
        cb = callback or (lambda entries: None)
        tracer = self.sim.tracer
        hits = self.lookup_cached(service_type, predicate)
        if hits:
            self.node.stats.increment("manetslp.cache_hits")
            if tracer is not None:
                tracer.emit(
                    "slp.cache_hit", self.node.ip, service_type=service_type,
                    xid=xid, results=len(hits),
                )
            self.sim.schedule(0.0, cb, hits)
            return xid
        self.node.stats.increment("manetslp.cache_misses")
        if tracer is not None:
            tracer.emit(
                "slp.query", self.node.ip, service_type=service_type,
                predicate=predicate, xid=xid,
            )
        pending = _PendingLookup(
            xid=xid,
            service_type=service_type,
            predicate=predicate,
            callback=cb,
            started_at=self.sim.now,
        )
        self._pending[xid] = pending
        request = SrvRqst(
            xid=xid,
            service_type=service_type,
            predicate=predicate,
            requester=self.node.ip,
        )
        self.handler.query(request)
        self.sim.schedule(timeout, self._finish_lookup, xid)
        return xid

    def lookup_cached(self, service_type: str, predicate: str = "") -> list[ServiceEntry]:
        """Synchronous lookup against local registrations + remote cache."""
        now = self.sim.now
        seen: dict[str, ServiceEntry] = {}
        for entry in itertools.chain(self._local.values(), self._cache.values()):
            if entry.is_valid(now) and entry.matches(service_type, predicate):
                seen.setdefault(entry.key(), entry)
        return list(seen.values())

    # -- introspection (Figure 4's state dump) --------------------------------------
    def local_services(self) -> list[ServiceEntry]:
        now = self.sim.now
        return [entry for entry in self._local.values() if entry.is_valid(now)]

    def cached_services(self) -> list[ServiceEntry]:
        now = self.sim.now
        return [entry for entry in self._cache.values() if entry.is_valid(now)]

    @property
    def cache_size(self) -> int:
        """Remote entries held, including not-yet-expired ones (metrics gauge)."""
        return len(self._cache)

    @property
    def local_service_count(self) -> int:
        """Locally registered services (metrics gauge)."""
        return len(self._local)

    def state_dump(self) -> str:
        """Human-readable process state, in the spirit of Figure 4."""
        lines = [
            f"MANET SLP on {self.node.hostname} ({self.node.ip})",
            f"routing handler plugin: {self.handler.protocol_name}",
            "local registrations:",
        ]
        for entry in self.local_services():
            lines.append(f"  {entry.url}  {entry.attributes}  ttl={entry.lifetime:.0f}s")
        lines.append("remote cache:")
        for entry in self.cached_services():
            remaining = entry.expires_at - self.sim.now
            lines.append(
                f"  {entry.url}  {entry.attributes}  from={entry.origin}"
                f"  expires_in={remaining:.0f}s"
            )
        return "\n".join(lines)

    # -- handler-facing API ------------------------------------------------------------
    def local_matches(self, service_type: str, predicate: str) -> list[ServiceEntry]:
        """Local registrations matching a remote query (never cache, so stale
        third-party data is not re-authoritatively served)."""
        now = self.sim.now
        return [
            entry
            for entry in self._local.values()
            if entry.is_valid(now) and entry.matches(service_type, predicate)
        ]

    def on_remote_entry(self, entry: ServiceEntry) -> None:
        """A piggybacked advert or reply arrived: update cache, feed lookups."""
        key = entry.key()
        if entry.origin == self.node.ip or key in self._local:
            return
        if entry.lifetime <= 0:
            self._cache.pop(key, None)
            return
        existing = self._cache.get(key)
        if existing is None or entry.expires_at >= existing.expires_at:
            self._cache[key] = entry
        self.node.stats.increment("manetslp.entries_learned")
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "slp.entry_learned", self.node.ip, url=key,
                origin=entry.origin,
            )
        for pending in list(self._pending.values()):
            if pending.done:
                continue
            if entry.matches(pending.service_type, pending.predicate):
                self._finish_lookup(pending.xid, [entry])

    def on_remote_removal(self, url: str) -> None:
        self._cache.pop(url, None)

    def _finish_lookup(self, xid: int, results: list[ServiceEntry] | None = None) -> None:
        """Resolve a lookup with the first match, or at its timeout."""
        pending = self._pending.pop(xid, None)
        if pending is None or pending.done:
            return
        pending.done = True
        if not results:
            # Last chance: something may have entered the cache meanwhile.
            results = self.lookup_cached(pending.service_type, pending.predicate)
        tracer = self.sim.tracer
        if results:
            self.node.stats.increment("manetslp.lookups_resolved")
            self.node.stats.sample(
                "manetslp.lookup_latency", self.sim.now - pending.started_at
            )
            if tracer is not None:
                tracer.emit(
                    "slp.resolved", self.node.ip, xid=xid,
                    service_type=pending.service_type, results=len(results),
                    latency=self.sim.now - pending.started_at,
                )
        else:
            self.node.stats.increment("manetslp.lookups_failed")
            if tracer is not None:
                tracer.emit(
                    "slp.miss", self.node.ip, xid=xid,
                    service_type=pending.service_type,
                )
        pending.callback(results)

    def _refresh_local(self) -> None:
        now = self.sim.now
        for entry in list(self._local.values()):
            entry.expires_at = now + entry.lifetime
            self.handler.advertise(entry)
