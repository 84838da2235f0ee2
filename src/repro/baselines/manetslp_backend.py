"""The SIPHoc approach behind the common baseline interface.

Wraps :class:`repro.core.manet_slp.ManetSlp` (routing-piggybacked
dissemination + in-band lookups) so the benchmark harness can compare it
against the related-work baselines on identical workloads.
"""

from __future__ import annotations

from repro.baselines.base import DiscoveryBackend, ResolveCallback, UserBinding
from repro.core.handlers import make_handler
from repro.core.manet_slp import ManetSlp
from repro.netsim.node import Node
from repro.routing.base import RoutingProtocol
from repro.slp.service import SERVICE_SIP_CONTACT, ServiceEntry, ServiceUrl


class ManetSlpBackend(DiscoveryBackend):
    """SIPHoc's MANET SLP as a user-location backend."""

    name = "siphoc-manetslp"

    def __init__(self, node: Node, routing: RoutingProtocol) -> None:
        super().__init__(node)
        self.routing = routing
        self.slp = ManetSlp(node, make_handler(routing))

    def start(self) -> "ManetSlpBackend":
        self.slp.start()
        return self

    def stop(self) -> None:
        self.slp.stop()

    def register_user(self, aor: str, host: str, port: int) -> None:
        self.slp.register(
            ServiceUrl(service_type=SERVICE_SIP_CONTACT, host=host, port=port),
            attributes={"user": aor},
        )

    def resolve(self, aor: str, callback: ResolveCallback, timeout: float = 2.0) -> None:
        def on_results(entries: list[ServiceEntry]) -> None:
            if not entries:
                callback(None)
                return
            entry = entries[0]
            callback(
                UserBinding(aor=aor, host=entry.url.host, port=entry.url.port or 5060)
            )

        self.slp.find_services(
            SERVICE_SIP_CONTACT,
            predicate=f"(user={aor})",
            callback=on_results,
            timeout=timeout,
        )
