"""SIP dialogs (RFC 3261 section 12).

A dialog tracks the peer-to-peer SIP relationship created by an INVITE:
tags, CSeq numbers, the remote target (Contact) and the route set learned
from Record-Route headers. In-dialog requests (ACK for 2xx, BYE) are built
from this state and routed through the recorded proxy chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SipDialogError
from repro.netsim.simulator import Simulator
from repro.sip.message import Headers, SipRequest, SipResponse
from repro.sip.uri import NameAddr, SipUri


def new_tag(sim: Simulator) -> str:
    """A From/To tag, unique within ``sim``'s run (RFC 3261 section 19.3)."""
    return f"tag{next(sim.tags):06x}"


def new_call_id(sim: Simulator, host: str) -> str:
    """A Call-ID, unique within ``sim``'s run (RFC 3261 section 8.1.1.4)."""
    return f"cid{next(sim.call_ids):08x}@{host}"


DialogKey = tuple[str, str, str]


@dataclass
class Dialog:
    """Dialog state from the viewpoint of one party."""

    call_id: str
    local_tag: str
    remote_tag: str
    local_party: NameAddr
    remote_party: NameAddr
    remote_target: SipUri
    route_set: list[SipUri] = field(default_factory=list)
    local_seq: int = 0
    remote_seq: int = 0

    @property
    def key(self) -> DialogKey:
        return (self.call_id, self.local_tag, self.remote_tag)

    @classmethod
    def from_response(cls, request: SipRequest, response: SipResponse) -> "Dialog":
        """Create the caller-side (UAC) dialog from a dialog-forming 2xx."""
        to = response.to
        from_ = response.from_
        if to is None or from_ is None or to.tag is None or from_.tag is None:
            raise SipDialogError("dialog-forming response is missing tags")
        contact = response.contact
        remote_target = contact.uri if contact is not None else request.uri
        # UAC route set: Record-Route values in reverse order (RFC 12.1.2).
        routes = [entry.uri for entry in reversed(response.record_routes())]
        cseq = request.cseq
        return cls(
            call_id=response.call_id or "",
            local_tag=from_.tag,
            remote_tag=to.tag,
            local_party=from_,
            remote_party=to,
            remote_target=remote_target,
            route_set=routes,
            local_seq=cseq.number if cseq else 1,
        )

    @classmethod
    def from_request(
        cls, request: SipRequest, local_tag: str, local_contact: SipUri
    ) -> "Dialog":
        """Create the callee-side (UAS) dialog when answering an INVITE."""
        from_ = request.from_
        to = request.to
        if from_ is None or to is None or from_.tag is None:
            raise SipDialogError("dialog-forming request is missing a From tag")
        contact = request.contact
        remote_target = contact.uri if contact is not None else from_.uri
        # UAS route set: Record-Route values in order (RFC 12.1.1).
        routes = [entry.uri for entry in request.record_routes()]
        cseq = request.cseq
        return cls(
            call_id=request.call_id or "",
            local_tag=local_tag,
            remote_tag=from_.tag,
            local_party=to.with_tag(local_tag),
            remote_party=from_,
            remote_target=remote_target,
            route_set=routes,
            remote_seq=cseq.number if cseq else 1,
        )

    # -- building in-dialog requests ------------------------------------------
    def create_request(self, method: str, cseq_number: int | None = None) -> SipRequest:
        headers = Headers()
        headers.add("From", str(self.local_party.with_tag(self.local_tag)))
        headers.add("To", str(self.remote_party))
        headers.add("Call-ID", self.call_id)
        if cseq_number is None:
            self.local_seq += 1
            cseq_number = self.local_seq
        headers.add("CSeq", f"{cseq_number} {method.upper()}")
        headers.add("Max-Forwards", "70")
        request = SipRequest(method.upper(), self.remote_target, headers=headers)
        for route in self.route_set:
            request.headers.add("Route", f"<{route}>")
        return request

    def next_hop(self, default_port: int = 5060) -> tuple[str, int]:
        """Where to physically send in-dialog requests (first route or target)."""
        if self.route_set:
            first = self.route_set[0]
            return (first.host, first.effective_port(default_port))
        return (self.remote_target.host, self.remote_target.effective_port(default_port))

    def matches_request(self, request: SipRequest) -> bool:
        """True if an incoming in-dialog request belongs to this dialog."""
        if request.call_id != self.call_id:
            return False
        from_ = request.from_
        to = request.to
        remote = from_.tag if from_ is not None else None
        local = to.tag if to is not None else None
        return remote == self.remote_tag and local == self.local_tag
