"""SIP transport over simulated UDP.

Binds a UDP port on a node, parses incoming datagrams into SIP messages and
serializes outgoing ones. Responses are routed back via the topmost Via
header, as RFC 3261 section 18.2.2 prescribes for UDP.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SipParseError
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.sip.message import SipMessage, SipRequest, SipResponse, parse_message

Address = tuple[str, int]
ReceiverFn = Callable[[SipRequest | SipResponse, Address], None]

BRANCH_MAGIC = "z9hG4bK"


def new_branch(sim: Simulator) -> str:
    """An RFC 3261 branch parameter, unique within ``sim``'s run."""
    return f"{BRANCH_MAGIC}-{next(sim.branches):08x}"


class SipTransport:
    """A UDP SIP endpoint on a node."""

    def __init__(
        self, node: Node, port: int = 5060, address_override: str | None = None
    ) -> None:
        self.node = node
        self.port = port
        self.address_override = address_override
        self._socket = node.bind(port, self._on_datagram)
        self._receiver: ReceiverFn | None = None
        self.messages_sent = 0
        self.messages_received = 0
        self.parse_errors = 0

    @property
    def address(self) -> str:
        """The address this endpoint writes into its Via/Contact headers.

        ``address_override`` lets an endpoint bound to a tunnel or wired
        interface advertise that interface's address instead of the MANET
        address (needed for SIP legs facing the Internet).
        """
        return self.address_override or self.node.ip or self.node.wired_ip or "0.0.0.0"

    def set_receiver(self, receiver: ReceiverFn) -> None:
        self._receiver = receiver

    def close(self) -> None:
        self._socket.close()

    def _describe_message(self, message: SipMessage) -> dict[str, object]:
        cseq = message.cseq
        detail: dict[str, object] = {"call_id": message.call_id or ""}
        if cseq is not None:
            detail["cseq"] = cseq.method
        if isinstance(message, SipRequest):
            detail["method"] = message.method
        elif isinstance(message, SipResponse):
            detail["status"] = message.status
        return detail

    # -- sending -----------------------------------------------------------
    def send(self, message: SipMessage, destination: Address) -> None:
        dst_ip, dst_port = destination
        self.messages_sent += 1
        tracer = self.node.sim.tracer
        if tracer is not None:
            tracer.emit(
                "sip.msg_tx",
                self.node.ip or self.node.wired_ip or "",
                src=f"{self.address}:{self.port}",
                dst=f"{dst_ip}:{dst_port}",
                **self._describe_message(message),
            )
        self.node.send_udp(dst_ip, self.port, dst_port, message.serialize())

    def send_request(self, request: SipRequest, destination: Address) -> None:
        self.send(request, destination)

    def send_response(self, response: SipResponse) -> None:
        """Send a response to the sent-by address in its topmost Via."""
        via = response.top_via
        if via is None:
            self.node.stats.increment("sip.response_without_via")
            return
        self.send(response, (via.host, via.port))

    def via_text(self, branch: str) -> str:
        """This endpoint's Via value with ``branch``, formatted directly.

        Equal to ``str(Via(host=self.address, port=self.port, branch=branch))``
        without building the ``Via``: a new branch's Via exists only as text.
        """
        return f"SIP/2.0/UDP {self.address}:{self.port};branch={branch}"

    # -- receiving -----------------------------------------------------------
    def _on_datagram(self, data: bytes, src_ip: str, src_port: int) -> None:
        try:
            message = parse_message(data)
            message.check_headers()
        except SipParseError:
            self.parse_errors += 1
            self.node.stats.increment("sip.parse_errors")
            return
        self.messages_received += 1
        tracer = self.node.sim.tracer
        if tracer is not None:
            tracer.emit(
                "sip.msg_rx",
                self.node.ip or self.node.wired_ip or "",
                src=f"{src_ip}:{src_port}",
                dst=f"{self.address}:{self.port}",
                **self._describe_message(message),
            )
        if self._receiver is not None:
            self._receiver(message, (src_ip, src_port))
