"""SIP transaction layer (RFC 3261 section 17, UDP rules).

Implements the four transaction state machines with their retransmission
and timeout timers:

* INVITE client (timers A/B/D) — includes the RFC 6026 "Accepted" state on
  the server side so 200 retransmissions are absorbed correctly.
* non-INVITE client (timers E/F/K)
* INVITE server (timers G/H/I/L)
* non-INVITE server (timer J)

The transaction user (UA core or proxy core) supplies callbacks; 2xx ACKs
are passed through to the TU as RFC 3261 requires.
"""

from __future__ import annotations

import enum
from typing import Callable

from repro.errors import SipTransactionError
from repro.netsim.simulator import EventHandle, Simulator
from repro.sip.message import SipRequest, SipResponse
from repro.sip.transport import Address, SipTransport, new_branch

T1 = 0.5
T2 = 4.0
T4 = 5.0
TIMER_B = 64 * T1
TIMER_D = 32.0
TIMER_F = 64 * T1
TIMER_H = 64 * T1
TIMER_J = 64 * T1
TIMER_L = 64 * T1

ResponseFn = Callable[[SipResponse], None]
TimeoutFn = Callable[[], None]
RequestFn = Callable[[SipRequest, "ServerTransaction | None", Address], None]


class TxnState(enum.Enum):
    CALLING = "calling"
    TRYING = "trying"
    PROCEEDING = "proceeding"
    COMPLETED = "completed"
    CONFIRMED = "confirmed"
    ACCEPTED = "accepted"
    TERMINATED = "terminated"


class _Transaction:
    """Timer bookkeeping shared by client and server transactions."""

    role = "txn"

    def __init__(self, layer: "TransactionLayer", key: tuple[str, str]) -> None:
        self.layer = layer
        self.sim: Simulator = layer.sim
        self.key = key
        self.state = TxnState.TRYING
        self._timers: list[EventHandle] = []

    def _set_state(self, new_state: TxnState) -> None:
        """State-machine edge; traces every transition when tracing is on."""
        old = self.state
        if old is new_state:
            return
        self.state = new_state
        tracer = self.sim.tracer
        if tracer is not None:
            node = self.layer.transport.node
            tracer.emit(
                "sip.txn_state",
                node.ip or node.wired_ip or "",
                branch=self.key[0],
                method=self.key[1],
                role=self.role,
                old=old.value,
                new=new_state.value,
            )

    def _after(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` as one of this transaction's timers.

        Every pending timer is in ``_timers`` and :meth:`terminate` cancels
        them all, so no timer fires on a terminated transaction.
        """
        # Prune fired/cancelled handles first: a transaction on a lossy link
        # reschedules its retransmission timer dozens of times, and keeping
        # every dead handle until terminate() grows without bound.
        if len(self._timers) > 2:
            self._timers = [h for h in self._timers if not h.done]
        handle = self.sim.schedule(delay, callback)
        self._timers.append(handle)
        return handle

    def terminate(self) -> None:
        if self.state is TxnState.TERMINATED:
            return
        self._set_state(TxnState.TERMINATED)
        for handle in self._timers:
            handle.cancel()
        self._timers.clear()
        self.layer._remove(self)


class ClientTransaction(_Transaction):
    """A client transaction: owns request retransmission and timeouts."""

    role = "client"

    def __init__(
        self,
        layer: "TransactionLayer",
        request: SipRequest,
        destination: Address,
        on_response: ResponseFn,
        on_timeout: TimeoutFn | None,
    ) -> None:
        branch = request.top_via.branch if request.top_via else None
        if not branch:
            raise SipTransactionError("client transaction request needs a Via branch")
        method = request.cseq.method if request.cseq else request.method
        super().__init__(layer, (branch, method))
        self.request = request
        self.destination = destination
        self.on_response = on_response
        self.on_timeout = on_timeout
        self.is_invite = request.method == "INVITE"
        self._interval = T1
        self._retrans_timer: EventHandle | None = None
        self.state = TxnState.CALLING if self.is_invite else TxnState.TRYING

    def start(self) -> None:
        self._transmit()
        self._retrans_timer = self._after(self._interval, self._retransmit)
        self._after(TIMER_B if self.is_invite else TIMER_F, self._timed_out)

    def _transmit(self) -> None:
        self.layer.transport.send_request(self.request, self.destination)

    def _retransmit(self) -> None:
        if self.state in (TxnState.CALLING, TxnState.TRYING):
            self._transmit()
            self._interval = 2 * self._interval if self.is_invite else min(2 * self._interval, T2)
            self._retrans_timer = self._after(self._interval, self._retransmit)
        elif self.state is TxnState.PROCEEDING and not self.is_invite:
            self._transmit()
            self._retrans_timer = self._after(T2, self._retransmit)

    def _timed_out(self) -> None:
        if self.state in (TxnState.CALLING, TxnState.TRYING, TxnState.PROCEEDING):
            self.terminate()
            if self.on_timeout is not None:
                self.on_timeout()

    def receive_response(self, response: SipResponse) -> None:
        if self.state is TxnState.TERMINATED:
            return
        if response.is_provisional:
            if self.state in (TxnState.CALLING, TxnState.TRYING):
                self._set_state(TxnState.PROCEEDING)
                if self.is_invite:
                    # Timer A stops on the first provisional response
                    # (RFC 3261 17.1.1.2): the INVITE reached the far side,
                    # so retransmitting it while PROCEEDING is pure noise.
                    if self._retrans_timer is not None:
                        self._retrans_timer.cancel()
                        self._retrans_timer = None
                else:
                    # Timer E resets to T2 while PROCEEDING; cancel the
                    # pending one so there is exactly one retransmit chain.
                    if self._retrans_timer is not None:
                        self._retrans_timer.cancel()
                    self._retrans_timer = self._after(T2, self._retransmit)
            self.on_response(response)
            return
        if self.is_invite:
            if response.is_success:
                # 2xx terminates the client transaction; the TU sends the ACK.
                self.terminate()
                self.on_response(response)
                return
            if self.state is not TxnState.COMPLETED:
                self._set_state(TxnState.COMPLETED)
                self._send_non2xx_ack(response)
                self.on_response(response)
                self._after(TIMER_D, self.terminate)
            else:
                self._send_non2xx_ack(response)  # absorb retransmission
            return
        if self.state is not TxnState.COMPLETED:
            self._set_state(TxnState.COMPLETED)
            self.on_response(response)
            self._after(T4, self.terminate)

    def _send_non2xx_ack(self, response: SipResponse) -> None:
        """ACK for a non-2xx final response (RFC 3261 17.1.1.3)."""
        ack = SipRequest("ACK", self.request.uri)
        via = self.request.headers.get("Via")
        if via:
            ack.headers.add("Via", via)
        for name in ("From", "Call-Id", "Max-Forwards"):
            value = self.request.headers.get(name)
            if value:
                ack.headers.add(name, value)
        to_value = response.headers.get("To") or self.request.headers.get("To") or ""
        ack.headers.add("To", to_value)
        cseq = self.request.cseq
        if cseq:
            ack.headers.add("CSeq", f"{cseq.number} ACK")
        self.layer.transport.send_request(ack, self.destination)


class ServerTransaction(_Transaction):
    """A server transaction: absorbs retransmissions, resends final responses."""

    role = "server"

    def __init__(self, layer: "TransactionLayer", request: SipRequest) -> None:
        # Keeps no reference to the request: Timers J/L/H hold a completed
        # transaction for 32 s, and the request would live as long.
        super().__init__(layer, request.transaction_key())
        self.is_invite = request.method == "INVITE"
        self.last_response: SipResponse | None = None
        self.state = TxnState.PROCEEDING if self.is_invite else TxnState.TRYING
        self._g_interval = T1

    def send_response(self, response: SipResponse) -> None:
        if self.state is TxnState.TERMINATED:
            return
        self.last_response = response
        self.layer.transport.send_response(response)
        if response.is_provisional:
            if not self.is_invite:
                self._set_state(TxnState.PROCEEDING)
            return
        if self.is_invite:
            if response.is_success:
                self._set_state(TxnState.ACCEPTED)
                self._after(TIMER_L, self.terminate)
            else:
                self._set_state(TxnState.COMPLETED)
                self._after(self._g_interval, self._retransmit_final)
                self._after(TIMER_H, self.terminate)
        else:
            self._set_state(TxnState.COMPLETED)
            self._after(TIMER_J, self.terminate)

    def _retransmit_final(self) -> None:
        if self.state is not TxnState.COMPLETED or self.last_response is None:
            return
        self.layer.transport.send_response(self.last_response)
        self._g_interval = min(2 * self._g_interval, T2)
        self._after(self._g_interval, self._retransmit_final)

    def receive_retransmission(self, request: SipRequest) -> None:
        if request.method == "ACK":
            if self.state is TxnState.COMPLETED:
                self._set_state(TxnState.CONFIRMED)
                self._after(T4, self.terminate)
            elif self.state is TxnState.ACCEPTED:
                self.terminate()
            return
        if self.last_response is not None and self.state in (
            TxnState.PROCEEDING,
            TxnState.COMPLETED,
            TxnState.ACCEPTED,
        ):
            self.layer.transport.send_response(self.last_response)


class TransactionLayer:
    """Routes messages between the transport and transactions/TU."""

    def __init__(self, transport: SipTransport, sim: Simulator) -> None:
        self.transport = transport
        self.sim = sim
        self._client: dict[tuple[str, str], ClientTransaction] = {}
        self._server: dict[tuple[str, str], ServerTransaction] = {}
        self.on_request: RequestFn | None = None
        self.on_stray_response: ResponseFn | None = None
        transport.set_receiver(self._on_message)

    # -- TU-facing API -----------------------------------------------------
    def send_request(
        self,
        request: SipRequest,
        destination: Address,
        on_response: ResponseFn,
        on_timeout: TimeoutFn | None = None,
    ) -> ClientTransaction:
        """Create and start a client transaction (always pushes a fresh Via —
        every hop adds its own, RFC 3261 sections 8.1.1.7 and 16.6/8)."""
        request.headers.insert_first("Via", self.transport.via_text(new_branch(self.sim)))
        txn = ClientTransaction(self, request, destination, on_response, on_timeout)
        self._client[txn.key] = txn
        txn.start()
        return txn

    def send_stateless(self, request: SipRequest, destination: Address) -> None:
        """Transmit a request without creating a transaction (e.g. ACK)."""
        self.transport.send_request(request, destination)

    # -- dispatch -------------------------------------------------------------
    def _on_message(
        self, message: SipRequest | SipResponse, source: Address
    ) -> None:
        if isinstance(message, SipResponse):
            txn = self._client.get(message.transaction_key())
            if txn is not None:
                txn.receive_response(message)
            elif self.on_stray_response is not None:
                self.on_stray_response(message)
            return
        key = message.transaction_key()
        existing = self._server.get(key)
        if existing is not None:
            existing.receive_retransmission(message)
            return
        if message.method == "ACK":
            # ACK for a 2xx: a separate transaction, handed to the TU.
            if self.on_request is not None:
                self.on_request(message, None, source)
            return
        txn = ServerTransaction(self, message)
        self._server[key] = txn
        if self.on_request is not None:
            self.on_request(message, txn, source)

    def _remove(self, txn: _Transaction) -> None:
        if isinstance(txn, ClientTransaction):
            self._client.pop(txn.key, None)
        elif isinstance(txn, ServerTransaction):
            self._server.pop(txn.key, None)

    @property
    def active_transactions(self) -> int:
        return len(self._client) + len(self._server)
