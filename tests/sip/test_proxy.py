"""Behavioural tests for the generic stateful proxy core."""

import pytest

from repro.netsim import PacketCapture
from repro.sip import CallState, ProxyCore, SipRequest, SipTransport, UserAgent
from tests.conftest import make_chain


@pytest.fixture
def triangle(sim, medium):
    """alice -- proxy -- bob, all in radio range with static routes."""
    nodes = make_chain(sim, medium, 3, spacing=50.0, static_routes=True)
    a, p, b = nodes
    alice = UserAgent(a, "sip:alice@voicehoc.ch", port=5070, outbound_proxy=(p.ip, 5060))
    bob = UserAgent(b, "sip:bob@voicehoc.ch", port=5070)
    proxy = ProxyCore(p, port=5060)
    proxy.route_fn = lambda ctx: ctx.forward((b.ip, 5070))
    return a, p, b, alice, bob, proxy


def auto_answer(sim):
    def handler(call):
        call.ring()
        sim.schedule(0.2, call.answer)

    return handler


class TestForwarding:
    def test_call_through_proxy(self, sim, triangle):
        a, p, b, alice, bob, proxy = triangle
        bob.on_invite = auto_answer(sim)
        states = []
        call = alice.call("sip:bob@voicehoc.ch", on_state=lambda c: states.append(c.state))
        sim.run(3.0)
        assert states[-1] == CallState.ESTABLISHED
        # Dialog learned the proxy's Record-Route.
        assert [u.host for u in call.dialog.route_set] == [p.ip]

    def test_bye_traverses_record_route(self, sim, triangle):
        a, p, b, alice, bob, proxy = triangle
        bob.on_invite = auto_answer(sim)
        states = []
        call = alice.call("sip:bob@voicehoc.ch", on_state=lambda c: states.append(c.state))
        sim.run(3.0)
        handled_before = proxy.requests_processed
        call.hangup()
        sim.run(6.0)
        assert states[-1] == CallState.TERMINATED
        assert proxy.requests_processed > handled_before  # BYE went through us
        assert not bob.active_calls

    def test_route_fn_respond(self, sim, triangle):
        a, p, b, alice, bob, proxy = triangle
        proxy.route_fn = lambda ctx: ctx.respond(404)
        call = alice.call("sip:nobody@voicehoc.ch")
        sim.run(3.0)
        assert call.state is CallState.FAILED
        assert call.failure_status == 404

    def test_no_route_fn_means_404(self, sim, triangle):
        a, p, b, alice, bob, proxy = triangle
        proxy.route_fn = None
        call = alice.call("sip:bob@voicehoc.ch")
        sim.run(3.0)
        assert call.failure_status == 404

    def test_deferred_routing_decision(self, sim, triangle):
        a, p, b, alice, bob, proxy = triangle
        bob.on_invite = auto_answer(sim)

        def deferred(ctx):
            sim.schedule(0.8, ctx.forward, (b.ip, 5070))

        proxy.route_fn = deferred
        call = alice.call("sip:bob@voicehoc.ch")
        sim.run(5.0)
        assert call.state is CallState.ESTABLISHED

    def test_downstream_timeout_maps_to_408(self, sim, triangle):
        a, p, b, alice, bob, proxy = triangle
        bob.close()
        call = alice.call("sip:bob@voicehoc.ch")
        sim.run(60.0)
        assert call.state is CallState.FAILED
        assert call.failure_status in (408, 404)


class TestMaxForwards:
    def test_zero_max_forwards_rejected_with_483(self, sim, triangle):
        a, p, b, alice, bob, proxy = triangle
        from repro.sip import Headers, SipRequest

        headers = Headers()
        headers.add("From", "<sip:alice@voicehoc.ch>;tag=x")
        headers.add("To", "<sip:bob@voicehoc.ch>")
        headers.add("Call-ID", "mf-1")
        headers.add("CSeq", "1 OPTIONS")
        headers.add("Max-Forwards", "0")
        request = SipRequest("OPTIONS", "sip:bob@voicehoc.ch", headers=headers)
        responses = []
        alice.transactions.send_request(request, (p.ip, 5060), responses.append)
        sim.run(3.0)
        assert [r.status for r in responses] == [483]

    def test_max_forwards_decremented(self, sim, triangle):
        a, p, b, alice, bob, proxy = triangle
        seen = []
        original = proxy.route_fn

        def spy(ctx):
            seen.append(ctx.request.headers.get("Max-Forwards"))
            original(ctx)

        proxy.route_fn = spy
        bob.on_invite = auto_answer(sim)
        alice.call("sip:bob@voicehoc.ch")
        sim.run(3.0)
        assert seen == ["69"]  # UA sent 70


class TestCancelPropagation:
    def test_cancel_forwarded_downstream(self, sim, triangle):
        a, p, b, alice, bob, proxy = triangle
        incoming_states = []

        def ring_only(call):
            call.ring()
            call.on_state = lambda c: incoming_states.append(c.state)

        bob.on_invite = ring_only
        call = alice.call("sip:bob@voicehoc.ch")
        sim.run(1.5)
        call.cancel()
        sim.run(6.0)
        assert CallState.TERMINATED in incoming_states

    def test_answered_invite_is_not_cancelled_downstream(self, sim, medium, triangle):
        a, p, b, alice, bob, proxy = triangle
        bob.on_invite = auto_answer(sim)
        call = alice.call("sip:bob@voicehoc.ch")
        sim.run(3.0)
        assert call.state is CallState.ESTABLISHED
        assert not proxy._proxied_invites  # dropped at the 200 OK
        assert _cancels_forwarded(sim, medium, alice, call, p) == 0

    def test_timed_out_invite_is_not_cancelled_downstream(self, sim, medium, triangle):
        a, p, b, alice, bob, proxy = triangle
        bob.close()
        call = alice.call("sip:bob@voicehoc.ch")
        sim.run(60.0)
        assert call.failure_status == 408
        assert not proxy._proxied_invites  # dropped at the timeout
        assert _cancels_forwarded(sim, medium, alice, call, p) == 0


def _cancels_forwarded(sim, medium, alice, call, proxy_node) -> int:
    """Send a CANCEL for ``call``'s INVITE to the proxy; count CANCELs it sends on.

    The CANCEL is built as ``OutgoingCall.cancel`` builds it, which sends
    nothing once the call has a final response.
    """
    invite = call._invite
    cancel = SipRequest("CANCEL", invite.uri)
    for name in ("Via", "From", "To", "Call-Id", "Max-Forwards"):
        cancel.headers.add(name, invite.headers.get(name))
    cancel.headers.add("CSeq", f"{invite.cseq.number} CANCEL")
    capture = PacketCapture(port_filter={5060, 5070})
    medium.add_sniffer(capture.on_frame)
    alice.transactions.send_stateless(cancel, (proxy_node.ip, 5060))
    sim.run(sim.now + 2.0)
    cancels = [f for f in capture.frames if f.packet.data.startswith(b"CANCEL")]
    assert [f.sender_ip for f in cancels][:1] == [alice.node.ip]  # the proxy got it
    return sum(1 for f in cancels if f.sender_ip == proxy_node.ip)


class TestLegs:
    def test_select_leg_prefers_non_primary_for_internet(self, sim, medium):
        nodes = make_chain(sim, medium, 1)
        proxy = ProxyCore(nodes[0], port=5060)
        wan = proxy.add_leg("wan", SipTransport(nodes[0], 5061, address_override="10.0.0.9"))
        assert proxy.select_leg("10.1.2.3") is wan
        assert proxy.select_leg("192.168.0.5") is proxy.primary

    def test_pop_own_routes_handles_double_record_route(self, sim, medium):
        nodes = make_chain(sim, medium, 1)
        proxy = ProxyCore(nodes[0], port=5060)
        wan = proxy.add_leg("wan", SipTransport(nodes[0], 5061, address_override="10.0.0.9"))
        from repro.sip import Headers, SipRequest

        headers = Headers()
        headers.add("Route", f"<sip:{proxy.address}:5060;lr>")
        headers.add("Route", "<sip:10.0.0.9:5061;lr>")
        headers.add("Route", "<sip:elsewhere:5060;lr>")
        request = SipRequest("BYE", "sip:x@y", headers=headers)
        proxy._pop_own_routes(request)
        assert [r.uri.host for r in request.routes()] == ["elsewhere"]

    def test_remove_leg(self, sim, medium):
        nodes = make_chain(sim, medium, 1)
        proxy = ProxyCore(nodes[0], port=5060)
        proxy.add_leg("wan", SipTransport(nodes[0], 5061, address_override="10.0.0.9"))
        proxy.remove_leg("wan")
        assert proxy.select_leg("10.1.2.3") is proxy.primary
