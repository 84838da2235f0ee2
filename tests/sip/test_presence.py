"""Unit tests for PIDF documents and UA-level SUBSCRIBE/NOTIFY."""

import pytest

from repro.errors import SipParseError
from repro.sip.pidf import (
    AVAILABLE,
    OFFLINE,
    ON_THE_PHONE,
    PresenceStatus,
    build_pidf,
    parse_pidf,
)
from repro.sip.ua import UserAgent
from tests.conftest import make_chain


class TestPidf:
    def test_round_trip(self):
        entity, status = parse_pidf(build_pidf("sip:bob@voicehoc.ch", ON_THE_PHONE))
        assert entity == "sip:bob@voicehoc.ch"
        assert status == ON_THE_PHONE

    def test_closed_status(self):
        _, status = parse_pidf(build_pidf("sip:a@h", OFFLINE))
        assert not status.available

    def test_xml_escaping(self):
        weird = PresenceStatus(basic="open", note='meeting <with> "Q&A"')
        entity, status = parse_pidf(build_pidf("sip:a@h", weird))
        assert status.note == 'meeting <with> "Q&A"'

    def test_invalid_basic_rejected(self):
        with pytest.raises(SipParseError):
            PresenceStatus(basic="away")

    @pytest.mark.parametrize("garbage", [b"", b"<presence>", b"\xff\xfe", b"<basic>open</basic>"])
    def test_malformed_rejected(self, garbage):
        with pytest.raises(SipParseError):
            parse_pidf(garbage)


@pytest.fixture
def ua_pair(sim, medium):
    a, b = make_chain(sim, medium, 2, static_routes=True)
    alice = UserAgent(a, "sip:alice@voicehoc.ch", port=5070)
    bob = UserAgent(b, "sip:bob@voicehoc.ch", port=5070)
    return a, b, alice, bob


class TestSubscribeNotify:
    def test_initial_notify_carries_current_state(self, sim, ua_pair):
        a, b, alice, bob = ua_pair
        updates = []
        subscription = alice.subscribe(
            f"sip:bob@{b.ip}:5070", on_notify=lambda s: updates.append(s.status)
        )
        sim.run(2.0)
        assert subscription.active
        assert updates and updates[0] == AVAILABLE
        assert bob.watcher_count == 1

    def test_state_change_notifies_watcher(self, sim, ua_pair):
        a, b, alice, bob = ua_pair
        updates = []
        alice.subscribe(f"sip:bob@{b.ip}:5070", on_notify=lambda s: updates.append(s.status))
        sim.run(2.0)
        bob.set_presence(ON_THE_PHONE)
        sim.run(4.0)
        assert updates[-1] == ON_THE_PHONE
        bob.set_presence(AVAILABLE)
        sim.run(6.0)
        assert updates[-1] == AVAILABLE

    def test_terminate_sends_final_notify(self, sim, ua_pair):
        a, b, alice, bob = ua_pair
        updates = []
        subscription = alice.subscribe(
            f"sip:bob@{b.ip}:5070", on_notify=lambda s: updates.append(s.terminated)
        )
        sim.run(2.0)
        subscription.terminate()
        sim.run(4.0)
        assert bob.watcher_count == 0
        assert subscription.terminated

    def test_expired_watcher_dropped_when_subscriber_dies(self, sim, ua_pair):
        a, b, alice, bob = ua_pair
        subscription = alice.subscribe(f"sip:bob@{b.ip}:5070", expires=3)
        sim.run(2.0)
        assert bob.watcher_count == 1
        # Subscriber crashes: no more refreshes; the watcher times out.
        subscription._refresh_task.stop()
        sim.run(8.0)
        assert bob.watcher_count == 0
        # A state change after expiry notifies nobody new.
        bob.set_presence(OFFLINE)
        sim.run(9.0)

    def test_refresh_keeps_subscription_alive(self, sim, ua_pair):
        a, b, alice, bob = ua_pair
        updates = []
        alice.subscribe(
            f"sip:bob@{b.ip}:5070", expires=4,
            on_notify=lambda s: updates.append(s.status),
        )
        sim.run(15.0)  # several expiry windows
        assert bob.watcher_count == 1
        bob.set_presence(ON_THE_PHONE)
        sim.run(17.0)
        assert updates[-1] == ON_THE_PHONE

    def test_subscribe_to_unreachable_target_terminates(self, sim, ua_pair):
        a, b, alice, bob = ua_pair
        bob.close()
        subscription = alice.subscribe(f"sip:bob@{b.ip}:5070")
        sim.run(40.0)
        assert subscription.terminated
        assert not subscription.active

    def test_non_presence_event_rejected(self, sim, ua_pair):
        a, b, alice, bob = ua_pair
        from repro.sip import Headers, SipRequest

        headers = Headers()
        headers.add("From", "<sip:alice@voicehoc.ch>;tag=x")
        headers.add("To", "<sip:bob@voicehoc.ch>")
        headers.add("Call-ID", "sub-evil")
        headers.add("CSeq", "1 SUBSCRIBE")
        headers.add("Event", "dialog")
        request = SipRequest("SUBSCRIBE", f"sip:bob@{b.ip}:5070", headers=headers)
        responses = []
        alice.transactions.send_request(request, (b.ip, 5070), responses.append)
        sim.run(2.0)
        assert [r.status for r in responses] == [489]

    @pytest.mark.parametrize("expires", ["-1", "soon", "\u0663\u0660\u0660", "3_00"])
    def test_malformed_expires_rejected(self, sim, ua_pair, expires):
        a, b, alice, bob = ua_pair
        subscription = alice.subscribe(f"sip:bob@{b.ip}:5070", expires=expires)
        sim.run(2.0)
        assert subscription.terminated and not subscription.active
        assert bob.watcher_count == 0

    def test_notify_with_malformed_pidf_keeps_last_status(self, sim, ua_pair):
        a, b, alice, bob = ua_pair
        from repro.sip import Headers, SipRequest

        subscription = alice.subscribe(f"sip:bob@{b.ip}:5070")
        sim.run(2.0)
        status = subscription.status
        assert subscription.active and status is not None
        headers = Headers()
        headers.add("From", "<sip:bob@voicehoc.ch>;tag=x")
        headers.add("To", "<sip:alice@voicehoc.ch>;tag=y")
        headers.add("Call-ID", subscription.call_id)
        headers.add("CSeq", "9 NOTIFY")
        headers.add("Event", "presence")
        request = SipRequest("NOTIFY", f"sip:alice@{a.ip}:5070", headers=headers, body=b"<nope")
        responses = []
        bob.transactions.send_request(request, (a.ip, 5070), responses.append)
        sim.run(4.0)
        assert [r.status for r in responses] == [200]
        assert subscription.status == status

    def test_stray_notify_481(self, sim, ua_pair):
        a, b, alice, bob = ua_pair
        from repro.sip import Headers, SipRequest

        headers = Headers()
        headers.add("From", "<sip:bob@voicehoc.ch>;tag=x")
        headers.add("To", "<sip:alice@voicehoc.ch>;tag=y")
        headers.add("Call-ID", "no-subscription")
        headers.add("CSeq", "1 NOTIFY")
        headers.add("Event", "presence")
        request = SipRequest("NOTIFY", f"sip:alice@{a.ip}:5070", headers=headers)
        responses = []
        bob.transactions.send_request(request, (a.ip, 5070), responses.append)
        sim.run(2.0)
        assert [r.status for r in responses] == [481]
