"""Unit tests for SIP message grammar: parsing, serialization, headers."""

import dataclasses

import pytest

from repro.errors import SipParseError
from repro.sip import CSeq, Headers, NameAddr, SipRequest, SipResponse, SipUri, Via, parse_message
from repro.sip.message import canonical_header_name
from repro.sip.uri import PARSE_CACHE_SIZE

INVITE_WIRE = (
    b"INVITE sip:bob@voicehoc.ch SIP/2.0\r\n"
    b"Via: SIP/2.0/UDP 192.168.0.1:5070;branch=z9hG4bK-1\r\n"
    b"From: \"Alice\" <sip:alice@voicehoc.ch>;tag=a1\r\n"
    b"To: <sip:bob@voicehoc.ch>\r\n"
    b"Call-ID: cid42@192.168.0.1\r\n"
    b"CSeq: 1 INVITE\r\n"
    b"Max-Forwards: 70\r\n"
    b"Contact: <sip:alice@192.168.0.1:5070>\r\n"
    b"Content-Type: application/sdp\r\n"
    b"Content-Length: 4\r\n"
    b"\r\n"
    b"body"
)


class TestHeaders:
    def test_case_insensitive_access(self):
        headers = Headers()
        headers.add("call-id", "x")
        assert headers.get("Call-ID") == "x"
        assert headers.get("CALL-id") == "x"
        assert "call-Id" in headers

    def test_multi_value_order(self):
        headers = Headers()
        headers.add("Via", "first")
        headers.add("Via", "second")
        assert headers.get("Via") == "first"
        assert headers.get_all("Via") == ["first", "second"]

    def test_insert_first(self):
        headers = Headers()
        headers.add("Via", "old")
        headers.insert_first("Via", "new")
        assert headers.get_all("Via") == ["new", "old"]

    def test_insert_first_on_absent_header_appends(self):
        headers = Headers()
        headers.insert_first("Route", "<sip:p;lr>")
        assert headers.get("Route") == "<sip:p;lr>"

    def test_set_collapses_multiple(self):
        headers = Headers()
        headers.add("Via", "a")
        headers.add("Via", "b")
        headers.set("Via", "only")
        assert headers.get_all("Via") == ["only"]

    def test_remove_first_returns_value(self):
        headers = Headers()
        headers.add("Route", "r1")
        headers.add("Route", "r2")
        assert headers.remove_first("Route") == "r1"
        assert headers.get_all("Route") == ["r2"]

    def test_canonical_casing(self):
        headers = Headers()
        headers.add("cseq", "1 INVITE")
        assert headers.items()[0][0] == "CSeq"

    def test_set_keeps_first_position_and_drops_duplicates(self):
        headers = Headers([("Route", "r1"), ("Via", "v1"), ("Route", "r2"), ("Via", "v2")])
        headers.set("route", "only")
        assert headers.items() == [("Route", "only"), ("Via", "v1"), ("Via", "v2")]

    def test_constructor_canonicalizes_and_strips(self):
        headers = Headers([("call-id", "  x "), ("v", "SIP/2.0/UDP h")])
        assert headers.items() == [("Call-ID", "x"), ("Via", "SIP/2.0/UDP h")]

    def test_copy_is_independent(self):
        headers = Headers([("Via", "a")])
        copy = headers.copy()
        copy.add("Via", "b")
        assert headers.get_all("Via") == ["a"]
        assert copy.get_all("Via") == ["a", "b"]


class TestHeaderNames:
    """Header names are canonicalized through a bounded memo."""

    @pytest.mark.parametrize(
        ("compact", "full"),
        [
            ("c", "Content-Type"),
            ("e", "Content-Encoding"),
            ("f", "From"),
            ("i", "Call-ID"),
            ("k", "Supported"),
            ("l", "Content-Length"),
            ("m", "Contact"),
            ("s", "Subject"),
            ("t", "To"),
            ("v", "Via"),
        ],
    )
    def test_compact_forms_map_to_long_forms(self, compact, full):
        assert canonical_header_name(compact) == full
        assert canonical_header_name(compact.upper()) == full

    def test_cache_is_bounded(self):
        assert canonical_header_name.cache_info().maxsize == PARSE_CACHE_SIZE

    def test_compact_response_is_routable(self):
        wire = (
            b"SIP/2.0 200 OK\r\n"
            b"v: SIP/2.0/UDP 192.168.0.1:5060;branch=z9hG4bK-1\r\n"
            b"f: <sip:alice@voicehoc.ch>;tag=a\r\n"
            b"t: <sip:bob@voicehoc.ch>;tag=b\r\n"
            b"i: abc\r\n"
            b"CSeq: 1 INVITE\r\n"
            b"m: <sip:bob@192.168.0.2>\r\n"
            b"l: 0\r\n\r\n"
        )
        message = parse_message(wire)
        assert message.top_via.host == "192.168.0.1"
        assert message.call_id == "abc"
        assert message.from_.tag == "a" and message.to.tag == "b"
        assert message.contact.uri.host == "192.168.0.2"
        assert message.transaction_key() == ("z9hG4bK-1", "INVITE")


class TestVia:
    def test_parse_full(self):
        via = Via.parse("SIP/2.0/UDP 192.168.0.1:5070;branch=z9hG4bK-7;rport")
        assert via.host == "192.168.0.1"
        assert via.port == 5070
        assert via.branch == "z9hG4bK-7"
        assert "rport" in via.params

    def test_default_port(self):
        assert Via.parse("SIP/2.0/UDP host.example").port == 5060

    def test_round_trip(self):
        text = "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-abc"
        assert str(Via.parse(text)) == text

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "UDP 1.2.3.4",
            "HTTP/1.1/TCP x",
            "SIP/2.0/UDP 1.2.3.4:99999",
            "SIP/2.0/UDP 1.2.3.4:0",
            "SIP/2.0/UDP 1.2.3.4:-1;branch=z9hG4bK-1",
        ],
    )
    def test_invalid(self, bad):
        with pytest.raises(SipParseError):
            Via.parse(bad)


class TestCSeq:
    def test_parse(self):
        cseq = CSeq.parse("42 INVITE")
        assert cseq.number == 42 and cseq.method == "INVITE"

    def test_invalid(self):
        with pytest.raises(SipParseError):
            CSeq.parse("nope")

    @pytest.mark.parametrize("bad", ["-5 INVITE", "-1 BYE", "2147483648 INVITE"])
    def test_out_of_range(self, bad):
        with pytest.raises(SipParseError):
            CSeq.parse(bad)

    def test_range_bounds_accepted(self):
        assert CSeq.parse("0 INVITE").number == 0
        assert CSeq.parse("2147483647 INVITE").number == 2**31 - 1


def _copy(text: str) -> str:
    """An equal string that is a different object."""
    return "".join(list(text))


class TestSharedParses:
    """Typed header parsers are memoized on the text and return immutable values."""

    @pytest.mark.parametrize(
        ("parse", "text"),
        [
            (Via.parse, "SIP/2.0/UDP 192.168.0.1:5070;branch=z9hG4bK-7;rport"),
            (CSeq.parse, "7 INVITE"),
            (NameAddr.parse, '"Alice" <sip:alice@voicehoc.ch>;tag=a1'),
            (SipUri.parse, "sip:bob@192.168.0.7:5060;lr"),
        ],
        ids=["via", "cseq", "name_addr", "uri"],
    )
    def test_equal_texts_share_one_parse(self, parse, text):
        copy = _copy(text)
        assert copy is not text
        assert parse(text) is parse(copy)
        assert parse.cache_info().maxsize == PARSE_CACHE_SIZE

    @pytest.mark.parametrize(
        ("value", "field"),
        [
            (Via.parse("SIP/2.0/UDP 10.0.0.1;branch=z9hG4bK-f"), "branch"),
            (Via.parse("SIP/2.0/UDP 10.0.0.1;branch=z9hG4bK-f"), "port"),
            (CSeq.parse("3 BYE"), "number"),
            (NameAddr.parse("<sip:a@b>;tag=x"), "display_name"),
            (SipUri.parse("sip:a@b"), "host"),
        ],
    )
    def test_parsed_values_are_frozen(self, value, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, None)

    @pytest.mark.parametrize(
        "value",
        [
            Via.parse("SIP/2.0/UDP 10.0.0.1;branch=z9hG4bK-p;rport"),
            NameAddr.parse("<sip:a@b>;tag=x"),
        ],
    )
    def test_params_are_read_only(self, value):
        with pytest.raises(TypeError):
            value.params["x"] = "y"
        assert "x" not in value.params

    def test_caller_dict_is_copied_read_only(self):
        params = {"rport": None}
        via = Via(host="10.0.0.1", branch="z9hG4bK-c", params=params)
        params["received"] = "10.0.0.9"
        assert dict(via.params) == {"rport": None}
        with pytest.raises(TypeError):
            via.params["x"] = "y"
        assert str(via) == "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-c;rport"

    def test_with_tag_leaves_shared_value_alone(self):
        shared = NameAddr.parse("<sip:bob@voicehoc.ch>")
        tagged = shared.with_tag("t1")
        assert tagged.tag == "t1"
        assert shared.tag is None
        assert NameAddr.parse("<sip:bob@voicehoc.ch>") is shared

    def test_errors_are_raised_every_time(self):
        for _ in range(2):
            with pytest.raises(SipParseError):
                Via.parse("garbage")
            with pytest.raises(SipParseError):
                CSeq.parse("nope")


class TestCheckHeaders:
    """check_headers parses every typed header a receiver will read."""

    @pytest.mark.parametrize(
        ("name", "value"),
        [
            ("Via", "garbage"),
            ("CSeq", "nope"),
            ("CSeq", "-5 INVITE"),
            ("From", "garbage"),
            ("To", "nope"),
            ("Contact", "x"),
            ("Route", "<tel:123>"),
            ("Record-Route", "<nope>"),
        ],
    )
    def test_malformed_typed_header_raises(self, name, value):
        message = parse_message(INVITE_WIRE)
        message.headers.add(name, value)
        with pytest.raises(SipParseError):
            message.check_headers()

    def test_well_formed_message_passes(self):
        parse_message(INVITE_WIRE).check_headers()

    def test_contact_wildcard_is_allowed(self):
        register = SipRequest("REGISTER", "sip:voicehoc.ch")
        register.headers.add("Via", "SIP/2.0/UDP 192.168.0.1:5070;branch=z9hG4bK-r")
        register.headers.add("CSeq", "2 REGISTER")
        register.headers.add("Contact", "*")
        register.headers.add("Expires", "0")
        parse_message(register.serialize()).check_headers()

    def test_untyped_headers_are_not_parsed(self):
        message = parse_message(INVITE_WIRE)
        message.headers.add("Subject", "<<not a name-addr>>")
        message.check_headers()


class TestParsing:
    def test_parse_request(self):
        message = parse_message(INVITE_WIRE)
        assert isinstance(message, SipRequest)
        assert message.method == "INVITE"
        assert message.uri.user == "bob"
        assert message.call_id == "cid42@192.168.0.1"
        assert message.cseq.number == 1
        assert message.from_.tag == "a1"
        assert message.to.tag is None
        assert message.body == b"body"

    def test_parse_response(self):
        wire = (
            b"SIP/2.0 180 Ringing\r\n"
            b"Via: SIP/2.0/UDP h:5060;branch=z9hG4bK-1\r\n"
            b"Call-ID: x\r\nCSeq: 1 INVITE\r\n\r\n"
        )
        message = parse_message(wire)
        assert isinstance(message, SipResponse)
        assert message.status == 180
        assert message.reason == "Ringing"
        assert message.is_provisional and not message.is_final

    def test_header_line_folding_uses_public_api(self):
        wire = (
            b"OPTIONS sip:h SIP/2.0\r\n"
            b"Via: SIP/2.0/UDP h:5060;branch=z9hG4bK-1\r\n"
            b"Subject: first part\r\n"
            b" second part\r\n"
            b"Call-ID: x\r\nCSeq: 1 OPTIONS\r\n\r\n"
        )
        message = parse_message(wire)
        assert message.headers.get("Subject") == "first part second part"

    def test_serialize_parse_round_trip(self):
        message = parse_message(INVITE_WIRE)
        again = parse_message(message.serialize())
        assert again.method == "INVITE"
        assert again.headers.items() == message.headers.items()
        assert again.body == message.body

    def test_content_length_updated_on_serialize(self):
        request = SipRequest("OPTIONS", "sip:h")
        request.body = b"12345"
        wire = request.serialize()
        assert b"Content-Length: 5" in wire


class TestSerializeCache:
    def test_unmodified_message_serializes_once(self):
        message = parse_message(INVITE_WIRE)
        wire = message.serialize()
        assert message.serialize() is wire  # memoized, not rebuilt

    def test_header_mutation_invalidates(self):
        message = parse_message(INVITE_WIRE)
        first = message.serialize()
        message.headers.set("Max-Forwards", "69")
        second = message.serialize()
        assert second is not first
        assert b"Max-Forwards: 69" in second
        assert message.serialize() is second

    def test_via_push_and_pop_invalidate(self):
        message = parse_message(INVITE_WIRE)
        message.serialize()
        message.headers.insert_first("Via", "SIP/2.0/UDP 192.168.0.9;branch=z9hG4bK-2")
        wire = message.serialize()
        assert wire.index(b"192.168.0.9") < wire.index(b"192.168.0.1")
        message.headers.remove_first("Via")
        assert b"192.168.0.9" not in message.serialize()

    def test_extend_last_invalidates(self):
        message = parse_message(INVITE_WIRE)
        first = message.serialize()
        version_before = message.headers.version
        message.headers.extend_last("Contact", ";expires=60")
        assert message.headers.version > version_before
        second = message.serialize()
        assert second is not first
        assert b"Contact: <sip:alice@192.168.0.1:5070> ;expires=60" in second
        assert message.serialize() is second

    def test_extend_last_unknown_header_raises(self):
        message = parse_message(INVITE_WIRE)
        with pytest.raises(KeyError):
            message.headers.extend_last("Subject", "nope")

    def test_bump_version_invalidates(self):
        message = parse_message(INVITE_WIRE)
        first = message.serialize()
        message.headers.bump_version()
        assert message.serialize() is not first

    def test_body_change_updates_content_length(self):
        request = SipRequest("OPTIONS", "sip:h")
        assert b"Content-Length: 0" in request.serialize()
        request.body = b"12345"
        assert b"Content-Length: 5" in request.serialize()

    def test_request_uri_rewrite_invalidates(self):
        request = SipRequest("INVITE", "sip:bob@voicehoc.ch")
        request.serialize()
        request.uri = SipUri.parse("sip:bob@192.168.0.7:5060")
        assert request.serialize().startswith(b"INVITE sip:bob@192.168.0.7:5060")

    def test_response_cache_round_trip(self):
        response = SipResponse(200)
        response.headers.add("Via", "SIP/2.0/UDP h;branch=z9hG4bK-1")
        wire = response.serialize()
        assert response.serialize() is wire
        parsed = parse_message(wire)
        assert parsed.status == 200

    def test_headers_version_counts_mutations(self):
        headers = Headers()
        v0 = headers.version
        headers.add("Via", "a")
        headers.set("Via", "b")
        headers.remove("Via")
        assert headers.version == v0 + 3

    @pytest.mark.parametrize(
        "bad",
        [
            b"",
            b"\r\n\r\n",
            b"INVITE sip:x\r\n\r\n",  # missing version
            b"INVITE sip:x SIP/2.0\r\nBroken Header Line\r\n\r\n",
            b"SIP/2.0 banana OK\r\n\r\n",
            b"SIP/2.0 999999 OK\r\n\r\n",
            b"invite sip:x SIP/2.0\r\n\r\n",  # lowercase method
            b"\xff\xfe INVITE",
            b"OPTIONS sip:x SIP/2.0\r\nContent-Length: 50\r\n\r\nhello",  # short body
            b"OPTIONS sip:x SIP/2.0\r\nContent-Length: -1\r\n\r\nhello",
            b"OPTIONS sip:x SIP/2.0\r\nContent-Length: five\r\n\r\nhello",
            b"OPTIONS sip:x SIP/2.0\r\nl: 6\r\n\r\nhello",  # compact form
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(SipParseError):
            parse_message(bad)

    def test_bytes_past_content_length_are_discarded(self):
        message = parse_message(b"OPTIONS sip:x SIP/2.0\r\nContent-Length: 2\r\n\r\nhello")
        assert message.body == b"he"

    def test_missing_content_length_takes_rest_of_datagram(self):
        message = parse_message(b"OPTIONS sip:x SIP/2.0\r\nCall-ID: c\r\n\r\nhello")
        assert message.body == b"hello"

    def test_transaction_key_ack_maps_to_invite(self):
        request = SipRequest("ACK", "sip:h")
        request.headers.add("Via", "SIP/2.0/UDP h;branch=z9hG4bK-9")
        request.headers.add("CSeq", "1 ACK")
        assert request.transaction_key() == ("z9hG4bK-9", "INVITE")


class TestCreateResponse:
    def make_invite(self):
        return parse_message(INVITE_WIRE)

    def test_copies_mandatory_headers(self):
        response = self.make_invite().create_response(200)
        assert response.headers.get("Via") is not None
        assert response.headers.get("From") is not None
        assert response.call_id == "cid42@192.168.0.1"
        assert response.cseq.method == "INVITE"

    def test_adds_to_tag(self):
        response = self.make_invite().create_response(200, to_tag="bt")
        assert response.to.tag == "bt"

    def test_preserves_existing_to_tag(self):
        invite = self.make_invite()
        invite.headers.set("To", "<sip:bob@voicehoc.ch>;tag=orig")
        response = invite.create_response(200, to_tag="new")
        assert response.to.tag == "orig"

    def test_dialog_forming_response_echoes_record_route(self):
        invite = self.make_invite()
        invite.headers.add("Record-Route", "<sip:p1;lr>")
        invite.headers.add("Record-Route", "<sip:p2;lr>")
        ok = invite.create_response(200, to_tag="t")
        assert ok.headers.get_all("Record-Route") == ["<sip:p1;lr>", "<sip:p2;lr>"]
        # Non-INVITE responses don't echo it.
        bye = SipRequest("BYE", "sip:h")
        bye.headers.add("CSeq", "2 BYE")
        bye.headers.add("Record-Route", "<sip:p1;lr>")
        assert bye.create_response(200).headers.get("Record-Route") is None

    def test_default_reason_phrases(self):
        assert self.make_invite().create_response(404).reason == "Not Found"
        assert self.make_invite().create_response(486).reason == "Busy Here"


class TestRetryAfter:
    """Retry-After accessors (§5f): tolerant reads, clamped writes."""

    @pytest.mark.parametrize(
        ("raw", "expected"),
        [
            (None, None),  # header absent entirely
            ("5", 5),
            ("0", 0),
            ("120", 120),
            ("  18  ", 18),
            ("5;duration=30", 5),
            ("3 (call back later)", 3),
            ("7 (be patient);duration=60", 7),
            ("", None),
            ("soon", None),
            ("-4", None),  # negative delta-seconds is not a usable delay
            ("5.5", None),
            ("(only a comment)", None),
            (";duration=30", None),
            ("²", None),  # a Unicode digit int() cannot read
            ("٣", None),  # a non-ASCII digit int() would read as 3
        ],
    )
    def test_read_is_tolerant(self, raw, expected):
        response = SipResponse(503)
        if raw is not None:
            response.headers.set("Retry-After", raw)
        assert response.retry_after == expected

    @pytest.mark.parametrize(
        ("seconds", "wire"),
        [(5, "5"), (0, "0"), (-3, "0"), (7200, "7200")],
    )
    def test_write_clamps_and_round_trips(self, seconds, wire):
        response = SipResponse(503, "Service Unavailable")
        response.headers.add("Via", "SIP/2.0/UDP h;branch=z9hG4bK-ra")
        response.set_retry_after(seconds)
        assert response.headers.get("Retry-After") == wire
        reparsed = parse_message(response.serialize())
        assert reparsed.retry_after == int(wire)

    def test_requests_read_retry_after_too(self):
        request = parse_message(INVITE_WIRE)
        assert request.retry_after is None
        request.headers.set("Retry-After", "11")
        assert parse_message(request.serialize()).retry_after == 11


class TestExpires:
    @pytest.mark.parametrize(
        ("raw", "expected"),
        [
            (None, 77),  # absent: the caller's default
            ("0", 0),
            ("3600", 3600),
            (" 120 ", 120),
            ("-1", None),  # negative delta-seconds is malformed
            ("soon", None),
            ("", None),
            ("5.5", None),
            ("36_00", None),  # int() reads it, RFC 3261 does not
            ("\u0663\u0666\u0660\u0660", None),  # non-ASCII digits int() would read
        ],
    )
    def test_delta_seconds_or_none(self, raw, expected):
        request = parse_message(INVITE_WIRE)
        if raw is not None:
            request.headers.set("Expires", raw)
        assert request.expires(77) == expected
