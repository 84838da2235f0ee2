"""Unit tests for SLP service URLs, attributes and predicates."""

import pytest

from repro.errors import SlpError
from repro.slp import (
    ServiceEntry,
    ServiceUrl,
    evaluate_predicate,
    format_attributes,
    parse_attributes,
)


class TestServiceUrl:
    def test_parse_full(self):
        url = ServiceUrl.parse("service:siphoc-sip://192.168.0.1:5060")
        assert url.service_type == "siphoc-sip"
        assert url.host == "192.168.0.1"
        assert url.port == 5060
        assert url.address == ("192.168.0.1", 5060)

    def test_parse_without_port(self):
        url = ServiceUrl.parse("service:gateway.siphoc://gw.local")
        assert url.port is None
        with pytest.raises(SlpError):
            _ = url.address

    def test_round_trip(self):
        text = "service:gateway.siphoc://192.168.0.7:5063"
        assert str(ServiceUrl.parse(text)) == text

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "siphoc-sip://x",
            "service:noaddress",
            "service:://h",
            "service:t://",
            "service:t://h:xx",
            "service:t://h:0",
            "service:t://h:-1",
            "service:t://h:70000",
            "service:t://h:5_060",
            "service:t://h:٥٠٦٠",
        ],
    )
    def test_invalid(self, bad):
        with pytest.raises(SlpError):
            ServiceUrl.parse(bad)


class TestAttributes:
    def test_round_trip(self):
        attrs = {"user": "sip:alice@voicehoc.ch", "transport": "udp"}
        assert parse_attributes(format_attributes(attrs)) == attrs

    def test_empty(self):
        assert format_attributes({}) == ""
        assert parse_attributes("") == {}

    def test_value_containing_equals(self):
        attrs = {"k": "a=b=c"}
        assert parse_attributes(format_attributes(attrs)) == attrs

    def test_sorted_deterministic(self):
        assert format_attributes({"b": "2", "a": "1"}) == "(a=1),(b=2)"


class TestPredicates:
    ATTRS = {"user": "sip:bob@voicehoc.ch", "transport": "udp"}

    def test_empty_matches_everything(self):
        assert evaluate_predicate("", self.ATTRS)

    def test_simple_equality(self):
        assert evaluate_predicate("(user=sip:bob@voicehoc.ch)", self.ATTRS)
        assert not evaluate_predicate("(user=sip:alice@voicehoc.ch)", self.ATTRS)

    def test_missing_key_fails(self):
        assert not evaluate_predicate("(nope=1)", self.ATTRS)

    def test_wildcard_suffix(self):
        assert evaluate_predicate("(user=sip:bob*)", self.ATTRS)
        assert not evaluate_predicate("(user=sip:alice*)", self.ATTRS)

    def test_conjunction(self):
        assert evaluate_predicate(
            "(&(user=sip:bob@voicehoc.ch)(transport=udp))", self.ATTRS
        )
        assert not evaluate_predicate(
            "(&(user=sip:bob@voicehoc.ch)(transport=tcp))", self.ATTRS
        )

    @pytest.mark.parametrize("garbage", ["(unclosed", "user=x", "(&)extra", "((x=y))"])
    def test_garbage_fails_closed(self, garbage):
        assert not evaluate_predicate(garbage, self.ATTRS)

    def test_nesting_depth_carries_no_meaning(self):
        # 6 KB, well inside a SrvRqst's u16 predicate string.
        deep = "(&" * 2000 + "(user=sip:bob@voicehoc.ch)" + ")" * 2000
        assert evaluate_predicate(deep, self.ATTRS)
        assert not evaluate_predicate(deep.replace("bob", "alice"), self.ATTRS)
        assert not evaluate_predicate(deep[:-1], self.ATTRS)


class TestServiceEntry:
    def make_entry(self, expires_at=100.0):
        return ServiceEntry(
            url=ServiceUrl.parse("service:siphoc-sip://192.168.0.1:5060"),
            attributes={"user": "sip:alice@voicehoc.ch"},
            lifetime=60.0,
            expires_at=expires_at,
            origin="192.168.0.1",
        )

    def test_validity(self):
        entry = self.make_entry(expires_at=100.0)
        assert entry.is_valid(99.0)
        assert not entry.is_valid(100.0)

    def test_matches_type_and_predicate(self):
        entry = self.make_entry()
        assert entry.matches("siphoc-sip")
        assert entry.matches("siphoc-sip", "(user=sip:alice@voicehoc.ch)")
        assert not entry.matches("gateway.siphoc")
        assert not entry.matches("siphoc-sip", "(user=sip:bob@voicehoc.ch)")
