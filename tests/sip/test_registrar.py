"""Unit tests for the registrar and location service."""

import pytest

from repro.sip import Headers, LocationService, Registrar, SipRequest, SipUri


def make_register(aor="sip:alice@voicehoc.ch", contact="<sip:alice@10.0.0.1:5070>", expires=None):
    headers = Headers()
    headers.add("From", f"<{aor}>;tag=t")
    headers.add("To", f"<{aor}>")
    headers.add("Call-ID", "reg-1")
    headers.add("CSeq", "1 REGISTER")
    if contact is not None:
        headers.add("Contact", contact)
    if expires is not None:
        headers.add("Expires", str(expires))
    return SipRequest("REGISTER", "sip:voicehoc.ch", headers=headers)


class TestLocationService:
    def test_register_and_lookup(self):
        location = LocationService()
        location.register("sip:a@h", SipUri.parse("sip:a@10.0.0.1:5070"), 60, now=0.0)
        assert [c.host for c in location.lookup("sip:a@h", now=30.0)] == ["10.0.0.1"]

    def test_expiry(self):
        location = LocationService()
        location.register("sip:a@h", SipUri.parse("sip:a@10.0.0.1"), 60, now=0.0)
        assert location.lookup("sip:a@h", now=61.0) == []

    def test_same_contact_refreshes_not_duplicates(self):
        location = LocationService()
        contact = SipUri.parse("sip:a@10.0.0.1:5070")
        location.register("sip:a@h", contact, 60, now=0.0)
        location.register("sip:a@h", contact, 60, now=10.0)
        assert len(location.lookup("sip:a@h", now=20.0)) == 1

    def test_multiple_contacts(self):
        location = LocationService()
        location.register("sip:a@h", SipUri.parse("sip:a@10.0.0.1"), 60, now=0.0)
        location.register("sip:a@h", SipUri.parse("sip:a@10.0.0.2"), 60, now=0.0)
        assert len(location.lookup("sip:a@h", now=1.0)) == 2

    def test_remove_specific_contact(self):
        location = LocationService()
        c1 = SipUri.parse("sip:a@10.0.0.1")
        c2 = SipUri.parse("sip:a@10.0.0.2")
        location.register("sip:a@h", c1, 60, now=0.0)
        location.register("sip:a@h", c2, 60, now=0.0)
        location.remove("sip:a@h", c1)
        assert [c.host for c in location.lookup("sip:a@h", now=1.0)] == ["10.0.0.2"]

    def test_bindings_snapshot_filters_expired(self):
        location = LocationService()
        location.register("sip:a@h", SipUri.parse("sip:a@10.0.0.1"), 10, now=0.0)
        location.register("sip:b@h", SipUri.parse("sip:b@10.0.0.2"), 100, now=0.0)
        snapshot = location.bindings(now=50.0)
        assert list(snapshot) == ["sip:b@h"]


class _FakeTxn:
    def __init__(self):
        self.responses = []

    def send_response(self, response):
        self.responses.append(response)


class TestRegistrar:
    def test_successful_registration(self):
        registrar = Registrar(LocationService())
        txn = _FakeTxn()
        registrar.process(make_register(expires=120), txn, now=0.0)
        assert txn.responses[0].status == 200
        assert "expires=120" in txn.responses[0].headers.get("Contact")
        assert registrar.location.lookup("sip:alice@voicehoc.ch", now=1.0)

    def test_deregistration_with_expires_zero(self):
        registrar = Registrar(LocationService())
        registrar.process(make_register(expires=120), _FakeTxn(), now=0.0)
        registrar.process(make_register(expires=0), _FakeTxn(), now=1.0)
        assert registrar.location.lookup("sip:alice@voicehoc.ch", now=2.0) == []

    def test_wildcard_deregistration(self):
        registrar = Registrar(LocationService())
        registrar.process(make_register(expires=120), _FakeTxn(), now=0.0)
        registrar.process(make_register(contact="*", expires=0), _FakeTxn(), now=1.0)
        assert registrar.location.lookup("sip:alice@voicehoc.ch", now=2.0) == []

    def test_malformed_expires_rejected(self):
        registrar = Registrar(LocationService())
        txn = _FakeTxn()
        registrar.process(make_register(expires="soon"), txn, now=0.0)
        assert txn.responses[0].status == 400

    @pytest.mark.parametrize("expires", ["-1", "\u0663\u0666\u0660\u0660", "36_00"])
    def test_negative_or_non_ascii_expires_rejected(self, expires):
        registrar = Registrar(LocationService())
        txn = _FakeTxn()
        registrar.process(make_register(expires=expires), txn, now=0.0)
        assert txn.responses[0].status == 400
        assert registrar.location.lookup("sip:alice@voicehoc.ch", now=1.0) == []

    def test_register_without_to_rejected(self):
        registrar = Registrar(LocationService())
        request = SipRequest("REGISTER", "sip:h")
        txn = _FakeTxn()
        registrar.process(request, txn, now=0.0)
        assert txn.responses[0].status == 400

    def test_query_registration_without_contact(self):
        registrar = Registrar(LocationService())
        registrar.process(make_register(expires=120), _FakeTxn(), now=0.0)
        txn = _FakeTxn()
        registrar.process(make_register(contact=None), txn, now=1.0)
        assert txn.responses[0].status == 200
        assert txn.responses[0].headers.get("Contact") is not None
