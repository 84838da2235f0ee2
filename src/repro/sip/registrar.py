"""SIP registrar and location service (RFC 3261 section 10).

Used by the Internet SIP providers (siphoc.ch / netvoip.ch / polyphone-like)
and by the SIPHoc proxy for its local VoIP application's registration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sip.message import SipRequest
from repro.sip.transaction import ServerTransaction
from repro.sip.uri import NameAddr, SipUri


@dataclass
class Binding:
    """One address-of-record -> contact binding."""

    aor: str
    contact: SipUri
    expires_at: float

    def is_valid(self, now: float) -> bool:
        return now < self.expires_at


class LocationService:
    """The registrar's binding database."""

    def __init__(self) -> None:
        self._bindings: dict[str, list[Binding]] = {}

    def register(self, aor: str, contact: SipUri, expires: float, now: float) -> Binding:
        binding = Binding(aor=aor, contact=contact, expires_at=now + expires)
        bindings = self._bindings.setdefault(aor, [])
        bindings[:] = [b for b in bindings if str(b.contact) != str(contact)]
        bindings.append(binding)
        return binding

    def remove(self, aor: str, contact: SipUri | None = None) -> None:
        if contact is None:
            self._bindings.pop(aor, None)
            return
        bindings = self._bindings.get(aor, [])
        bindings[:] = [b for b in bindings if str(b.contact) != str(contact)]

    def lookup(self, aor: str, now: float) -> list[SipUri]:
        return [b.contact for b in self._bindings.get(aor, []) if b.is_valid(now)]

    def bindings(self, now: float) -> dict[str, list[Binding]]:
        return {
            aor: [b for b in bindings if b.is_valid(now)]
            for aor, bindings in self._bindings.items()
            if any(b.is_valid(now) for b in bindings)
        }

    def __len__(self) -> int:
        return len(self._bindings)


class Registrar:
    """Processes REGISTER requests against a :class:`LocationService`."""

    DEFAULT_EXPIRES = 3600
    MIN_EXPIRES = 1

    def __init__(self, location: LocationService) -> None:
        self.location = location

    def process(
        self, request: SipRequest, txn: ServerTransaction | None, now: float
    ) -> bool:
        """Handle a REGISTER request; returns True if a response was sent."""
        to = request.to
        if to is None:
            if txn is not None:
                txn.send_response(request.create_response(400))
            return True
        aor = to.uri.address_of_record
        contact_value = request.headers.get("Contact")
        expires = request.expires(self.DEFAULT_EXPIRES)
        if expires is None:
            if txn is not None:
                txn.send_response(request.create_response(400))
            return True

        if contact_value is not None:
            if contact_value.strip() == "*":
                if expires == 0:
                    self.location.remove(aor)
            else:
                contact = NameAddr.parse(contact_value).uri
                if expires == 0:
                    self.location.remove(aor, contact)
                else:
                    self.location.register(aor, contact, max(expires, self.MIN_EXPIRES), now)

        response = request.create_response(200)
        for contact_uri in self.location.lookup(aor, now):
            response.headers.add("Contact", f"<{contact_uri}>;expires={expires}")
        if txn is not None:
            txn.send_response(response)
        return True
