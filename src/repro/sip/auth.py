"""SIP digest authentication (RFC 3261 section 22 / RFC 2617 subset).

Real SIP providers — including the three the paper tested against —
challenge REGISTERs with ``401 Unauthorized`` and expect an MD5 digest
``Authorization`` header. The UA core and the SIPHoc proxy's upstream
registration both implement the challenge/response dance; the provider
side issues nonces and verifies responses.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass


def _md5(text: str) -> str:
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def digest_response(
    username: str, realm: str, password: str, method: str, uri: str, nonce: str
) -> str:
    """RFC 2617 MD5 digest: H(H(A1):nonce:H(A2))."""
    ha1 = _md5(f"{username}:{realm}:{password}")
    ha2 = _md5(f"{method}:{uri}")
    return _md5(f"{ha1}:{nonce}:{ha2}")


def parse_auth_params(value: str) -> dict[str, str]:
    """Parse a ``Digest k="v", k2=v2`` header value into a dict."""
    value = value.strip()
    if value.lower().startswith("digest"):
        value = value[len("digest") :].strip()
    params: dict[str, str] = {}
    for chunk in _split_params(value):
        if "=" not in chunk:
            continue
        key, raw = chunk.split("=", 1)
        key = key.strip().lower()
        if key:
            params[key] = raw.strip().strip('"')
    return params


def _split_params(text: str) -> list[str]:
    """Split on commas that are not inside quoted strings."""
    parts: list[str] = []
    current = ""
    in_quotes = False
    for char in text:
        if char == '"':
            in_quotes = not in_quotes
            current += char
        elif char == "," and not in_quotes:
            parts.append(current)
            current = ""
        else:
            current += char
    if current.strip():
        parts.append(current)
    return parts


def make_challenge(realm: str, nonce: str) -> str:
    """Build a WWW-Authenticate header value."""
    return f'Digest realm="{realm}", nonce="{nonce}", algorithm=MD5'


def make_authorization(
    username: str, realm: str, nonce: str, uri: str, response: str
) -> str:
    """Build an Authorization header value."""
    return (
        f'Digest username="{username}", realm="{realm}", nonce="{nonce}", '
        f'uri="{uri}", response="{response}", algorithm=MD5'
    )


@dataclass(frozen=True)
class Credentials:
    """A SIP account's authentication material."""

    username: str
    password: str

    def authorization_for(
        self, challenge_value: str, method: str, uri: str, realm_hint: str | None = None
    ) -> str | None:
        """Answer a WWW-Authenticate challenge; None if it is unusable."""
        params = parse_auth_params(challenge_value)
        realm = params.get("realm", realm_hint or "")
        nonce = params.get("nonce")
        if not nonce:
            return None
        response = digest_response(
            self.username, realm, self.password, method, uri, nonce
        )
        return make_authorization(self.username, realm, nonce, uri, response)


class DigestAuthenticator:
    """Server-side digest verification with nonce lifecycle.

    Nonces are unique per authenticator: each provider or proxy that
    challenges draws from its own counter.
    """

    NONCE_LIFETIME = 300.0

    def __init__(self, realm: str) -> None:
        self.realm = realm
        self._passwords: dict[str, str] = {}
        self._nonces: dict[str, float] = {}
        self._nonce_ids = itertools.count(1)

    def add_user(self, username: str, password: str) -> None:
        self._passwords[username.lower()] = password

    def remove_user(self, username: str) -> None:
        self._passwords.pop(username.lower(), None)

    def has_user(self, username: str) -> bool:
        return username.lower() in self._passwords

    def challenge(self, now: float) -> str:
        """Issue a fresh nonce and build the WWW-Authenticate value."""
        nonce = f"n{next(self._nonce_ids):08x}"
        self._nonces[nonce] = now + self.NONCE_LIFETIME
        if len(self._nonces) > 1024:
            self._nonces = {n: t for n, t in self._nonces.items() if t > now}
        return make_challenge(self.realm, nonce)

    def verify(self, authorization_value: str, method: str, now: float) -> bool:
        """Check an Authorization header against known users and nonces."""
        params = parse_auth_params(authorization_value)
        username = params.get("username", "")
        nonce = params.get("nonce", "")
        uri = params.get("uri", "")
        provided = params.get("response", "")
        password = self._passwords.get(username.lower())
        if password is None:
            return False
        if self._nonces.get(nonce, 0.0) <= now:
            return False  # unknown or expired nonce
        # The digest is computed over the *verbatim* username the client
        # sent (account lookup alone is case-insensitive).
        expected = digest_response(
            username, params.get("realm", self.realm), password, method, uri, nonce
        )
        return provided == expected
