"""SIP URIs (RFC 3261 section 19.1, practical subset).

Supports ``sip:user@host:port;param=value;lr`` forms plus name-addr
(``"Display" <sip:...>;tag=x``) used by From/To/Contact/Route headers.

Parsed values are immutable and memoized on the header text: every hop of a
call re-reads the same handful of URIs, so each distinct text is parsed once
per process and the result is shared by every caller.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

from repro.errors import SipParseError

#: Entries kept by each memoized SIP parser (header names, ``SipUri``,
#: ``NameAddr``, ``Via`` and ``CSeq``), keyed on the wire text.
PARSE_CACHE_SIZE = 1024


def parse_params(text: str) -> dict[str, str | None]:
    """``;key=value;flag`` parameters, keys lower-cased, in wire order."""
    params: dict[str, str | None] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, value = chunk.partition("=")
        params[key.lower()] = value if sep else None
    return params


@dataclass(frozen=True)
class SipUri:
    """A parsed SIP URI."""

    user: str | None
    host: str
    port: int | None = None
    params: tuple[tuple[str, str | None], ...] = ()
    scheme: str = "sip"

    @staticmethod
    @functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
    def parse(text: str) -> "SipUri":
        """Parse ``text``; equal texts return the same (immutable) object."""
        text = text.strip()
        if ":" not in text:
            raise SipParseError(f"not a SIP URI (no scheme): {text!r}")
        scheme, rest = text.split(":", 1)
        scheme = scheme.lower()
        if scheme not in ("sip", "sips"):
            raise SipParseError(f"unsupported URI scheme {scheme!r}")
        params: list[tuple[str, str | None]] = []
        if ";" in rest:
            rest, param_text = rest.split(";", 1)
            for chunk in param_text.split(";"):
                if not chunk:
                    continue
                if "=" in chunk:
                    key, value = chunk.split("=", 1)
                    params.append((key.lower(), value))
                else:
                    params.append((chunk.lower(), None))
        user: str | None = None
        if "@" in rest:
            user, hostport = rest.rsplit("@", 1)
            if not user:
                raise SipParseError(f"empty user part in URI: {text!r}")
        else:
            hostport = rest
        port: int | None = None
        if ":" in hostport:
            host, port_text = hostport.rsplit(":", 1)
            try:
                port = int(port_text)
            except ValueError as exc:
                raise SipParseError(f"invalid port in URI: {text!r}") from exc
            if not 0 < port < 65536:
                raise SipParseError(f"port out of range in URI: {text!r}")
        else:
            host = hostport
        if not host:
            raise SipParseError(f"empty host in URI: {text!r}")
        return SipUri(user=user, host=host.lower(), port=port, params=tuple(params), scheme=scheme)

    def __str__(self) -> str:
        return self._text

    @functools.cached_property
    def _text(self) -> str:
        """The rendered URI, kept: start lines and headers re-render it."""
        out = f"{self.scheme}:"
        if self.user:
            out += f"{self.user}@"
        out += self.host
        if self.port is not None:
            out += f":{self.port}"
        for key, value in self.params:
            out += f";{key}" if value is None else f";{key}={value}"
        return out

    # -- convenience -----------------------------------------------------------
    @property
    def address_of_record(self) -> str:
        """The bare ``sip:user@host`` form used as a registration key."""
        user_part = f"{self.user}@" if self.user else ""
        return f"{self.scheme}:{user_part}{self.host}"

    def param(self, name: str) -> str | None:
        for key, value in self.params:
            if key == name.lower():
                return value if value is not None else ""
        return None

    def has_param(self, name: str) -> bool:
        return any(key == name.lower() for key, value in self.params)

    def with_param(self, name: str, value: str | None = None) -> "SipUri":
        remaining = tuple((k, v) for k, v in self.params if k != name.lower())
        return replace(self, params=remaining + ((name.lower(), value),))

    def without_params(self) -> "SipUri":
        return replace(self, params=())

    def effective_port(self, default: int = 5060) -> int:
        return self.port if self.port is not None else default


@dataclass(frozen=True)
class NameAddr:
    """name-addr form: optional display name, URI, and header parameters.

    Used for From/To/Contact/Route/Record-Route header values like
    ``"Alice" <sip:alice@voicehoc.ch>;tag=8f2a``. ``params`` is read-only;
    :meth:`with_tag` builds a new value.
    """

    uri: SipUri
    display_name: str | None = None
    params: Mapping[str, str | None] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Parsed values are shared: a caller's dict becomes a read-only copy.
        if not isinstance(self.params, MappingProxyType):
            object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    @staticmethod
    @functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
    def parse(text: str) -> "NameAddr":
        """Parse ``text``; equal texts return the same (immutable) object."""
        text = text.strip()
        display_name: str | None = None
        if "<" in text:
            before, _, rest = text.partition("<")
            uri_text, _, param_text = rest.partition(">")
            display_name = before.strip().strip('"') or None
        else:
            # addr-spec form: any ;params belong to the header, not the URI.
            uri_text, _, param_text = text.partition(";")
        return NameAddr(
            uri=SipUri.parse(uri_text),
            display_name=display_name,
            params=MappingProxyType(parse_params(param_text)),
        )

    def __str__(self) -> str:
        if self.display_name:
            out = f'"{self.display_name}" <{self.uri}>'
        else:
            out = f"<{self.uri}>"
        for key, value in self.params.items():
            out += f";{key}" if value is None else f";{key}={value}"
        return out

    @property
    def tag(self) -> str | None:
        return self.params.get("tag")

    def with_tag(self, tag: str) -> "NameAddr":
        return replace(self, params={**self.params, "tag": tag})
