"""SLP service model: service URLs, attributes, registrations and filters.

Service URLs follow RFC 2608 conventions, e.g.::

    service:siphoc-sip://192.168.0.1:5060
    service:gateway.siphoc://192.168.0.7:5062

Attributes are flat string pairs; predicates support the LDAPv3 subset SLP
uses in practice: ``(key=value)`` terms, ``*`` suffix wildcards, and ``&``
conjunctions like ``(&(user=sip:bob@voicehoc.ch)(transport=udp))``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.errors import SlpError

#: Service types used by SIPHoc components.
SERVICE_SIP_CONTACT = "siphoc-sip"
SERVICE_GATEWAY = "gateway.siphoc"


@dataclass(frozen=True)
class ServiceUrl:
    """A parsed ``service:<type>://<host>[:port]`` URL."""

    service_type: str
    host: str
    port: int | None = None

    @classmethod
    def parse(cls, text: str) -> "ServiceUrl":
        if not text.startswith("service:"):
            raise SlpError(f"not a service URL: {text!r}")
        rest = text[len("service:") :]
        if "://" not in rest:
            raise SlpError(f"service URL missing address: {text!r}")
        service_type, address = rest.split("://", 1)
        if not service_type:
            raise SlpError(f"service URL missing type: {text!r}")
        port: int | None = None
        host = address
        if ":" in address:
            host, port_text = address.rsplit(":", 1)
            # int() would also take signs, underscores, spaces and non-ASCII
            # digits; a port is 1-5 ASCII digits.
            if not (port_text.isascii() and port_text.isdigit() and len(port_text) <= 5):
                raise SlpError(f"invalid port in service URL: {text!r}")
            port = int(port_text)
            if not 0 < port < 65536:
                raise SlpError(f"port out of range in service URL: {text!r}")
        if not host:
            raise SlpError(f"service URL missing host: {text!r}")
        return cls(service_type=service_type, host=host, port=port)

    def __str__(self) -> str:
        return self._text

    @functools.cached_property
    def _text(self) -> str:
        """The rendered URL, kept: it is every cache and lookup key."""
        out = f"service:{self.service_type}://{self.host}"
        if self.port is not None:
            out += f":{self.port}"
        return out

    @property
    def address(self) -> tuple[str, int]:
        if self.port is None:
            raise SlpError(f"service URL has no port: {self}")
        return (self.host, self.port)


@dataclass
class ServiceEntry:
    """A service known to an SLP agent (local registration or remote cache)."""

    url: ServiceUrl
    attributes: dict[str, str] = field(default_factory=dict)
    lifetime: float = 60.0
    expires_at: float = 0.0
    origin: str = ""  # IP of the node that registered the service

    def is_valid(self, now: float) -> bool:
        return now < self.expires_at

    def matches(self, service_type: str, predicate: str = "") -> bool:
        if self.url.service_type != service_type:
            return False
        if not predicate:
            return True
        return evaluate_predicate(predicate, self.attributes)

    def key(self) -> str:
        return str(self.url)


def format_attributes(attributes: dict[str, str]) -> str:
    """Serialize attributes in SLP attr-list form: ``(a=1),(b=2)``."""
    return ",".join(f"({key}={value})" for key, value in sorted(attributes.items()))


def parse_attributes(text: str) -> dict[str, str]:
    """Parse an SLP attr-list back into a dict."""
    attributes: dict[str, str] = {}
    depth = 0
    term = ""
    for char in text:
        if char == "(":
            depth += 1
            if depth == 1:
                term = ""
                continue
        elif char == ")":
            depth -= 1
            if depth == 0:
                if "=" in term:
                    key, value = term.split("=", 1)
                    attributes[key.strip()] = value
                continue
        if depth >= 1:
            term += char
    return attributes


#: Distinct predicate texts whose compiled form is kept. A run asks a few
#: dozen (one per callee); a remote query's text costs one entry.
PREDICATE_CACHE_SIZE = 1024


def evaluate_predicate(predicate: str, attributes: dict[str, str]) -> bool:
    """Evaluate an LDAP-style filter against attributes.

    Supports ``(key=value)``, trailing-``*`` wildcards, and conjunction
    ``(&(a=b)(c=d))``. Unknown syntax evaluates to False (fail closed).
    Each distinct text is parsed once (:func:`_compile_predicate`).
    """
    terms = _compile_predicate(predicate)
    if terms is None:
        return False
    for key, value, prefix in terms:
        actual = attributes.get(key)
        if actual is None:
            return False
        if prefix:
            if not actual.startswith(value):
                return False
        elif actual != value:
            return False
    return True


@functools.lru_cache(maxsize=PREDICATE_CACHE_SIZE)
def _compile_predicate(predicate: str) -> tuple[tuple[str, str, bool], ...] | None:
    """The predicate as the conjunction of its ``(key, value, prefix)`` terms.

    A term matches an attribute equal to ``value`` or, with ``prefix`` set
    (a trailing ``*``), one starting with it. Nested ``&`` flattens, since a
    conjunction of conjunctions is one conjunction; the empty predicate is
    the empty conjunction. Malformed text compiles to ``None``, which
    matches nothing.
    """
    predicate = predicate.strip()
    if not predicate:
        return ()
    expr, remaining = _parse_expression(predicate)
    if expr is None or remaining.strip():
        return None
    terms: list[tuple[str, str, bool]] = []
    _flatten(expr, terms)
    return tuple(terms)


def _parse_expression(text: str):
    text = text.lstrip()
    if not text.startswith("("):
        return None, text
    if text.startswith("(&"):
        inner = text[2:]
        children = []
        while inner.lstrip().startswith("("):
            child, inner = _parse_expression(inner)
            if child is None:
                return None, inner
            children.append(child)
        inner = inner.lstrip()
        if not inner.startswith(")"):
            return None, inner
        return ("and", children), inner[1:]
    end = text.find(")")
    if end == -1:
        return None, text
    term = text[1:end]
    if "=" not in term:
        return None, text[end + 1 :]
    key, value = term.split("=", 1)
    return ("eq", key.strip(), value), text[end + 1 :]


def _flatten(expr, terms: list[tuple[str, str, bool]]) -> None:
    if expr[0] == "and":
        for child in expr[1]:
            _flatten(child, terms)
        return
    _, key, value = expr
    if value.endswith("*"):
        terms.append((key, value[:-1], True))
    else:
        terms.append((key, value, False))
