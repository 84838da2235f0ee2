"""SIP message grammar: headers, requests, responses (RFC 3261 subset).

Messages serialize to and parse from real RFC 3261 wire text, so everything
measured on the simulated air interface has honest sizes, and the packet
analyzer can dissect capture traces exactly as Wireshark does in Figure 5
of the paper.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.errors import SipParseError
from repro.sip.uri import PARSE_CACHE_SIZE, NameAddr, SipUri, parse_params

SIP_VERSION = "SIP/2.0"
CRLF = "\r\n"

METHODS = (
    "INVITE", "ACK", "BYE", "CANCEL", "REGISTER", "OPTIONS", "INFO", "MESSAGE",
    "SUBSCRIBE", "NOTIFY",
)

#: Methods whose 2xx responses create a dialog (and echo Record-Route).
DIALOG_FORMING_METHODS = ("INVITE", "SUBSCRIBE")

REASON_PHRASES = {
    100: "Trying",
    180: "Ringing",
    183: "Session Progress",
    200: "OK",
    202: "Accepted",
    301: "Moved Permanently",
    302: "Moved Temporarily",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    407: "Proxy Authentication Required",
    408: "Request Timeout",
    480: "Temporarily Unavailable",
    481: "Call/Transaction Does Not Exist",
    482: "Loop Detected",
    483: "Too Many Hops",
    486: "Busy Here",
    487: "Request Terminated",
    500: "Server Internal Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Server Time-out",
    603: "Decline",
}

#: Lower-cased names whose canonical form is not plain Title-Case, plus the
#: RFC 3261 §7.3.3 compact forms, which a receiver must accept.
_CANONICAL_CASE = {
    "call-id": "Call-ID",
    "cseq": "CSeq",
    "www-authenticate": "WWW-Authenticate",
    "mime-version": "MIME-Version",
    "c": "Content-Type",
    "e": "Content-Encoding",
    "f": "From",
    "i": "Call-ID",
    "k": "Supported",
    "l": "Content-Length",
    "m": "Contact",
    "s": "Subject",
    "t": "To",
    "v": "Via",
}


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def canonical_header_name(name: str) -> str:
    """The canonical spelling of a header name (memoized; names repeat)."""
    lower = name.lower()
    canonical = _CANONICAL_CASE.get(lower)
    if canonical is not None:
        return canonical
    return "-".join(part.capitalize() for part in lower.split("-"))


class Headers:
    """An ordered, case-insensitive multimap of SIP header fields."""

    def __init__(self, items: Iterable[tuple[str, str]] = ()) -> None:
        self._items = [(canonical_header_name(name), value.strip()) for name, value in items]

    @classmethod
    def from_fields(cls, fields: list[tuple[str, str]]) -> "Headers":
        """Headers that take ``fields`` as they are, without a copy.

        Each field must already be canonical: the name as
        :func:`canonical_header_name` spells it, the value stripped. The
        pairs are immutable and may be shared with other messages.
        """
        headers = cls.__new__(cls)
        headers._items = fields
        return headers

    def add(self, name: str, value: str) -> None:
        self._items.append((canonical_header_name(name), value.strip()))

    def insert_first(self, name: str, value: str) -> None:
        """Insert a header before existing fields of the same name (Via push)."""
        canonical = canonical_header_name(name)
        for index, (existing, _) in enumerate(self._items):
            if existing == canonical:
                self._items.insert(index, (canonical, value.strip()))
                return
        self._items.append((canonical, value.strip()))

    def get(self, name: str) -> str | None:
        canonical = canonical_header_name(name)
        for existing, value in self._items:
            if existing == canonical:
                return value
        return None

    def get_all(self, name: str) -> list[str]:
        canonical = canonical_header_name(name)
        return [value for existing, value in self._items if existing == canonical]

    def set(self, name: str, value: str) -> None:
        """Replace all fields of this name with a single one (in place).

        The first field keeps its position; later duplicates are dropped.
        """
        canonical = canonical_header_name(name)
        items = self._items
        for index, (existing, _) in enumerate(items):
            if existing == canonical:
                items[index] = (canonical, value.strip())
                for later in range(len(items) - 1, index, -1):
                    if items[later][0] == canonical:
                        del items[later]
                return
        items.append((canonical, value.strip()))

    def remove(self, name: str) -> None:
        canonical = canonical_header_name(name)
        self._items = [(n, v) for n, v in self._items if n != canonical]

    def remove_first(self, name: str) -> str | None:
        canonical = canonical_header_name(name)
        for index, (existing, value) in enumerate(self._items):
            if existing == canonical:
                del self._items[index]
                return value
        return None

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def items(self) -> list[tuple[str, str]]:
        return list(self._items)

    def copy(self) -> "Headers":
        return Headers.from_fields(list(self._items))

    def __len__(self) -> int:
        return len(self._items)


@dataclass(frozen=True)
class Via:
    """One Via header value: ``SIP/2.0/UDP host:port;branch=...``.

    Immutable and memoized like the URI types (``sip/uri.py``); ``params``
    holds the parameters other than ``branch`` and is read-only.
    """

    host: str
    port: int = 5060
    branch: str | None = None
    transport: str = "UDP"
    params: Mapping[str, str | None] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Parsed values are shared: a caller's dict becomes a read-only copy.
        if not isinstance(self.params, MappingProxyType):
            object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    @staticmethod
    @functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
    def parse(text: str) -> "Via":
        """Parse ``text``; equal texts return the same (immutable) object."""
        text = text.strip()
        try:
            protocol, rest = text.split(None, 1)
        except ValueError as exc:
            raise SipParseError(f"malformed Via: {text!r}") from exc
        parts = protocol.split("/")
        if len(parts) != 3 or parts[0].upper() != "SIP":
            raise SipParseError(f"malformed Via protocol: {text!r}")
        hostport, _, param_text = rest.partition(";")
        params = parse_params(param_text)
        hostport = hostport.strip()
        if ":" in hostport:
            host, port_text = hostport.rsplit(":", 1)
            try:
                port = int(port_text)
            except ValueError as exc:
                raise SipParseError(f"invalid Via port: {text!r}") from exc
            if not 0 < port < 65536:
                raise SipParseError(f"Via port out of range: {text!r}")
        else:
            host, port = hostport, 5060
        branch = params.pop("branch", None)
        return Via(
            host=host,
            port=port,
            branch=branch,
            transport=parts[2].upper(),
            params=MappingProxyType(params),
        )

    def __str__(self) -> str:
        out = f"SIP/2.0/{self.transport} {self.host}:{self.port}"
        if self.branch:
            out += f";branch={self.branch}"
        for key, value in self.params.items():
            out += f";{key}" if value is None else f";{key}={value}"
        return out


@dataclass(frozen=True)
class CSeq:
    number: int
    method: str

    @staticmethod
    @functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
    def parse(text: str) -> "CSeq":
        """Parse ``text``; equal texts return the same (immutable) object."""
        try:
            number_text, method = text.split()
            number = int(number_text)
        except ValueError as exc:
            raise SipParseError(f"malformed CSeq: {text!r}") from exc
        if not 0 <= number < 2**31:  # RFC 3261 §8.1.1.5
            raise SipParseError(f"CSeq number out of range: {text!r}")
        return CSeq(number=number, method=method.upper())

    def __str__(self) -> str:
        return f"{self.number} {self.method}"


#: Typed headers checked on every received message (:meth:`SipMessage.check_headers`).
_HEADER_PARSERS: dict[str, Callable[[str], object]] = {
    "Via": Via.parse,
    "CSeq": CSeq.parse,
    "From": NameAddr.parse,
    "To": NameAddr.parse,
    "Contact": NameAddr.parse,
    "Route": NameAddr.parse,
    "Record-Route": NameAddr.parse,
}


class SipMessage:
    """Shared behaviour of requests and responses."""

    def __init__(self, headers: Headers | None = None, body: bytes = b"") -> None:
        self.headers = headers if headers is not None else Headers()
        self.body = body

    # -- typed header accessors -------------------------------------------------
    @property
    def call_id(self) -> str | None:
        return self.headers.get("Call-ID")

    @property
    def cseq(self) -> CSeq | None:
        raw = self.headers.get("CSeq")
        return CSeq.parse(raw) if raw else None

    @property
    def from_(self) -> NameAddr | None:
        raw = self.headers.get("From")
        return NameAddr.parse(raw) if raw else None

    @property
    def to(self) -> NameAddr | None:
        raw = self.headers.get("To")
        return NameAddr.parse(raw) if raw else None

    @property
    def contact(self) -> NameAddr | None:
        raw = self.headers.get("Contact")
        return NameAddr.parse(raw) if raw else None

    @property
    def retry_after(self) -> int | None:
        """Retry-After delay in whole seconds (RFC 3261 20.33), or ``None``.

        Tolerant by design: a missing header, garbage, or a negative value
        all read as "no usable Retry-After" rather than raising — overload
        responses come from arbitrary remote stacks. Comments and the
        ``;duration=...`` parameter are ignored, only the leading
        delta-seconds matter.
        """
        raw = self.headers.get("Retry-After")
        if raw is None:
            return None
        value = raw.split(";", 1)[0].split("(", 1)[0].strip()
        # isdigit() alone also takes digits int() rejects ("²") or reads in
        # another script ("٣"); delta-seconds is ASCII (RFC 3261 25.1).
        if not (value.isascii() and value.isdigit()):
            return None
        return int(value)

    def expires(self, default: int) -> int | None:
        """Expires delta-seconds (RFC 3261 20.19); ``default`` without the header.

        ``None`` marks a malformed value, a negative one included: the
        value is ASCII digits (RFC 3261 25.1), as for :attr:`retry_after`,
        and a receiver answers anything else with 400.
        """
        raw = self.headers.get("Expires")
        if raw is None:
            return default
        value = raw.strip()
        return int(value) if value.isascii() and value.isdigit() else None

    def set_retry_after(self, seconds: int) -> None:
        """Set the Retry-After header to a whole number of seconds."""
        self.headers.set("Retry-After", str(max(0, int(seconds))))

    @property
    def top_via(self) -> Via | None:
        raw = self.headers.get("Via")
        return Via.parse(raw) if raw else None

    @property
    def vias(self) -> list[Via]:
        return [Via.parse(raw) for raw in self.headers.get_all("Via")]

    def record_routes(self) -> list[NameAddr]:
        return [NameAddr.parse(raw) for raw in self.headers.get_all("Record-Route")]

    def routes(self) -> list[NameAddr]:
        return [NameAddr.parse(raw) for raw in self.headers.get_all("Route")]

    def check_headers(self) -> None:
        """Parse every typed header; raise :class:`SipParseError` on a bad one.

        Typed headers are otherwise parsed on first read, deep inside a
        proxy or UA. A receiver calls this right after :func:`parse_message`
        so that a malformed header drops the message instead. The parsers
        are memoized, so the later reads are cache hits. ``Contact: *`` (the
        REGISTER wildcard) is not a name-addr and is left alone.
        """
        for name, value in self.headers.items():
            parser = _HEADER_PARSERS.get(name)
            if parser is not None and not (name == "Contact" and value == "*"):
                parser(value)

    def transaction_key(self) -> tuple[str, str]:
        """RFC 3261 (17.1.3/17.2.3) matching key: top branch + CSeq method."""
        via = self.top_via
        cseq = self.cseq
        branch = via.branch if via and via.branch else ""
        method = cseq.method if cseq else ""
        if method == "ACK":
            method = "INVITE"
        return (branch, method)

    # -- serialization -------------------------------------------------------------
    def _start_line(self) -> str:
        raise NotImplementedError

    def serialize(self) -> bytes:
        """Wire form of the message, with ``Content-Length`` set from the body."""
        self.headers.set("Content-Length", str(len(self.body)))
        lines = [self._start_line()]
        lines.extend(f"{name}: {value}" for name, value in self.headers.items())
        head = CRLF.join(lines) + CRLF + CRLF
        return head.encode("utf-8") + self.body

    def __bytes__(self) -> bytes:
        return self.serialize()


class SipRequest(SipMessage):
    """A SIP request (start line ``METHOD uri SIP/2.0``)."""

    def __init__(
        self,
        method: str,
        uri: SipUri | str,
        headers: Headers | None = None,
        body: bytes = b"",
    ) -> None:
        super().__init__(headers, body)
        self.method = method.upper()
        self.uri = SipUri.parse(uri) if isinstance(uri, str) else uri

    def _start_line(self) -> str:
        return f"{self.method} {self.uri} {SIP_VERSION}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SipRequest({self.method} {self.uri})"

    def create_response(
        self, status: int, reason: str | None = None, to_tag: str | None = None
    ) -> "SipResponse":
        """Build a response per RFC 3261 8.2.6: copy Via/From/To/Call-ID/CSeq."""
        response = SipResponse(status, reason)
        for name in ("Via", "From", "Call-Id", "Cseq"):
            for value in self.headers.get_all(name):
                response.headers.add(name, value)
        cseq = self.cseq
        if (
            cseq is not None
            and cseq.method in DIALOG_FORMING_METHODS
            and 101 <= status < 300
        ):
            # Dialog-forming responses echo the recorded route set (12.1.1).
            for value in self.headers.get_all("Record-Route"):
                response.headers.add("Record-Route", value)
        to_value = self.headers.get("To") or ""
        if to_tag and ";tag=" not in to_value:
            to_value = str(NameAddr.parse(to_value).with_tag(to_tag))
        response.headers.add("To", to_value)
        return response


class SipResponse(SipMessage):
    """A SIP response (start line ``SIP/2.0 status reason``)."""

    def __init__(
        self,
        status: int,
        reason: str | None = None,
        headers: Headers | None = None,
        body: bytes = b"",
    ) -> None:
        super().__init__(headers, body)
        self.status = status
        self.reason = reason if reason is not None else REASON_PHRASES.get(status, "Unknown")

    def _start_line(self) -> str:
        return f"{SIP_VERSION} {self.status} {self.reason}"

    @property
    def is_provisional(self) -> bool:
        return 100 <= self.status < 200

    @property
    def is_final(self) -> bool:
        return self.status >= 200

    @property
    def is_success(self) -> bool:
        return 200 <= self.status < 300

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SipResponse({self.status} {self.reason})"


def _split_header_line(line: str) -> tuple[str, str]:
    """``name: value`` split at the first colon; raises on a malformed line."""
    name, colon, value = line.partition(":")
    if not colon:
        raise SipParseError(f"malformed header line: {line!r}")
    if not name or name != name.strip():
        raise SipParseError(f"malformed header name: {name!r}")
    return name, value


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def _header_field(line: str) -> tuple[str, str] | None:
    """One header line read on its own, memoized: lines repeat across hops.

    ``None`` for a blank line, ``("", text)`` for a folded continuation
    line (leading space or tab; no header name is empty), else the
    canonical ``(name, value)`` field that :class:`Headers` stores. Equal
    lines share one field.
    """
    if not line.strip():
        return None
    if line[0] in " \t":
        return ("", line.strip())
    name, value = _split_header_line(line)
    return (canonical_header_name(name), value.strip())


def parse_message(data: bytes) -> SipRequest | SipResponse:
    """Parse wire bytes into a request or response.

    Content-Length frames the body (RFC 3261 §18.3): bytes past it are
    discarded, and a body shorter than it is malformed. Without the header
    the body is the rest of the datagram. Raises :class:`SipParseError` on
    malformed input.
    """
    try:
        head, _, body = data.partition(b"\r\n\r\n")
        text = head.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SipParseError("SIP message head is not valid UTF-8") from exc
    lines = text.split(CRLF)
    if not lines or not lines[0].strip():
        raise SipParseError("empty SIP message")
    start_line = lines[0]
    fields: list[tuple[str, str]] = []
    for line in lines[1:]:
        field = _header_field(line)
        if field is None:
            continue
        if field[0]:
            fields.append(field)
            continue
        if not fields:
            _split_header_line(line)  # a first line cannot fold: raises
        # Header line folding (obsolete but legal): append to previous.
        name, previous = fields[-1]
        fields[-1] = (name, f"{previous} {field[1]}".strip())
    headers = Headers.from_fields(fields)

    length_text = headers.get("Content-Length")
    if length_text is not None:
        if not (length_text.isascii() and length_text.isdigit()):
            raise SipParseError(f"invalid Content-Length: {length_text!r}")
        length = int(length_text)
        if length > len(body):
            raise SipParseError(f"Content-Length {length} exceeds the {len(body)}-byte body")
        body = body[:length]

    if start_line.startswith(SIP_VERSION):
        parts = start_line.split(" ", 2)
        if len(parts) < 3:
            raise SipParseError(f"malformed status line: {start_line!r}")
        try:
            status = int(parts[1])
        except ValueError as exc:
            raise SipParseError(f"malformed status code: {start_line!r}") from exc
        if not 100 <= status <= 699:
            raise SipParseError(f"status code out of range: {status}")
        return SipResponse(status, parts[2], headers=headers, body=body)

    parts = start_line.split(" ")
    if len(parts) != 3 or parts[2] != SIP_VERSION:
        raise SipParseError(f"malformed request line: {start_line!r}")
    method, uri_text, _ = parts
    if not method.isupper() or not method.isalpha():
        raise SipParseError(f"malformed method: {method!r}")
    uri = SipUri.parse(uri_text)
    return SipRequest(method, uri, headers=headers, body=body)
