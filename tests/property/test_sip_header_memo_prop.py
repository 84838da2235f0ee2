"""Differential tests for the memoized header-line parse of ``parse_message``.

``parse_message`` reads each header line through a bounded memo that
returns one shared, canonical ``(name, value)`` field per distinct line.
``_reference_parse`` below is a copy of the parser before the memo: it
normalises the fields with the public ``Headers`` constructor. For every
input both must give the same message (start line, fields in order, body)
or raise the same exception class.
"""

from hypothesis import example, given, settings, strategies as st

from repro.errors import SipParseError
from repro.sip import Headers, SipRequest, SipResponse, SipUri, parse_message
from repro.sip.message import CRLF, SIP_VERSION


def _reference_parse(data: bytes) -> SipRequest | SipResponse:
    """``parse_message`` as it was before the header-line memo."""
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
        if not line.strip():
            continue
        if line[0] in " \t" and fields:
            name, value = fields[-1]
            fields[-1] = (name, f"{value.strip()} {line.strip()}")
            continue
        name, colon, value = line.partition(":")
        if not colon:
            raise SipParseError(f"malformed header line: {line!r}")
        if not name or name != name.strip():
            raise SipParseError(f"malformed header name: {name!r}")
        fields.append((name, value))
    headers = Headers(fields)

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
    return SipRequest(method, SipUri.parse(uri_text), headers=headers, body=body)


def _outcome(parse, data: bytes):
    """What a parser makes of ``data``: the message's parts, or the error class."""
    try:
        message = parse(data)
    except Exception as exc:  # the class is compared, whatever it is
        return type(exc)
    start = (message.method, message.uri) if isinstance(message, SipRequest) else (
        message.status, message.reason
    )
    return type(message), start, message.headers.items(), message.body


#: Whitespace str.strip() removes, beyond space and tab.
_SPACES = " \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2000\u3000\n\r"

names = st.one_of(
    st.sampled_from([
        "Via", "v", "V", "From", "f", "To", "t", "Call-ID", "call-id", "i", "CSeq",
        "CSEQ", "cseq", "Contact", "m", "Subject", "s", "k", "e", "c",
        "Content-Length", "l", "Record-Route", "X-Custom-Header", "www-authenticate",
    ]),
    st.text("abcXYZ-_.!0", min_size=0, max_size=8),
)
padding = st.text(_SPACES, max_size=2)
values = st.text(
    st.sampled_from(list("ab0;=<>@.:\"-") + list(_SPACES)), max_size=12
)


@st.composite
def header_lines(draw):
    kind = draw(st.sampled_from(["field", "field", "field", "fold", "blank", "no-colon"]))
    if kind == "fold":  # folded continuation of the previous line
        return draw(st.sampled_from([" ", "\t", "  "])) + draw(values)
    if kind == "blank":  # whitespace only, such as "\x0b"
        return draw(st.text(_SPACES.replace("\r", ""), min_size=1, max_size=3))
    if kind == "no-colon":
        return draw(st.text("abc ;=\t\x0b", max_size=10))
    name = draw(padding) + draw(names) + draw(padding)
    separator = draw(st.sampled_from([":", ": ", ":\t", " : "]))
    return name + separator + draw(values)


start_lines = st.sampled_from([
    "INVITE sip:bob@voicehoc.ch SIP/2.0",
    "BYE sip:bob@192.168.0.3:5070 SIP/2.0",
    "SIP/2.0 200 OK",
    "SIP/2.0 486 Busy Here",
])


@st.composite
def messages(draw):
    lines = [draw(start_lines), *draw(st.lists(header_lines(), max_size=8))]
    body = draw(st.sampled_from([b"", b"v=0\r\n", b"hello world"]))
    return (CRLF.join(lines) + CRLF + CRLF).encode("utf-8") + body


class TestHeaderLineMemo:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(messages())
    @example(b"INVITE sip:bob@h SIP/2.0\r\n\x0b\r\nVia: SIP/2.0/UDP h\r\n\r\n")
    @example(b"INVITE sip:bob@h SIP/2.0\r\n  folded: first\r\nTo: <sip:a@h>\r\n\r\n")
    @example(b"INVITE sip:bob@h SIP/2.0\r\nSubject:\r\n  a\r\n\tb\r\n\r\n")
    @example(b"INVITE sip:bob@h SIP/2.0\r\n Via : x\r\n\r\n")
    @example(b"INVITE sip:bob@h SIP/2.0\r\nv: x\r\ni:  cid \r\nl: 0\r\n\r\n")
    @example(b"INVITE sip:bob@h SIP/2.0\r\nno colon here\r\n\r\n")
    def test_same_fields_or_same_error_as_reference(self, data):
        expected = _outcome(_reference_parse, data)
        assert _outcome(parse_message, data) == expected
        # Again, now that every line of the message is in the memo.
        assert _outcome(parse_message, data) == expected

    def test_equal_lines_share_one_field(self):
        wire = b"OPTIONS sip:bob@h SIP/2.0\r\nCall-ID: x\r\nmax-forwards: 70\r\n\r\n"
        first = parse_message(wire).headers.items()
        second = parse_message(wire).headers.items()
        assert first == [("Call-ID", "x"), ("Max-Forwards", "70")]
        assert all(a is b for a, b in zip(first, second))

    def test_mutating_one_message_leaves_another_alone(self):
        wire = b"OPTIONS sip:bob@h SIP/2.0\r\nSubject: a\r\n b\r\nVia: v\r\n\r\n"
        first = parse_message(wire)
        second = parse_message(wire)
        first.headers.set("Via", "changed")
        first.headers.set("Subject", "a b c")
        first.headers.remove("Call-ID")
        assert second.headers.items() == [("Subject", "a b"), ("Via", "v")]
        assert first.headers.items() == [("Subject", "a b c"), ("Via", "changed")]
