import base64
import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from kevlar.errors import FrameTooLargeError, InvalidBase64Error, InvalidFrameError
from kevlar.wire import (
    MAX_FRAME,
    ErrorCode,
    WireFrame,
    base64_decode,
    base64_decode_length,
    base64_encode,
    frame_parse,
    frame_serialize,
)

#: The seven op tags the protocol defines, in sorted order.
OPS = ("ERR", "OK", "PING", "QUERY", "QUIT", "REENC", "SAVE")

# RFC 4648 section 10 test vectors.
VECTORS = [
    (b"", ""),
    (b"f", "Zg=="),
    (b"fo", "Zm8="),
    (b"foo", "Zm9v"),
    (b"foob", "Zm9vYg=="),
    (b"fooba", "Zm9vYmE="),
    (b"foobar", "Zm9vYmFy"),
]

INVALID_B64 = [
    "Zg=",        # bad padding length
    "Zg",         # missing padding
    "Zg==!",      # non-alphabet byte
    "Zh==",       # non-canonical trailing bits
    "Zm9=",       # non-canonical trailing bits (one pad)
    "Zg==Zg==",   # embedded padding
    "====",
    "Z===",
    "=",
    "Zm9v\n",     # whitespace
    " Zg==",
    "Zg\x00==",
    "Z g==",      # inner whitespace
    "Zg==\r",     # trailing carriage return
    "Zg===",      # extra padding
    "Zg==é",      # non-ASCII character
    "QR==",       # non-canonical trailing bits
    "QQ=",        # bad padding length
]


@pytest.mark.parametrize("raw,encoded", VECTORS)
def test_encode_vectors(raw, encoded):
    assert base64_encode(raw) == encoded


@pytest.mark.parametrize("raw,encoded", VECTORS)
def test_decode_vectors(raw, encoded):
    assert base64_decode(encoded) == raw


@pytest.mark.parametrize("text", INVALID_B64)
def test_decode_rejects_invalid(text):
    with pytest.raises(InvalidBase64Error):
        base64_decode(text)
    with pytest.raises(InvalidBase64Error):
        base64_decode_length(text)


@pytest.mark.parametrize(
    "text,length", [("Zg==", 1), ("Zm8=", 2), ("Zm9vYmFy", 6), ("", 0)]
)
def test_decode_length_vectors(text, length):
    assert base64_decode_length(text) == length


@given(st.binary(max_size=8192))
def test_roundtrip(data):
    text = base64_encode(data)
    assert base64_decode(text) == data
    assert base64_decode_length(text) == len(data)


def test_roundtrip_large():
    data = bytes(range(256)) * 400  # 100 KiB
    assert base64_decode(base64_encode(data)) == data


_B64_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/="
# Characters the decoder must never let through: whitespace, NUL,
# punctuation and non-ASCII (a2b_base64 itself skips most of them).
_STRAY_CHARS = " \t\r\n\x00|!-_.é\u2028"


@st.composite
def near_base64(draw):
    """A canonical encoding with a few characters inserted, replaced or deleted."""
    chars = list(base64_encode(draw(st.binary(max_size=48))))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(chars)))
        edit = draw(st.sampled_from(("insert", "replace", "delete")))
        char = draw(st.sampled_from(_B64_CHARS + _STRAY_CHARS))
        if edit == "insert":
            chars.insert(pos, char)
        elif pos < len(chars):
            chars[pos : pos + 1] = [char] if edit == "replace" else []
    return "".join(chars)


_ANY_TEXT = st.one_of(
    st.text(max_size=64),
    st.text(alphabet=_B64_CHARS + _STRAY_CHARS, max_size=64),
    near_base64(),
)


@given(_ANY_TEXT)
def test_decode_accepts_exactly_the_image_of_encode(text):
    # Decode either rejects, or the input was a canonical encoding.
    try:
        data = base64_decode(text)
    except InvalidBase64Error:
        return
    assert base64_encode(data) == text


# --- frames -----------------------------------------------------------


def test_frame_vectors():
    assert frame_serialize(WireFrame("PING")) == b"PING\n"
    assert frame_serialize(WireFrame("QUERY", (b"f",))) == b"QUERY|Zg==\n"
    b1, b2 = b"foob", b"x" * 5
    expected = f"OK|{base64_encode(b1)}|{base64_encode(b2)}\n".encode()
    assert frame_serialize(WireFrame("OK", (b1, b2))) == expected


def test_frame_parse_vectors():
    assert frame_parse(b"PING\n") == WireFrame("PING")
    assert frame_parse(b"QUERY|Zg==\n") == WireFrame("QUERY", (b"f",))
    assert frame_parse(b"OK|Zg==|Zm8=\n") == WireFrame("OK", (b"f", b"fo"))


def test_frame_is_an_immutable_tuple_of_bytes():
    built = WireFrame("SAVE", (b"id", b"value"))
    parsed = frame_parse(frame_serialize(built))
    assert parsed == built
    assert hash(parsed) == hash(built)
    assert type(parsed.fields) is tuple
    assert all(type(f) is bytes for f in parsed.fields)
    for name in ("op", "fields"):
        with pytest.raises(AttributeError):
            setattr(parsed, name, None)


def test_frame_empty_field_is_distinct():
    assert frame_parse(b"PING|\n") == WireFrame("PING", (b"",))
    assert frame_serialize(WireFrame("PING", (b"",))) == b"PING|\n"


def test_frame_unknown_op_passes_through():
    assert frame_parse(b"XYZ|Zg==\n").op == "XYZ"


@pytest.mark.parametrize(
    "line",
    [
        b"PING",              # missing newline
        b"PI\nNG\n",          # embedded newline
        b"\n",                # empty op
        b"|Zg==\n",           # empty op with field
        b"ping\n",            # lowercase op
        b"QUERY|Zg\x00==\n",  # non-alphabet byte in field
        b"QUERY|Zg=\n",       # bad padding
        b"PING\xff\n",        # non-ASCII
        b"A" * 40 + b"\n",    # op too long
        b"QUERY|Zg==\r\n",     # CRLF terminator
        b"SAVE|Zg==|Z\tg==\n",  # tab inside a field
        b"PING\n\n",           # newline ending the op
    ],
)
def test_frame_parse_rejects(line):
    with pytest.raises(InvalidFrameError):
        frame_parse(line)


@pytest.mark.parametrize("op", ["ok", "", "A" * 33, "PING\n", "P\u00cdNG"])
def test_frame_serialize_rejects_illegal_op(op):
    with pytest.raises(InvalidFrameError):
        frame_serialize(WireFrame(op))


def test_frame_too_large():
    frame = WireFrame("SAVE", (b"x" * MAX_FRAME,))
    with pytest.raises(FrameTooLargeError):
        frame_serialize(frame)
    # A 6-letter op, "|" and "\n" leave MAX_FRAME - 8 bytes of base64.
    exact = frame_serialize(WireFrame("SAVEAB", (b"x" * (3 * (MAX_FRAME - 8) // 4),)))
    assert len(exact) == MAX_FRAME
    assert frame_parse(exact).op == "SAVEAB"
    with pytest.raises(FrameTooLargeError):
        frame_parse(b"A" + exact)


@given(
    op=st.one_of(st.sampled_from(OPS), st.text(alphabet="ABCXYZ", min_size=1, max_size=8)),
    fields=st.lists(st.binary(max_size=200), max_size=5),
)
def test_frame_roundtrip(op, fields):
    frame = WireFrame(op, tuple(fields))
    assert frame_parse(frame_serialize(frame)) == frame


@given(data=st.binary(max_size=60), pos=st.integers(min_value=0),
       replacement=st.sampled_from("ABZabz09+/="))
def test_single_char_mutations_never_alias(data, pos, replacement):
    # Injectivity: a changed encoding either fails or decodes to different bytes.
    text = base64_encode(data)
    if not text:
        return
    pos %= len(text)
    mutated = text[:pos] + replacement + text[pos + 1 :]
    try:
        decoded = base64_decode(mutated)
    except InvalidBase64Error:
        return
    assert mutated == text or decoded != data


# --- golden corpus (the wire ABI as shipped files) -----------------------

_DATA = Path(__file__).parent / "data"


def test_golden_valid_lines_roundtrip():
    blob = (_DATA / "wire_valid.bin").read_bytes()
    lines = [part + b"\n" for part in blob.split(b"\n")[:-1]]
    assert len(lines) >= 10
    for line in lines:
        frame = frame_parse(line)
        assert frame_serialize(frame) == line


def test_golden_invalid_lines_rejected():
    rows = (_DATA / "wire_invalid.hex").read_text().splitlines()
    specimens = [bytes.fromhex(row) for row in rows if row and not row.startswith("#")]
    assert len(specimens) >= 14
    for specimen in specimens:
        with pytest.raises(InvalidFrameError):
            frame_parse(specimen)


# --- differential check against the regex validator ----------------------
#
# The decoder used to spell out the canonical-base64 rules by hand: a
# regex for the alphabet and padding, then a check that the bits the
# final symbol leaves unused are zero.  That validator and its str-based
# frame parser are kept here as the reference the re-encode check must
# agree with.

_REF_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_REF_B64_RE = re.compile(
    r"\A(?:[A-Za-z0-9+/]{4})*(?:[A-Za-z0-9+/]{2}==|[A-Za-z0-9+/]{3}=)?\Z"
)
_REF_OP_RE = re.compile(r"\A[A-Z]{1,32}\Z")


def reference_base64_decode(text):
    if not _REF_B64_RE.match(text):
        raise InvalidBase64Error("not a canonical base64 string")
    if text.endswith("==") and _REF_ALPHABET.index(text[-3]) & 0x0F:
        raise InvalidBase64Error("non-canonical trailing bits")
    if text.endswith("=") and not text.endswith("==") and _REF_ALPHABET.index(text[-2]) & 0x03:
        raise InvalidBase64Error("non-canonical trailing bits")
    return base64.b64decode(text, validate=True)


def reference_frame_parse(line):
    if len(line) > MAX_FRAME:
        raise FrameTooLargeError("too large")
    if not line.endswith(b"\n") or b"\n" in line[:-1]:
        raise InvalidFrameError("bad terminator")
    try:
        parts = line[:-1].decode("ascii").split("|")
    except UnicodeDecodeError as exc:
        raise InvalidFrameError("non-ASCII") from exc
    if not _REF_OP_RE.match(parts[0]):
        raise InvalidFrameError("illegal op")
    try:
        return WireFrame(parts[0], tuple(reference_base64_decode(p) for p in parts[1:]))
    except InvalidBase64Error as exc:
        raise InvalidFrameError("invalid base64 field") from exc


def _outcome(fn, arg):
    try:
        return fn(arg)
    except (InvalidBase64Error, InvalidFrameError) as exc:
        return type(exc)


@given(_ANY_TEXT)
def test_decode_matches_reference_validator(text):
    assert _outcome(base64_decode, text) == _outcome(reference_base64_decode, text)


def test_decode_matches_reference_on_every_short_string():
    # Every string of up to four symbols over characters that cover each
    # trailing-bit class, padding, whitespace, NUL and non-ASCII.
    alphabet = "AQRgh+/= \r\x00é"
    for n in range(5):
        for chars in itertools.product(alphabet, repeat=n):
            text = "".join(chars)
            assert _outcome(base64_decode, text) == _outcome(reference_base64_decode, text), text


_FIELD_BYTES = st.one_of(
    near_base64().map(lambda t: t.encode("utf-8")),
    st.binary(max_size=24),
)


@given(
    op=st.one_of(st.sampled_from(OPS), st.binary(max_size=6)),
    fields=st.lists(_FIELD_BYTES, max_size=4),
    tail=st.sampled_from((b"\n", b"\r\n", b"", b"\n\n")),
)
def test_frame_parse_matches_reference_parser(op, fields, tail):
    op = op.encode() if isinstance(op, str) else op
    line = b"|".join([op, *fields]) + tail
    assert _outcome(frame_parse, line) == _outcome(reference_frame_parse, line)


def test_readme_error_code_table_matches_error_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| ERR code | Answers |", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"^\| `([A-Z_]+)` \|", table, re.M)
    assert sorted(listed) == sorted(c.value for c in ErrorCode)
