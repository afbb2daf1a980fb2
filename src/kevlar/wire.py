"""Wire protocol: strict base64 field coding and newline-delimited frames.

Everything crossing the TCP boundary is one protocol line:

    OP *("|" BASE64) "\\n"

OP is 1..32 uppercase ASCII letters.  Fields travel base64-encoded, so
the ``|`` delimiter and the ``\\n`` terminator can never occur inside
them.  Decoding is strict: a field is accepted only if it is the
canonical padded encoding of its bytes.  That encoding is unique
(RFC 4648 section 3.5), so the check is "decode, re-encode, compare",
which rejects non-alphabet bytes, bad padding and non-canonical
trailing bits alike and keeps serialize and parse exact inverses of
each other.
"""

from __future__ import annotations

import binascii
import enum
import re
from typing import NamedTuple

from .errors import FrameTooLargeError, InvalidBase64Error, InvalidFrameError

#: Longest protocol line, terminator included (1 MiB); the only frame limit.
MAX_FRAME = 1024 * 1024

OP_SAVE = "SAVE"
OP_QUERY = "QUERY"
OP_REENC = "REENC"
OP_PING = "PING"
OP_QUIT = "QUIT"
OP_OK = "OK"
OP_ERR = "ERR"


class ErrorCode(enum.Enum):
    """The code field of an ERR reply; every failed request maps to one."""

    NOT_FOUND = "NOT_FOUND"
    BAD_REQUEST = "BAD_REQUEST"
    CRYPTO_FAIL = "CRYPTO_FAIL"
    STORE_FAIL = "STORE_FAIL"
    TOO_LARGE = "TOO_LARGE"


_OP_RE = re.compile(rb"\A[A-Z]{1,32}\Z")


def _decode_canonical(field: bytes) -> bytes:
    """Decode one base64 field, accepting only its canonical encoding."""
    # a2b_base64 skips bytes outside the alphabet and tolerates some bad
    # padding; the re-encode comparison is what rejects all of those.
    try:
        data = binascii.a2b_base64(field)
    except binascii.Error as exc:
        raise InvalidBase64Error(str(exc)) from exc
    if binascii.b2a_base64(data, newline=False) != field:
        raise InvalidBase64Error("not a canonical base64 string")
    return data


def base64_encode(data: bytes) -> str:
    """Encode bytes as canonical padded base64 text."""
    return binascii.b2a_base64(bytes(data), newline=False).decode()


def base64_decode(text: str) -> bytes:
    """Decode canonical base64 text; raises InvalidBase64Error otherwise."""
    if not isinstance(text, str):
        raise InvalidBase64Error(f"expected str, got {type(text).__name__}")
    try:
        field = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise InvalidBase64Error("non-ASCII character") from exc
    return _decode_canonical(field)


def base64_decode_length(text: str) -> int:
    """Length of base64_decode(text); raises InvalidBase64Error likewise."""
    return len(base64_decode(text))


class WireFrame(NamedTuple):
    """One protocol message: an operation tag plus ordered byte fields."""

    op: str
    fields: tuple[bytes, ...] = ()


def frame_serialize(frame: WireFrame) -> bytes:
    """Serialize a frame into one newline-terminated protocol line."""
    # A non-ASCII op becomes "?" here, which the op grammar never matches.
    op = frame.op.encode("ascii", "replace")
    if not _OP_RE.match(op):
        raise InvalidFrameError(f"illegal op tag: {frame.op!r}")
    parts = [op]
    parts.extend(binascii.b2a_base64(f, newline=False) for f in frame.fields)
    line = b"|".join(parts) + b"\n"
    if len(line) > MAX_FRAME:
        raise FrameTooLargeError(f"frame is {len(line)} bytes, limit {MAX_FRAME}")
    return line


def frame_parse(line: bytes) -> WireFrame:
    """Parse one protocol line back into a WireFrame (inverse of serialize).

    A newline or non-ASCII byte before the terminator fails either the op
    grammar or the canonical check of the field that holds it.
    """
    if len(line) > MAX_FRAME:
        raise FrameTooLargeError(f"frame is {len(line)} bytes, limit {MAX_FRAME}")
    if not line.endswith(b"\n"):
        raise InvalidFrameError("missing newline terminator")
    op, *fields = line[:-1].split(b"|")
    if not _OP_RE.match(op):
        # Quote only a prefix: the op may run to the end of a MAX_FRAME line.
        raise InvalidFrameError(f"illegal op tag: {op[:40]!r}")
    try:
        decoded = tuple(_decode_canonical(f) for f in fields)
    except InvalidBase64Error as exc:
        raise InvalidFrameError(f"invalid base64 field: {exc}") from exc
    return WireFrame(op.decode(), decoded)
