"""TCP plumbing with newline-framed message extraction.

The native connection model is reverse connect: the trusted daemon
dials out to a socket the untrusted peer listens on.  In LISTEN mode
the daemon binds and serves any number of peers; accepting exactly one
peer is only net_connect's LISTEN case.

A Connection is single-owner.  Frame extraction is exactly the
newline-split of the byte stream, regardless of TCP segmentation, and
the receive buffer is bounded by wire.MAX_FRAME plus one read.  The
same Connection serves blocking callers, where send() writes every byte
before it returns, and an event loop on a non-blocking socket, which
asks frame_ready before receive_frame() and calls fill() and flush() on
readiness events.  The timeout a connection is opened with bounds every
later wait on it.
"""

from __future__ import annotations

import enum
import socket
from dataclasses import dataclass

from .errors import ConnectRefusedError, FrameTooLargeError, PeerClosedError, TransportError
from .wire import MAX_FRAME

_RECV_CHUNK = 65536
#: Connections the kernel queues for a Listener before accept() takes them.
_BACKLOG = 16


class ConnectionMode(enum.Enum):
    REVERSE_CONNECT = "reverse"
    LISTEN = "listen"


@dataclass(frozen=True)
class Endpoint:
    """One side of the TCP rendezvous."""

    host: str
    port: int
    mode: ConnectionMode = ConnectionMode.REVERSE_CONNECT

    def __post_init__(self) -> None:
        # Port 0 is allowed only when binding (ephemeral pick).
        low = 0 if self.mode is ConnectionMode.LISTEN else 1
        if not (low <= self.port <= 65535):
            raise ValueError(f"port out of range: {self.port}")


def parse_hostport(text: str) -> tuple[str, int]:
    """Split a HOST:PORT string with PORT in 0..65535; raises ValueError otherwise."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"endpoint must be HOST:PORT, got {text!r}")
    # int() would also take "1_0", "+80", " 80" and non-ASCII digits.
    if not (port.isascii() and port.isdigit()):
        raise ValueError(f"port must be decimal digits, got {port!r}")
    number = int(port)
    if not 0 <= number <= 65535:
        raise ValueError(f"port out of range: {number}")
    return host, number


class Connection:
    """One open TCP connection with buffered frame extraction."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._buf = bytearray()
        self._out = bytearray()
        self._open = True
        try:
            self._peer = "%s:%d" % sock.getpeername()[:2]
        except OSError:
            self._peer = "?"

    @property
    def is_open(self) -> bool:
        return self._open

    @property
    def peer(self) -> str:
        return self._peer

    @property
    def pending(self) -> int:
        """Bytes passed to send() that the socket has not taken yet."""
        return len(self._out)

    @property
    def frame_ready(self) -> bool:
        """True when receive_frame() returns or raises without reading.

        That is when a whole line of at most MAX_FRAME bytes, or
        MAX_FRAME bytes without a terminator among them, is buffered.
        """
        return len(self._buf) >= MAX_FRAME or self._buf.find(b"\n", 0, MAX_FRAME) != -1

    def fileno(self) -> int:
        return self._sock.fileno()

    def setblocking(self, flag: bool) -> None:
        self._sock.setblocking(flag)

    def send(self, data: bytes) -> None:
        """Queue bytes behind any unsent ones and write what the socket takes.

        On a blocking socket that is every byte; on a non-blocking one
        the rest stays in `pending` until flush() writes it.
        """
        if not self._open:
            raise PeerClosedError("connection is closed")
        self._out += data
        self.flush()

    def flush(self) -> None:
        """Write unsent bytes, in order, until done or the socket would block."""
        while self._out:
            try:
                sent = self._sock.send(self._out)
            except BlockingIOError:
                return
            except (BrokenPipeError, ConnectionResetError) as exc:
                self.close()
                raise PeerClosedError(f"peer closed during send: {exc}") from exc
            except OSError as exc:
                self.close()
                raise TransportError(f"send failed: {exc}") from exc
            del self._out[:sent]

    def receive_frame(self) -> bytes:
        """Block until one newline-terminated line is buffered; return it.

        The terminator is included; bytes after it stay buffered for the
        next call.  A line longer than MAX_FRAME bytes is a protocol
        violation: the connection is closed as soon as MAX_FRAME bytes
        without a terminator are buffered.  On a non-blocking socket,
        call it only when frame_ready is true.
        """
        if not self._open:
            raise PeerClosedError("connection is closed")
        while True:
            idx = self._buf.find(b"\n", 0, MAX_FRAME)
            if idx != -1:
                frame = bytes(self._buf[: idx + 1])
                del self._buf[: idx + 1]
                return frame
            if len(self._buf) >= MAX_FRAME:
                self.close()
                raise FrameTooLargeError(f"no terminator in the first {MAX_FRAME} bytes")
            self.fill()

    def receive_exact(self, n: int) -> bytes:
        """Block until exactly n bytes are available and return them."""
        if not self._open:
            raise PeerClosedError("connection is closed")
        while len(self._buf) < n:
            self.fill()
        out = bytes(self._buf[:n])
        del self._buf[:n]
        return out

    def fill(self) -> None:
        """Read once from the socket into the receive buffer.

        Returns without reading when a non-blocking socket has no data.
        """
        if not self._open:
            raise PeerClosedError("connection is closed")
        try:
            chunk = self._sock.recv(_RECV_CHUNK)
        except BlockingIOError:
            return
        except OSError as exc:
            was_open = self._open
            self.close()
            if not was_open:
                raise PeerClosedError("connection closed locally") from exc
            raise TransportError(f"recv failed: {exc}") from exc
        if not chunk:
            self.close()
            where = "mid-frame" if self._buf else "between frames"
            raise PeerClosedError(f"peer closed connection {where}")
        self._buf.extend(chunk)

    def close(self) -> None:
        """Idempotent; the peer observes EOF."""
        if not self._open:
            return
        self._open = False
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Listener:
    """Bound server socket handing out Connections one accept at a time."""

    def __init__(self, host: str, port: int) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((host, port))
            sock.listen(_BACKLOG)
        except OSError as exc:
            sock.close()
            raise TransportError(f"cannot bind {host}:{port}: {exc}") from exc
        self._sock = sock
        self.host, self.port = sock.getsockname()[:2]

    def accept(self, timeout: float | None = None) -> Connection:
        self._sock.settimeout(timeout)
        try:
            peer_sock, _ = self._sock.accept()
        except socket.timeout as exc:
            raise TransportError("timed out waiting for a peer") from exc
        except OSError as exc:
            raise TransportError(f"accept failed: {exc}") from exc
        peer_sock.settimeout(timeout)
        return Connection(peer_sock)

    def fileno(self) -> int:
        return self._sock.fileno()

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "Listener":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def connect(host: str, port: int, *, timeout: float | None = None) -> Connection:
    """Dial out to (host, port); timeout bounds the dial and each later wait."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except ConnectionRefusedError as exc:
        raise ConnectRefusedError(f"{host}:{port} refused the connection") from exc
    except (socket.timeout, TimeoutError) as exc:
        raise TransportError(f"connecting to {host}:{port} timed out") from exc
    except OSError as exc:
        raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
    return Connection(sock)


def net_connect(endpoint: Endpoint, *, timeout: float | None = None) -> Connection:
    """Establish one connection per the endpoint's mode.

    REVERSE_CONNECT dials out; LISTEN binds, accepts exactly one peer
    and returns that connection.
    """
    if endpoint.mode is ConnectionMode.REVERSE_CONNECT:
        return connect(endpoint.host, endpoint.port, timeout=timeout)
    with Listener(endpoint.host, endpoint.port) as listener:
        return listener.accept(timeout)
