"""Long-lived request daemon and its dispatch table.

The daemon is invoked once and then serves cache and re-encryption
requests over the wire protocol until it receives QUIT or a signal.
Exactly one thread owns the cache and every socket: it runs a
`selectors` event loop over the listener and all connections, and
handles each connection's lines in arrival order, so responses on a
connection are never reordered and no request input can kill the loop.
Each readiness event handles at most one line, so peers take turns.  A
peer is read only while it has no line buffered and no reply unsent, so
the kernel's socket buffers queue its replies; a peer that stops reading
them cannot stall the others or grow the daemon's buffers.

In reverse-connect mode (the default) the daemon dials out to the
untrusted peer's socket until it listens, waiting `_RETRY_PAUSE` after
the first refused dial and twice as long after each further one, up to
`_RETRY_PAUSE_MAX`; it redials at once after the peer hangs up.  LISTEN
mode binds a socket and serves any number of peers, one line per peer
per turn; a peer beyond the descriptor limit waits in the kernel backlog
until another hangs up.

A daemon that listens, or has its reverse-mode peer, sleeps in `select`
when idle until shutdown() wakes it at once.
Graceful shutdown has nothing to flush: the cache is write-through.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import selectors
import signal
import socket
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from . import crypto
from .cache import Cache, CacheConfig, Policy
from .errors import (
    CryptoError,
    FrameTooLargeError,
    IdTooLongError,
    InvalidFrameError,
    KevlarError,
    NotFoundError,
    StoreError,
    TransportError,
    ValueTooLongError,
)
from .store import open_store
from .transport import (
    Connection,
    ConnectionMode,
    Endpoint,
    Listener,
    connect,
    parse_hostport,
)
from .wire import (
    OP_ERR,
    OP_OK,
    OP_PING,
    OP_QUERY,
    OP_QUIT,
    OP_REENC,
    OP_SAVE,
    ErrorCode,
    WireFrame,
    frame_parse,
    frame_serialize,
)

logger = logging.getLogger(__name__)

#: Reverse mode: how long one dial may take.
_CONNECT_TIMEOUT = 1.0
#: Seconds from the first refused dial, or from a failed accept() that paused
#: the listener (out of descriptors leaves it readable), to the retry.
_RETRY_PAUSE = 0.05
#: Reverse mode: each refused dial doubles the pause up to this, and a
#: connection resets it, so a daemon whose peer is away wakes once a second.
_RETRY_PAUSE_MAX = 1.0


@dataclass(frozen=True)
class DaemonConfig:
    endpoint: Endpoint
    store_dir: Path
    keyfile: Path
    cache: CacheConfig


def _ok(*fields: bytes) -> WireFrame:
    return WireFrame(OP_OK, fields)


def _err(code: ErrorCode, detail: str) -> WireFrame:
    return WireFrame(OP_ERR, (code.value.encode("ascii"), detail.encode("utf-8")))


#: Field count of every request op; any other op is unknown.
_ARITY = {OP_PING: 0, OP_QUIT: 0, OP_SAVE: 2, OP_QUERY: 1, OP_REENC: 3}


def dispatch(frame: WireFrame, cache: Cache) -> WireFrame:
    """Map one request frame to its response frame.

    Never raises for request-level problems; those become ERR frames.
    For REENC the stored values are used as keys in place and appear in
    no response or log.
    """
    op, fields = frame
    arity = _ARITY.get(op)
    if arity is None:
        return _err(ErrorCode.BAD_REQUEST, f"unknown op {op}")
    if len(fields) != arity:
        return _err(ErrorCode.BAD_REQUEST, f"{op} expects {arity} field(s), got {len(fields)}")
    try:
        if op == OP_SAVE:
            cache.save_object(fields[0], fields[1])
            return _ok()
        if op == OP_QUERY:
            return _ok(cache.query(fields[0]))
        if op == OP_REENC:
            src_key = cache.query(fields[0])
            dst_key = cache.query(fields[1])
            if len(src_key) != crypto.KEY_SIZE or len(dst_key) != crypto.KEY_SIZE:
                return _err(ErrorCode.CRYPTO_FAIL, "stored value is not a 32-byte key")
            envelope = crypto.CipherEnvelope.from_bytes(fields[2])
            return _ok(crypto.reencrypt(src_key, dst_key, envelope).to_bytes())
        return _ok()  # PING, QUIT
    except (IdTooLongError, ValueTooLongError) as exc:
        return _err(ErrorCode.TOO_LARGE, str(exc))
    except NotFoundError as exc:
        return _err(ErrorCode.NOT_FOUND, str(exc))
    except CryptoError as exc:
        return _err(ErrorCode.CRYPTO_FAIL, str(exc))
    except StoreError as exc:
        return _err(ErrorCode.STORE_FAIL, str(exc))
    except ValueError as exc:
        return _err(ErrorCode.BAD_REQUEST, str(exc))


class Daemon:
    """One store, one cache, and one thread that serves every connection.

    Usage: construct (which binds the listener in LISTEN mode), then
    serve_forever() on the thread that is to own the cache and the
    sockets.  shutdown() only asks that loop to stop, so it is safe
    from any thread or a signal handler.
    """

    def __init__(self, config: DaemonConfig) -> None:
        self.config = config
        self._stopping = False
        self._conns: set[Connection] = set()
        self._listener: Listener | None = None
        # When _retry() is due (monotonic), or None: in reverse mode at once.
        self._retry_at = None if config.endpoint.mode is ConnectionMode.LISTEN else time.monotonic()
        self._dial_pause = _RETRY_PAUSE
        # A failure part-way closes what was already opened, then re-raises;
        # otherwise close() closes it all, in reverse order of opening.
        with contextlib.ExitStack() as opened:
            self._store = open_store(config.store_dir, config.keyfile)
            opened.callback(self._store.close)
            self._cache = Cache(config.cache, self._store)
            opened.callback(self._cache.free)
            self._selector = selectors.DefaultSelector()
            opened.callback(self._selector.close)
            # shutdown() sends a byte to _wake; the loop head then sees _stopping.
            wake, self._wake = (opened.enter_context(s) for s in socket.socketpair())
            self._wake.setblocking(False)
            self._selector.register(wake, selectors.EVENT_READ)
            endpoint = config.endpoint
            if endpoint.mode is ConnectionMode.LISTEN:
                self._listener = opened.enter_context(Listener(endpoint.host, endpoint.port))
                self._selector.register(self._listener, selectors.EVENT_READ)
            self._resources = opened.pop_all()

    @property
    def address(self) -> tuple[str, int]:
        """The endpoint in use; in LISTEN mode the actually bound one."""
        if self._listener is not None:
            return (self._listener.host, self._listener.port)
        return (self.config.endpoint.host, self.config.endpoint.port)

    def serve_forever(self) -> None:
        """Serve every connection until QUIT or shutdown(), then close them."""
        try:
            while not self._stopping:
                if self._retry_at is not None and time.monotonic() >= self._retry_at:
                    self._retry()
                timeout = None if self._retry_at is None else self._retry_at - time.monotonic()
                for key, events in self._selector.select(timeout):
                    if key.fileobj is self._listener:
                        self._accept()
                    elif key.data is not None:
                        self._service(key, events)
        finally:
            for conn in list(self._conns):
                self._drop(conn)

    def shutdown(self) -> None:
        """Ask serve_forever() to stop; safe from any thread or a signal handler."""
        self._stopping = True
        with contextlib.suppress(OSError):  # a byte is already pending, or close() ran
            self._wake.send(b"\0")

    def close(self) -> None:
        self._resources.close()

    # -- internals ---------------------------------------------------------

    def _accept(self) -> None:
        try:
            self._add(self._listener.accept(timeout=0))
        except TransportError:
            # The listener may stay readable, so watching it would spin.
            self._selector.unregister(self._listener)
            self._retry_at = time.monotonic() + _RETRY_PAUSE

    def _retry(self) -> None:
        """Watch the paused listener again, or dial the peer (reverse mode)."""
        self._retry_at = None
        if self._listener is not None:
            self._selector.register(self._listener, selectors.EVENT_READ)
            return
        try:
            self._add(connect(*self.address, timeout=_CONNECT_TIMEOUT))
        except TransportError:
            self._retry_at = time.monotonic() + self._dial_pause
            self._dial_pause = min(2 * self._dial_pause, _RETRY_PAUSE_MAX)
        else:
            self._dial_pause = _RETRY_PAUSE

    def _add(self, conn: Connection) -> None:
        logger.debug("serving %s", conn.peer)
        conn.setblocking(False)
        self._conns.add(conn)
        self._selector.register(conn, selectors.EVENT_READ, conn)

    def _drop(self, conn: Connection) -> None:
        self._selector.unregister(conn)
        self._conns.discard(conn)
        conn.close()
        # A freed descriptor for a paused listener, or no peer in reverse mode.
        if self._listener is None or self._retry_at is not None:
            self._retry_at = time.monotonic()

    def _service(self, key: selectors.SelectorKey, events: int) -> None:
        """One readiness event: write or read once, then handle at most one line."""
        conn: Connection = key.data
        try:
            if events & selectors.EVENT_WRITE:
                conn.flush()
            else:
                conn.fill()
            if conn.frame_ready and not conn.pending:
                self._handle_frame(conn, conn.receive_frame())
        except FrameTooLargeError as exc:
            # Protocol violation: receive_frame already closed the line.
            logger.warning("dropping %s: %s", conn.peer, exc)
            self._drop(conn)
            return
        except TransportError as exc:
            logger.debug("connection %s done: %s", conn.peer, exc)
            self._drop(conn)
            return
        # Read only with no line buffered and no reply unsent, so input stays under
        # MAX_FRAME plus one 64 KiB read and output at one reply.  A socket with room
        # to send is writable at once: a peer with a line left waits one round.
        wanted = selectors.EVENT_WRITE if conn.pending or conn.frame_ready else selectors.EVENT_READ
        if wanted != key.events:
            self._selector.modify(conn, wanted, conn)

    def _handle_frame(self, conn: Connection, raw: bytes) -> None:
        try:
            frame = frame_parse(raw)
        except InvalidFrameError as exc:
            logger.debug("rejecting malformed frame from %s: %s", conn.peer, exc)
            self._respond(conn, _err(ErrorCode.BAD_REQUEST, str(exc)))
            return
        try:
            response = dispatch(frame, self._cache)
        except Exception as exc:
            # One thread serves every peer: an unforeseen failure answers
            # this request and the loop goes on.  Only the exception type
            # and stack are logged; the message may quote request fields.
            logger.error(
                "%s %s failed: unexpected %s\n%s", conn.peer, frame.op, type(exc).__name__,
                "".join(traceback.format_tb(exc.__traceback__)),
            )
            response = _err(ErrorCode.STORE_FAIL, "internal error")
        logger.debug("%s %s -> %s", conn.peer, frame.op, response.op)
        self._respond(conn, response)
        if frame.op == OP_QUIT and response.op == OP_OK:
            logger.info("QUIT received, shutting down")
            self.shutdown()

    def _respond(self, conn: Connection, response: WireFrame) -> None:
        try:
            data = frame_serialize(response)
        except InvalidFrameError:
            data = frame_serialize(_err(ErrorCode.TOO_LARGE, "response exceeds frame limit"))
        conn.send(data)


@contextlib.contextmanager
def daemon_in_thread(config: DaemonConfig):
    """Run a daemon on a background thread (tests and benches)."""
    daemon = Daemon(config)
    thread = threading.Thread(target=daemon.serve_forever, name="kevlar-serve", daemon=True)
    thread.start()
    try:
        yield daemon
    finally:
        daemon.shutdown()
        thread.join(timeout=5)
        daemon.close()


def _env(name: str, fallback: str) -> str:
    return os.environ.get(f"KEVLAR_{name}", fallback)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kevlar-daemon",
        description="Serve cache and re-encryption requests over the wire protocol.",
    )
    parser.add_argument("--endpoint", default=_env("ENDPOINT", "127.0.0.1:7600"),
                        help="HOST:PORT to dial (reverse mode) or bind (listen mode)")
    parser.add_argument("--mode", choices=[m.value for m in ConnectionMode],
                        default=_env("MODE", "reverse"),
                        help="reverse: dial out to the peer's socket (default); listen: bind and accept")
    parser.add_argument("--store-dir", default=_env("STORE_DIR", "./kevlar-store"))
    parser.add_argument("--keyfile", default=_env("KEYFILE", "./kevlar.key"))
    parser.add_argument("--capacity", type=int, default=_env("CAPACITY", "128"))
    parser.add_argument("--id-size", type=int, default=_env("ID_SIZE", "128"))
    parser.add_argument("--value-size", type=int, default=_env("VALUE_SIZE", "65536"))
    parser.add_argument("--policy", choices=[p.value for p in Policy],
                        default=_env("POLICY", "lru"))
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    """Serve until QUIT or SIGINT/SIGTERM and return 0.

    A startup failure prints a diagnostic and returns 1.  Per-request
    failures never end the loop.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        host, port = parse_hostport(args.endpoint)
        mode = ConnectionMode(args.mode)
        config = DaemonConfig(
            endpoint=Endpoint(host, port, mode),
            store_dir=Path(args.store_dir),
            keyfile=Path(args.keyfile),
            cache=CacheConfig(
                capacity=args.capacity,
                id_size=args.id_size,
                value_size=args.value_size,
                policy=Policy(args.policy),
            ),
        )
    except (KevlarError, ValueError) as exc:
        parser.error(str(exc))

    try:
        daemon = Daemon(config)
    except (KevlarError, OSError) as exc:
        print(f"kevlar-daemon: startup failed: {exc}", file=sys.stderr)
        return 1
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: daemon.shutdown())
    host, port = daemon.address
    verb = "listening on" if mode is ConnectionMode.LISTEN else "reverse-connecting to"
    print(f"kevlar-daemon: {verb} {host}:{port}", flush=True)
    try:
        daemon.serve_forever()
    finally:
        daemon.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
