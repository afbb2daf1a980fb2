"""Command-line peer for the daemon, playing the untrusted application.

Each subcommand performs one request/response exchange.  In the default
listen mode the client opens the server socket and waits for the daemon
to reverse-connect; connect mode dials a daemon that is listening.
Values are passed and printed hex-encoded.
"""

from __future__ import annotations

import argparse
import sys

from .errors import TransportError, WireError
from .transport import Connection, ConnectionMode, Endpoint, net_connect, parse_hostport
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

EXIT_OK = 0
EXIT_CONNECT = 3
EXIT_NOT_FOUND = 4
EXIT_ERROR = 5


def exchange(conn: Connection, frame: WireFrame) -> WireFrame:
    """Send one request frame and return the parsed response frame."""
    conn.send(frame_serialize(frame))
    return frame_parse(conn.receive_frame())


def _hex_bytes(text: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a hex string: {text!r}")


def _seconds(text: str) -> float:
    try:
        seconds = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0 < seconds < float("inf"):
        raise argparse.ArgumentTypeError(f"not a positive finite number of seconds: {text!r}")
    return seconds


def _request(
    endpoint: Endpoint, timeout: float, frame: WireFrame
) -> tuple[int, WireFrame | None]:
    try:
        conn = net_connect(endpoint, timeout=timeout)
    except TransportError as exc:
        print(f"kevlar-client: cannot reach daemon: {exc}", file=sys.stderr)
        return EXIT_CONNECT, None
    try:
        response = exchange(conn, frame)
    except (TransportError, WireError) as exc:
        print(f"kevlar-client: exchange failed: {exc}", file=sys.stderr)
        return EXIT_ERROR, None
    finally:
        conn.close()
    if response.op == OP_OK:
        return EXIT_OK, response
    if response.op == OP_ERR and response.fields:
        code = response.fields[0].decode("ascii", "replace")
        detail = response.fields[1].decode("utf-8", "replace") if len(response.fields) > 1 else ""
        print(f"kevlar-client: ERR {code}: {detail}", file=sys.stderr)
        return (EXIT_NOT_FOUND if code == ErrorCode.NOT_FOUND.value else EXIT_ERROR), response
    print(f"kevlar-client: unexpected response {response.op}", file=sys.stderr)
    return EXIT_ERROR, response


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kevlar-client",
        description="Exchange one request with the cache daemon.",
    )
    parser.add_argument("--endpoint", default="127.0.0.1:7600", help="HOST:PORT")
    parser.add_argument("--mode", choices=("listen", "connect"), default="listen",
                        help="listen: open the server socket the daemon dials (default); "
                             "connect: dial a listening daemon")
    parser.add_argument("--timeout", type=_seconds, default=15.0,
                        help="seconds to wait for the daemon (a positive number)")
    sub = parser.add_subparsers(dest="command", required=True)

    save = sub.add_parser("serve-and-save", help="store one key/value pair")
    save.add_argument("--id", type=_hex_bytes, required=True, help="object id, hex")
    save.add_argument("--value", type=_hex_bytes, required=True, help="object value, hex")

    query = sub.add_parser("query", help="fetch the value for an id")
    query.add_argument("--id", type=_hex_bytes, required=True, help="object id, hex")

    reenc = sub.add_parser("reenc", help="re-encrypt a cipher from one stored key to another")
    reenc.add_argument("--src-id", type=_hex_bytes, required=True, help="source key id, hex")
    reenc.add_argument("--dst-id", type=_hex_bytes, required=True, help="destination key id, hex")
    reenc.add_argument("--cipher", type=_hex_bytes, required=True, help="iv||body envelope, hex")

    sub.add_parser("ping", help="liveness check")
    sub.add_parser("quit", help="ask the daemon to shut down")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        host, port = parse_hostport(args.endpoint)
        # The mode says how this side opens the connection: connect dials out.
        mode = ConnectionMode.LISTEN if args.mode == "listen" else ConnectionMode.REVERSE_CONNECT
        endpoint = Endpoint(host, port, mode)
    except ValueError as exc:
        parser.error(str(exc))

    if args.command == "serve-and-save":
        frame = WireFrame(OP_SAVE, (args.id, args.value))
    elif args.command == "query":
        frame = WireFrame(OP_QUERY, (args.id,))
    elif args.command == "reenc":
        frame = WireFrame(OP_REENC, (args.src_id, args.dst_id, args.cipher))
    elif args.command == "ping":
        frame = WireFrame(OP_PING)
    else:
        frame = WireFrame(OP_QUIT)

    status, response = _request(endpoint, args.timeout, frame)
    if status == EXIT_OK and response is not None and response.fields:
        print(response.fields[0].hex())
    return status


if __name__ == "__main__":
    sys.exit(main())
