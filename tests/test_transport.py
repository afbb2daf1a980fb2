import random
import select
import socket
import threading

import pytest

from kevlar.errors import (
    ConnectRefusedError,
    FrameTooLargeError,
    PeerClosedError,
    TransportError,
)
from kevlar.transport import (
    Connection,
    ConnectionMode,
    Endpoint,
    Listener,
    connect,
    net_connect,
    parse_hostport,
)
from kevlar.wire import MAX_FRAME


@pytest.fixture
def pair():
    """A connected (client, server) Connection pair over loopback."""
    with Listener("127.0.0.1", 0) as listener:
        result = {}

        def accept():
            result["server"] = listener.accept(timeout=5)

        thread = threading.Thread(target=accept)
        thread.start()
        client = connect("127.0.0.1", listener.port, timeout=5)
        thread.join()
    yield client, result["server"]
    client.close()
    result["server"].close()


def test_send_and_receive_frame(pair):
    client, server = pair
    client.send(b"PING\n")
    assert server.receive_frame() == b"PING\n"


def test_two_frames_in_one_segment(pair):
    client, server = pair
    client.send(b"ONE\nTWO|Zg==\n")
    assert server.receive_frame() == b"ONE\n"
    assert server.receive_frame() == b"TWO|Zg==\n"


def test_frame_split_across_byte_writes(pair):
    client, server = pair
    frame = b"QUERY|Zm9vYmFy\n"

    def dribble():
        for i in range(len(frame)):
            client.send(frame[i : i + 1])

    thread = threading.Thread(target=dribble)
    thread.start()
    assert server.receive_frame() == frame
    thread.join()


def test_large_frame_preserved(pair):
    client, server = pair
    frame = bytes(random.Random(7).randbytes(100_000)).replace(b"\n", b"x") + b"\n"

    def pump():
        client.send(frame)

    thread = threading.Thread(target=pump)
    thread.start()
    assert server.receive_frame() == frame
    thread.join()


def test_byte_transparency_random_chunking():
    rng = random.Random(99)
    lines = [rng.randbytes(rng.randint(0, 300)).replace(b"\n", b".") + b"\n" for _ in range(40)]
    stream = b"".join(lines)
    with Listener("127.0.0.1", 0) as listener:
        received = []

        def serve():
            with listener.accept(timeout=5) as server:
                for _ in lines:
                    received.append(server.receive_frame())

        thread = threading.Thread(target=serve)
        thread.start()
        with connect("127.0.0.1", listener.port, timeout=5) as client:
            pos = 0
            while pos < len(stream):
                step = rng.randint(1, 700)
                client.send(stream[pos : pos + step])
                pos += step
        thread.join()
    assert received == lines


def test_oversized_line_closes_connection():
    with Listener("127.0.0.1", 0) as listener:
        errors = []

        def serve():
            server = listener.accept(timeout=5)
            try:
                server.receive_frame()
            except FrameTooLargeError as exc:
                errors.append(exc)
            assert not server.is_open

        thread = threading.Thread(target=serve)
        thread.start()
        with connect("127.0.0.1", listener.port, timeout=5) as client:
            try:
                client.send(b"x" * (MAX_FRAME + 1))
                thread.join()
            except PeerClosedError:
                thread.join()
        assert errors


def test_accept_times_out_without_a_peer():
    with Listener("127.0.0.1", 0) as listener:
        with pytest.raises(TransportError, match="timed out waiting for a peer"):
            listener.accept(timeout=0.05)


def test_peer_eof_raises_peer_closed(pair):
    client, server = pair
    client.send(b"partial-without-newline")
    client.close()
    with pytest.raises(PeerClosedError):
        server.receive_frame()


def test_disconnect_is_idempotent_and_peer_sees_eof(pair):
    client, server = pair
    client.close()
    client.close()  # no-op
    with pytest.raises(PeerClosedError):
        client.send(b"X\n")
    with pytest.raises(PeerClosedError):
        client.receive_frame()  # local side refuses too
    with pytest.raises(PeerClosedError):
        server.receive_frame()  # EOF observed


def test_nonblocking_fill_frame_ready_and_flush(pair):
    client, server = pair
    server.setblocking(False)
    server.fill()  # nothing has arrived: returns instead of blocking or closing
    assert server.is_open and not server.frame_ready
    client.send(b"ONE\nTW")
    select.select([server], [], [], 5)
    server.fill()
    assert server.frame_ready
    assert server.receive_frame() == b"ONE\n"
    assert not server.frame_ready  # only a partial line is left

    big = bytes(range(256)) * (8 << 12)  # 8 MiB, more than the socket buffers hold
    got = []
    reader = threading.Thread(target=lambda: got.append(client.receive_exact(len(big))))
    server.send(big)
    assert 0 < server.pending < len(big)
    reader.start()
    while server.pending:
        select.select([], [server], [], 5)
        server.flush()
    reader.join(timeout=10)
    assert got == [big]


def test_connect_refused():
    with Listener("127.0.0.1", 0) as listener:
        port = listener.port
    with pytest.raises(ConnectRefusedError):
        connect("127.0.0.1", port, timeout=2)


def test_net_connect_listen_mode():
    result = {}

    def client_side(port_box):
        result["conn"] = connect("127.0.0.1", port_box[0], timeout=5)

    # LISTEN via net_connect needs a fixed port: grab a free one first.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    box = [port]
    thread = threading.Timer(0.1, client_side, args=(box,))
    thread.start()
    server = net_connect(Endpoint("127.0.0.1", port, ConnectionMode.LISTEN), timeout=5)
    thread.join()
    server.send(b"HI\n")
    assert result["conn"].receive_frame() == b"HI\n"
    server.close()
    result["conn"].close()


def test_receive_exact(pair):
    client, server = pair
    client.send(b"abcdefghij")
    assert server.receive_exact(4) == b"abcd"
    assert server.receive_exact(6) == b"efghij"


def test_endpoint_port_validation():
    with pytest.raises(ValueError):
        Endpoint("h", 0)  # reverse mode cannot use port 0
    with pytest.raises(ValueError):
        Endpoint("h", 65536)
    assert Endpoint("h", 0, ConnectionMode.LISTEN).port == 0


@pytest.mark.parametrize(
    "text,expected",
    [("127.0.0.1:80", ("127.0.0.1", 80)), ("host:7600", ("host", 7600))],
)
def test_parse_hostport(text, expected):
    assert parse_hostport(text) == expected


@pytest.mark.parametrize("text", [
    "noport", ":80", "h:", "h:x", "h:70000", "h:-1",
    "h:1_0", "h:+80", "h: 80", "h:\u0668\u0660",
])
def test_parse_hostport_rejects(text):
    with pytest.raises(ValueError):
        parse_hostport(text)
