import contextlib
import errno
import logging
import os
import random
import re
import resource
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from kevlar import crypto
from kevlar import daemon as daemon_module
from kevlar.cache import Cache, CacheConfig
from kevlar.client import exchange
from kevlar.daemon import (
    Daemon,
    ErrorCode,
    daemon_in_thread,
    dispatch,
)
from kevlar.errors import PeerClosedError
from kevlar.store import OBJECT_SUFFIX, SecureStore, open_store
from kevlar.transport import Connection, ConnectionMode, Listener, connect, parse_hostport
from kevlar.wire import (
    MAX_FRAME,
    OP_ERR,
    OP_OK,
    WireFrame,
    frame_parse,
    frame_serialize,
)

from reference_model import MemoryStore


def _dial(daemon, io_timeout=10):
    host, port = daemon.address
    conn = connect(host, port, timeout=5)
    conn._sock.settimeout(io_timeout)
    return conn


def _err_code(frame):
    assert frame.op == OP_ERR
    return frame.fields[0].decode()


# --- dispatch (pure request -> response mapping) ------------------------


@pytest.fixture
def cache():
    return Cache(CacheConfig(capacity=8, id_size=32, value_size=64),
                 MemoryStore())


def test_dispatch_ping(cache):
    assert dispatch(WireFrame("PING"), cache) == WireFrame(OP_OK)


def test_dispatch_save_then_query(cache):
    assert dispatch(WireFrame("SAVE", (b"id", b"value")), cache) == WireFrame(OP_OK)
    assert dispatch(WireFrame("QUERY", (b"id",)), cache) == WireFrame(OP_OK, (b"value",))


def test_dispatch_query_missing(cache):
    assert _err_code(dispatch(WireFrame("QUERY", (b"nope",)), cache)) == "NOT_FOUND"


def _err_detail(frame):
    return frame.fields[1].decode()


def test_dispatch_arity_errors(cache):
    for frame, detail in (
        (WireFrame("PING", (b"x",)), "PING expects 0 field(s), got 1"),
        (WireFrame("QUIT", (b"x",)), "QUIT expects 0 field(s), got 1"),
        (WireFrame("SAVE", (b"id",)), "SAVE expects 2 field(s), got 1"),
        (WireFrame("QUERY"), "QUERY expects 1 field(s), got 0"),
        (WireFrame("REENC", (b"a", b"b")), "REENC expects 3 field(s), got 2"),
    ):
        response = dispatch(frame, cache)
        assert _err_code(response) == "BAD_REQUEST"
        assert _err_detail(response) == detail


def test_dispatch_unknown_op(cache):
    for op in ("FROB", OP_OK, OP_ERR):
        response = dispatch(WireFrame(op, (b"x",)), cache)
        assert _err_code(response) == "BAD_REQUEST"
        assert _err_detail(response) == f"unknown op {op}"


def test_dispatch_too_large(cache):
    assert _err_code(dispatch(WireFrame("SAVE", (b"x" * 33, b"v")), cache)) == "TOO_LARGE"
    assert _err_code(dispatch(WireFrame("SAVE", (b"x", b"v" * 65)), cache)) == "TOO_LARGE"
    assert _err_code(dispatch(WireFrame("QUERY", (b"x" * 33,)), cache)) == "TOO_LARGE"


def test_dispatch_reenc_roundtrip(cache):
    k1, k2 = crypto.generate_key(), crypto.generate_key()
    dispatch(WireFrame("SAVE", (b"k1", k1)), cache)
    dispatch(WireFrame("SAVE", (b"k2", k2)), cache)
    message = b"the payload"
    envelope = crypto.encrypt(k1, message)
    response = dispatch(WireFrame("REENC", (b"k1", b"k2", envelope.to_bytes())), cache)
    assert response.op == OP_OK
    rotated = crypto.CipherEnvelope.from_bytes(response.fields[0])
    assert crypto.decrypt(k2, rotated) == message
    # both lookups went through the cache
    assert cache.stats.hits + cache.stats.misses >= 2


def test_dispatch_reenc_value_not_a_key(cache):
    dispatch(WireFrame("SAVE", (b"k1", b"tiny!")), cache)
    dispatch(WireFrame("SAVE", (b"k2", crypto.generate_key())), cache)
    envelope = crypto.encrypt(crypto.generate_key(), b"m")
    response = dispatch(WireFrame("REENC", (b"k1", b"k2", envelope.to_bytes())), cache)
    assert response == WireFrame(OP_ERR, (b"CRYPTO_FAIL", b"stored value is not a 32-byte key"))


def test_dispatch_reenc_malformed_envelope(cache):
    k = crypto.generate_key()
    dispatch(WireFrame("SAVE", (b"k1", k)), cache)
    dispatch(WireFrame("SAVE", (b"k2", k)), cache)
    response = dispatch(WireFrame("REENC", (b"k1", b"k2", b"short")), cache)
    assert _err_code(response) == "CRYPTO_FAIL"


@pytest.mark.parametrize("envelope, detail", [
    (b"short", "envelope too short: 5 bytes"),
    (bytes(40), "body length 24 is not a positive multiple of 16"),
])
def test_dispatch_reenc_malformed_envelope_detail(cache, envelope, detail):
    # The detail is part of the reply bytes, so a reworded error changes the wire.
    k = crypto.generate_key()
    dispatch(WireFrame("SAVE", (b"k1", k)), cache)
    dispatch(WireFrame("SAVE", (b"k2", k)), cache)
    response = dispatch(WireFrame("REENC", (b"k1", b"k2", envelope)), cache)
    assert response == WireFrame(OP_ERR, (b"CRYPTO_FAIL", detail.encode()))


def test_dispatch_reenc_bad_padding_detail(cache):
    # CBC plaintext of 32 zero bytes: its last byte is no PKCS#7 pad.
    k = crypto.generate_key()
    dispatch(WireFrame("SAVE", (b"k1", k)), cache)
    dispatch(WireFrame("SAVE", (b"k2", crypto.generate_key())), cache)
    iv = os.urandom(16)
    encryptor = Cipher(algorithms.AES(k), modes.CBC(iv)).encryptor()
    body = encryptor.update(bytes(32)) + encryptor.finalize()
    response = dispatch(WireFrame("REENC", (b"k1", b"k2", iv + body)), cache)
    assert response == WireFrame(OP_ERR, (b"CRYPTO_FAIL", b"invalid padding after decryption"))


def test_dispatch_reenc_missing_key_id(cache):
    envelope = crypto.encrypt(crypto.generate_key(), b"m")
    response = dispatch(WireFrame("REENC", (b"nope", b"nope", envelope.to_bytes())), cache)
    assert _err_code(response) == "NOT_FOUND"


def test_dispatch_empty_id_is_bad_request(cache):
    assert _err_code(dispatch(WireFrame("QUERY", (b"",)), cache)) == "BAD_REQUEST"


def test_error_codes_enumerated():
    assert {c.value for c in ErrorCode} == {
        "NOT_FOUND", "BAD_REQUEST", "CRYPTO_FAIL", "STORE_FAIL", "TOO_LARGE"
    }


# --- live daemon over TCP ------------------------------------------------


def test_ping_is_exact_ok_line(live_daemon):
    with _dial(live_daemon) as conn:
        conn.send(b"PING\n")
        assert conn.receive_frame() == b"OK\n"


def test_save_query_reenc_end_to_end(live_daemon):
    k1, k2 = crypto.generate_key(), crypto.generate_key()
    with _dial(live_daemon) as conn:
        assert exchange(conn, WireFrame("SAVE", (b"key-1", k1))).op == OP_OK
        assert exchange(conn, WireFrame("SAVE", (b"key-2", k2))).op == OP_OK
        got = exchange(conn, WireFrame("QUERY", (b"key-1",)))
        assert got == WireFrame(OP_OK, (k1,))
        message = b"0.00,-0.1200;9.34,1.2000;"
        envelope = crypto.encrypt(k1, message)
        response = exchange(conn, WireFrame("REENC", (b"key-1", b"key-2", envelope.to_bytes())))
        assert response.op == OP_OK
        assert crypto.decrypt(k2, crypto.CipherEnvelope.from_bytes(response.fields[0])) == message


def test_trace_hooks_see_one_call_per_request(live_daemon, monkeypatch):
    # perfbench's --trace 1 wraps exactly these attributes before the
    # daemon runs; each must be looked up at call time to be seen.
    k1, k2 = crypto.generate_key(), crypto.generate_key()
    envelope = crypto.encrypt(k1, b"traced")
    with socket.create_connection(live_daemon.address, timeout=5) as sock, \
            sock.makefile("rb") as replies:
        for key_id, key in ((b"k1", k1), (b"k2", k2)):
            sock.sendall(frame_serialize(WireFrame("SAVE", (key_id, key))))
            assert replies.readline() == b"OK\n"

        calls = {}
        hooks = [(daemon_module, name) for name in ("frame_parse", "dispatch", "frame_serialize")]
        hooks += [(crypto, "reencrypt"), (Connection, "receive_frame"), (Connection, "send")]
        for owner, name in hooks:
            def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        sock.sendall(frame_serialize(WireFrame("REENC", (b"k1", b"k2", envelope.to_bytes()))))
        response = frame_parse(replies.readline())
    assert response.op == OP_OK
    assert crypto.decrypt(k2, crypto.CipherEnvelope.from_bytes(response.fields[0])) == b"traced"
    assert calls == {name: 1 for _, name in hooks}


def test_malformed_line_keeps_connection_open(live_daemon):
    with _dial(live_daemon) as conn:
        conn.send(b"XYZ|!!\n")
        response = frame_parse(conn.receive_frame())
        assert _err_code(response) == "BAD_REQUEST"
        conn.send(b"PING\n")
        assert conn.receive_frame() == b"OK\n"


def test_empty_line_is_bad_request(live_daemon):
    with _dial(live_daemon) as conn:
        conn.send(b"\n")
        assert _err_code(frame_parse(conn.receive_frame())) == "BAD_REQUEST"


def test_illegal_op_at_frame_limit_is_bad_request(live_daemon):
    # The reply quotes a bounded prefix of the op, so it stays small.
    with _dial(live_daemon) as conn:
        for junk in (b"a", b"\xff"):
            conn.send(junk * (MAX_FRAME - 1) + b"\n")
            assert _err_code(frame_parse(conn.receive_frame())) == "BAD_REQUEST"


def test_frame_limit_boundary_through_daemon(live_daemon):
    # MAX_FRAME bytes, terminator included, are answered; one byte more
    # drops only that peer, and another connected peer is still served.
    with _dial(live_daemon, io_timeout=10) as other, _dial(live_daemon, io_timeout=10) as conn:
        conn.send(b"a" * (MAX_FRAME - 1) + b"\n")
        assert _err_code(frame_parse(conn.receive_frame())) == "BAD_REQUEST"
        conn.send(b"a" * MAX_FRAME + b"\n")
        with pytest.raises(PeerClosedError):
            conn.receive_frame()
        other.send(b"PING\n")
        assert other.receive_frame() == b"OK\n"


def test_store_fail_detail_names_no_server_path(tmp_path, store):
    cache = Cache(CacheConfig(capacity=8, id_size=32, value_size=64), store)
    store.object_path(b"a").mkdir()
    for request in (WireFrame("QUERY", (b"a",)), WireFrame("SAVE", (b"a", b"v"))):
        response = dispatch(request, cache)
        assert _err_code(response) == "STORE_FAIL"
        detail = response.fields[1].decode()
        assert os.strerror(errno.EISDIR) in detail
        for secret in (str(tmp_path), OBJECT_SUFFIX, ".write-"):
            assert secret not in detail


def test_store_integrity_failure_is_store_fail(store):
    store.write_ss(b"k", b"v")
    path = store.object_path(b"k")
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01
    path.write_bytes(blob)
    cache = Cache(CacheConfig(capacity=8, id_size=32, value_size=64), store)
    response = dispatch(WireFrame("QUERY", (b"k",)), cache)
    assert response == WireFrame(
        OP_ERR, (b"STORE_FAIL", b"object for id b'k' failed authentication"))


def test_reply_over_frame_limit_is_too_large(tmp_path, daemon_config):
    # 800,000 bytes are 1,066,668 in base64: the OK reply would exceed MAX_FRAME.
    open_store(tmp_path / "store", tmp_path / "sealing.key").write_ss(b"big", b"v" * 800_000)
    with daemon_in_thread(daemon_config()) as daemon, _dial(daemon, io_timeout=10) as conn:
        response = exchange(conn, WireFrame("QUERY", (b"big",)))
        assert response == WireFrame(OP_ERR, (b"TOO_LARGE", b"response exceeds frame limit"))
        assert exchange(conn, WireFrame("PING")) == WireFrame(OP_OK)


def test_responses_stay_in_request_order(live_daemon):
    with _dial(live_daemon) as conn:
        blob = b"".join(
            frame_serialize(WireFrame("SAVE", (b"id%03d" % i, b"v%03d" % i)))
            for i in range(50)
        )
        blob += b"".join(
            frame_serialize(WireFrame("QUERY", (b"id%03d" % i,))) for i in range(50)
        )
        conn.send(blob)
        for _ in range(50):
            assert frame_parse(conn.receive_frame()).op == OP_OK
        for i in range(50):
            response = frame_parse(conn.receive_frame())
            assert response == WireFrame(OP_OK, (b"v%03d" % i,))


def _replies_until_hang_up(daemon_config, requests):
    """Send requests in one write to a daemon on its own thread.

    Returns every byte it sends before it hangs up, once its serving
    thread has stopped.
    """
    daemon = Daemon(daemon_config())
    server = threading.Thread(target=daemon.serve_forever, daemon=True)
    server.start()
    with socket.create_connection(daemon.address, timeout=10) as sock:
        sock.sendall(requests)
        received = bytearray()
        while chunk := sock.recv(64):
            received += chunk
    server.join(timeout=5)
    assert not server.is_alive()
    daemon.close()
    return received


def test_quit_stops_daemon(daemon_config):
    assert _replies_until_hang_up(daemon_config, b"QUIT\n") == b"OK\n"


def test_pipelined_quit_answers_no_line_after_it(daemon_config):
    assert _replies_until_hang_up(daemon_config, b"PING\nQUIT\nPING\nPING\n") == b"OK\nOK\n"


def test_durability_across_daemon_restart(daemon_config):
    values = {b"id%02d" % i: bytes([i]) * 32 for i in range(20)}
    with daemon_in_thread(daemon_config()) as daemon:
        with _dial(daemon) as conn:
            for key_id, value in values.items():
                assert exchange(conn, WireFrame("SAVE", (key_id, value))).op == OP_OK
    # fresh daemon over the same store directory
    with daemon_in_thread(daemon_config()) as daemon:
        with _dial(daemon) as conn:
            for key_id, value in values.items():
                assert exchange(conn, WireFrame("QUERY", (key_id,))) == WireFrame(OP_OK, (value,))


def test_reverse_connect_and_redial(daemon_config):
    with Listener("127.0.0.1", 0) as listener:
        config = daemon_config(mode=ConnectionMode.REVERSE_CONNECT, port=listener.port)
        with daemon_in_thread(config):
            conn = listener.accept(timeout=5)
            assert exchange(conn, WireFrame("SAVE", (b"id", b"val"))).op == OP_OK
            conn.close()
            # daemon dials again for the next session
            conn2 = listener.accept(timeout=5)
            assert exchange(conn2, WireFrame("QUERY", (b"id",))) == WireFrame(OP_OK, (b"val",))
            conn2.close()


def test_reverse_mode_redials_until_the_peer_listens(daemon_config):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    config = daemon_config(mode=ConnectionMode.REVERSE_CONNECT, port=port)
    with daemon_in_thread(config):
        time.sleep(0.3)  # several dials are refused before anyone listens
        with Listener("127.0.0.1", port) as listener:
            with listener.accept(timeout=5) as conn:
                assert exchange(conn, WireFrame("PING")) == WireFrame(OP_OK)


def test_startup_failure_exits_nonzero(tmp_path, capsys):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file in the way")
    status = daemon_module.main([
        "--mode", "listen", "--endpoint", "127.0.0.1:0", "--capacity", "4",
        "--store-dir", str(blocker / "store"), "--keyfile", str(tmp_path / "k"),
    ])
    assert status == 1
    assert "startup failed" in capsys.readouterr().err


def test_bind_failure_exits_nonzero(tmp_path, capsys):
    with Listener("127.0.0.1", 0) as taken:
        status = daemon_module.main([
            "--mode", "listen", "--endpoint", f"127.0.0.1:{taken.port}",
            "--store-dir", str(tmp_path / "store"), "--keyfile", str(tmp_path / "k"),
        ])
    assert status == 1
    assert "startup failed" in capsys.readouterr().err


@pytest.mark.parametrize("module, prog", [
    ("kevlar.daemon", "kevlar-daemon"),
    ("kevlar.client", "kevlar-client"),
])
def test_python_m_runs_without_runtime_warning(module, prog):
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "--help"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith(f"usage: {prog}")


@contextlib.contextmanager
def _daemon_process(tmp_path, *flags, python_flags=(), stderr=subprocess.DEVNULL):
    """Run a listen-mode daemon process; yield it and its (host, port), then SIGKILL it."""
    with subprocess.Popen(
        [sys.executable, *python_flags, "-m", "kevlar.daemon",
         "--mode", "listen", "--endpoint", "127.0.0.1:0",
         "--store-dir", str(tmp_path / "store"), "--keyfile", str(tmp_path / "key"), *flags],
        stdout=subprocess.PIPE, stderr=stderr, text=True,
    ) as proc:  # on exit: close the pipe and reap the process
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, f"daemon failed to start: {line!r}"
            yield proc, parse_hostport(line.strip().rsplit(" ", 1)[-1])
        finally:
            proc.kill()  # SIGKILL: no shutdown path runs


@contextlib.contextmanager
def _spawned_daemon(tmp_path, *flags):
    """Run a listen-mode daemon process; yield its (host, port), then SIGKILL it."""
    with _daemon_process(tmp_path, *flags) as (_, address):
        yield address


def _cpu_seconds(pid):
    """utime + stime of a process, from fields 14 and 15 of /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/<pid>/stat")
def test_accept_at_fd_limit_does_not_spin(tmp_path):
    def limit_fds():
        resource.setrlimit(resource.RLIMIT_NOFILE, (64, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))

    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "kevlar.daemon", "--mode", "listen", "--endpoint", "127.0.0.1:0",
         "--store-dir", str(tmp_path / "store"), "--keyfile", str(tmp_path / "k")],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, preexec_fn=limit_fds,
    )
    peers = []
    try:
        address = proc.stdout.readline().rsplit(" ", 1)[1]
        host, port = address.strip().rsplit(":", 1)
        # Connect and PING one peer at a time until one is not answered:
        # the daemon is out of descriptors and that peer is in the backlog.
        while True:
            assert len(peers) < 64, "the daemon answered more peers than its fd limit allows"
            peer = socket.create_connection((host, int(port)), timeout=5)
            peers.append(peer)
            peer.sendall(b"PING\n")
            peer.settimeout(1.0)
            try:
                assert peer.recv(16) == b"OK\n"
            except socket.timeout:
                break
        waiting = peers.pop()
        before = _cpu_seconds(proc.pid)
        waiting.settimeout(2.0)
        with pytest.raises(socket.timeout):
            waiting.recv(16)
        assert _cpu_seconds(proc.pid) - before < 0.3
        peers[0].sendall(b"PING\n")
        assert peers[0].recv(16) == b"OK\n"
        peers.pop().close()
        assert waiting.recv(16) == b"OK\n"
        peers.append(waiting)
    finally:
        for peer in peers:
            peer.close()
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


#: Interpreter flags under which a leaked socket or file fails the daemon.
_DEV_MODE = ("-X", "dev", "-W", "error::ResourceWarning")


def _context_switches(pid):
    """Voluntary plus non-voluntary context switches, from /proc/<pid>/status."""
    with open(f"/proc/{pid}/status") as fh:
        return sum(int(value) for name, _, value in (line.partition(":") for line in fh)
                   if name.endswith("ctxt_switches"))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/<pid>/status")
def test_idle_daemon_does_not_wake_up(tmp_path):
    # A daemon that polled for shutdown() would switch out on every poll.
    with _daemon_process(tmp_path, python_flags=_DEV_MODE) as (proc, _):
        time.sleep(0.2)  # let it reach select()
        before = _context_switches(proc.pid)
        time.sleep(2)
        assert _context_switches(proc.pid) - before <= 2


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_signal_ends_idle_daemon_cleanly(tmp_path, signum):
    # The handler runs on the main thread while select() waits with no
    # timeout; select() is then retried, so the handler must wake it.
    with _daemon_process(tmp_path, python_flags=_DEV_MODE, stderr=subprocess.PIPE) as (proc, _):
        proc.send_signal(signum)
        assert proc.wait(timeout=5) == 0
        err = proc.stderr.read()
    assert "Warning" not in err and "Traceback" not in err, err


def test_reverse_mode_at_a_closed_port_stops_promptly(daemon_config):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with daemon_in_thread(daemon_config(mode=ConnectionMode.REVERSE_CONNECT, port=port)):
        time.sleep(0.3)  # dials are refused; the daemon waits to dial again
        stopping = time.monotonic()
    # daemon_in_thread waits up to 5 s for the serving thread to end.
    assert time.monotonic() - stopping < 1.0


def test_reverse_mode_backs_off_while_dials_are_refused(daemon_config, monkeypatch):
    # At a fixed 50 ms pause this would be about 30 dials.
    dials = []

    def counted(*args, **kwargs):
        dials.append(time.monotonic())
        return connect(*args, **kwargs)

    monkeypatch.setattr(daemon_module, "connect", counted)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with daemon_in_thread(daemon_config(mode=ConnectionMode.REVERSE_CONNECT, port=port)):
        time.sleep(1.5)
        refused = dials[:]
        with Listener("127.0.0.1", port) as listener:
            conn = listener.accept(timeout=5)
        conn.close()  # the peer hangs up and no longer listens
        time.sleep(0.3)
    assert 3 <= len(refused) <= 7, refused
    pauses = [b - a for a, b in zip(refused, refused[1:])]
    assert pauses[-1] > 2 * pauses[0], pauses
    # The connection reset the pause: the redials come 50 ms apart again.
    assert len(dials) - len(refused) >= 3, dials


def test_shutdown_after_close_does_not_raise(daemon_config):
    daemon = Daemon(daemon_config())
    daemon.close()
    daemon.shutdown()


def test_reenc_keys_never_leave_daemon(daemon_config, caplog):
    k1, k2 = crypto.generate_key(), crypto.generate_key()
    with caplog.at_level(logging.DEBUG):
        with daemon_in_thread(daemon_config()) as daemon:
            with _dial(daemon) as conn:
                outbound = []
                for frame in (
                    WireFrame("SAVE", (b"key-1", k1)),
                    WireFrame("SAVE", (b"key-2", k2)),
                ):
                    conn.send(frame_serialize(frame))
                    outbound.append(conn.receive_frame())
                for _ in range(20):
                    envelope = crypto.encrypt(k1, b"batch;batch;batch;")
                    frame = WireFrame("REENC", (b"key-1", b"key-2", envelope.to_bytes()))
                    conn.send(frame_serialize(frame))
                    outbound.append(conn.receive_frame())
    for raw in outbound:
        assert k1 not in raw and k2 not in raw
        for field in frame_parse(raw).fields:
            assert k1 not in field and k2 not in field
    log_text = "\n".join(r.getMessage() for r in caplog.records)
    for key in (k1, k2):
        assert key.hex() not in log_text
        assert repr(key) not in log_text


def _fuzz_corpus(rng, count, oversize):
    corpus = []
    generators = [
        lambda: rng.randbytes(rng.randint(0, 60)).replace(b"\n", b"?") + b"\n",
        lambda: b"SAVE|%s\n" % rng.randbytes(8).replace(b"\n", b"!").replace(b"|", b"!"),
        lambda: b"QUERY\n",
        lambda: b"REENC|Zg==\n",
        lambda: b"PING|Zg==\n",
        lambda: b"FOO|Zg==\n",
        lambda: b"ping\n",
        lambda: b"|\n",
        lambda: b"\n",
        lambda: b"A" * rng.randint(33, 64) + b"\n",
        lambda: bytes(rng.randrange(128, 256) for _ in range(12)) + b"\n",
        lambda: b"QUERY|Zg=\n",
        lambda: b"QUERY|Zh==\n",
        lambda: b"SAVE|Zg==|Zg==|Zg==\n",
    ]
    for i in range(count):
        if i % 97 == 13:
            corpus.append(b"x" * oversize)  # no terminator: transport-level kill
        else:
            corpus.append(rng.choice(generators)())
    return corpus


def run_fuzz(daemon, corpus):
    """Returns (err_responses, closes); raises on hang or daemon death."""
    errs = closes = 0
    conn = _dial(daemon)
    conn._sock.settimeout(10.0)
    for blob in corpus:
        try:
            conn.send(blob)
            raw = conn.receive_frame()
        except PeerClosedError:
            closes += 1
            conn = _dial(daemon)
            conn._sock.settimeout(10.0)
            continue
        response = frame_parse(raw)
        assert response.op == OP_ERR, f"unexpected success for {blob!r}"
        errs += 1
    conn.close()
    return errs, closes


def test_cli_flags_fall_back_to_environment(monkeypatch):
    from kevlar.daemon import build_parser

    monkeypatch.setenv("KEVLAR_POLICY", "fifo")
    monkeypatch.setenv("KEVLAR_CAPACITY", "7")
    monkeypatch.setenv("KEVLAR_ENDPOINT", "10.0.0.1:9100")
    args = build_parser().parse_args([])
    assert args.policy == "fifo"
    assert args.capacity == 7
    assert args.endpoint == "10.0.0.1:9100"
    args = build_parser().parse_args(["--capacity", "9"])
    assert args.capacity == 9  # explicit flag wins over the environment


def test_readme_lists_every_environment_fallback(monkeypatch):
    # Each daemon flag but --help and --verbose falls back to KEVLAR_<FLAG>,
    # and the README lists exactly those names.
    from kevlar.daemon import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = set(re.findall(r"KEVLAR_[A-Z_]+", readme))
    dests = {a.dest for a in build_parser()._actions} - {"help", "verbose"}
    for dest in dests:
        monkeypatch.setenv(f"KEVLAR_{dest.upper()}", "from-env")
    parser = build_parser()
    assert {d for d in dests if parser.get_default(d) == "from-env"} == dests
    assert listed == {f"KEVLAR_{d.upper()}" for d in dests}


def test_fuzzed_frames_never_kill_daemon(daemon_config):
    with daemon_in_thread(daemon_config()) as daemon:
        corpus = _fuzz_corpus(random.Random(5), 800, oversize=MAX_FRAME + 1)
        errs, closes = run_fuzz(daemon, corpus)
        assert errs + closes == len(corpus)
        assert closes >= 1
        with _dial(daemon) as conn:
            conn.send(b"PING\n")
            assert conn.receive_frame() == b"OK\n"


# --- one serving thread: isolation between peers and bounded resources ---


#: The daemon's reply to each QUERY of _stalled_peer: 4004 bytes.
_BIG_REPLY = frame_serialize(WireFrame(OP_OK, (b"v" * 3000,)))


@contextlib.contextmanager
def _stalled_peer(daemon, queries=100_000):
    """A peer that pipelines QUERYs (1.1 MB by default) and reads none of the replies.

    Yields its socket; each reply is _BIG_REPLY.
    """
    with _dial(daemon) as conn:
        assert exchange(conn, WireFrame("SAVE", (b"big", b"v" * 3000))).op == OP_OK
    flood = frame_serialize(WireFrame("QUERY", (b"big",))) * queries
    sock = socket.socket()
    # A small fixed receive window makes the daemon's replies back up quickly.
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 16384)
    sock.connect(daemon.address)

    def send_flood():
        with contextlib.suppress(OSError):
            sock.sendall(flood)

    thread = threading.Thread(target=send_flood, daemon=True)
    thread.start()
    try:
        yield sock
    finally:
        sock.shutdown(socket.SHUT_RDWR)  # wakes a sendall blocked on a full window
        thread.join(timeout=5)
        sock.close()
    assert not thread.is_alive()


def test_stalled_peer_does_not_block_others(daemon_config):
    with daemon_in_thread(daemon_config()) as daemon:
        with _stalled_peer(daemon):
            time.sleep(0.5)  # let the unread replies fill the socket buffers
            with _dial(daemon, io_timeout=3.0) as conn:
                started = time.monotonic()
                conn.send(b"PING\n")
                assert conn.receive_frame() == b"OK\n"
                assert time.monotonic() - started < 1.0


def _wait_until_stalled(daemon):
    """Wait until the daemon stops handling some peer.

    That is, a connection has a whole line buffered and its buffered
    input stays the same for 0.1 s.
    """
    deadline = time.monotonic() + 5
    while True:
        before = {c: bytes(c._buf) for c in list(daemon._conns) if c.frame_ready}
        time.sleep(0.1)
        if any(c._buf == buf for c, buf in before.items()):
            return
        assert time.monotonic() < deadline, "the daemon never stopped handling the peer"


def test_stalled_peer_output_stays_bounded(daemon_config):
    with daemon_in_thread(daemon_config()) as daemon:
        with _stalled_peer(daemon):
            _wait_until_stalled(daemon)
            # The peer is not read while a line is buffered or a reply unsent: at
            # most one reply and, as its lines are short, one 64 KiB read are held.
            for _ in range(20):
                assert max(c.pending for c in list(daemon._conns)) <= len(_BIG_REPLY)
                assert max(len(c._buf) for c in list(daemon._conns)) < 2 * 65536
                time.sleep(0.01)


def test_stalled_peer_is_served_again_once_it_reads(daemon_config):
    # 3000 replies are 12 MB: far more than the socket buffers hold.
    with daemon_in_thread(daemon_config()) as daemon:
        with _stalled_peer(daemon, queries=3000) as sock:
            _wait_until_stalled(daemon)
            sock.settimeout(10)
            expected = _BIG_REPLY * 3000
            received = bytearray()
            while len(received) < len(expected):
                chunk = sock.recv(1 << 20)
                assert chunk, "the daemon hung up"
                received += chunk
            assert received == expected


#: A second process: it sends bursts of 2000 pipelined PINGs, each before
#: the replies to the one before are read, so the daemon always has a burst
#: to serve.  It checks that each burst gets 2000 OKs, prints "flooding"
#: after the first, and goes on for argv[3] seconds more.
_FLOODER = """
import socket, sys, time
host, port, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
burst = b"PING\\n" * 2000

def read_replies():
    replies = bytearray()
    while len(replies) < 3 * 2000:
        chunk = sock.recv(3 * 2000 - len(replies))
        if not chunk:
            sys.exit("the daemon hung up")
        replies += chunk
    if replies != b"OK\\n" * 2000:
        sys.exit("a burst got wrong replies")

with socket.create_connection((host, port), timeout=10) as sock:
    sock.sendall(burst)
    end = None
    while end is None or time.monotonic() < end:
        sock.sendall(burst)
        read_replies()
        if end is None:
            print("flooding", flush=True)
            end = time.monotonic() + seconds
    read_replies()
"""


def test_pipelining_peer_does_not_starve_others(tmp_path):
    with _spawned_daemon(tmp_path, "--capacity", "1") as (host, port):
        # The flooder's own socket timeout bounds the wait when this block exits.
        with subprocess.Popen([sys.executable, "-c", _FLOODER, host, str(port), "1.5"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as flooder:
            assert flooder.stdout.readline() == "flooding\n"
            latencies = []
            with socket.create_connection((host, port), timeout=5) as sock:
                end = time.monotonic() + 1.0
                while time.monotonic() < end:
                    started = time.perf_counter()
                    sock.sendall(b"PING\n")
                    assert sock.recv(16) == b"OK\n"
                    latencies.append(time.perf_counter() - started)
            _, err = flooder.communicate(timeout=15)
    assert flooder.returncode == 0, err
    assert statistics.median(latencies) < 0.005


def test_thread_count_does_not_grow_with_connections(live_daemon):
    conns = [_dial(live_daemon)]
    try:
        assert exchange(conns[0], WireFrame("PING")).op == OP_OK
        threads_with_one = set(threading.enumerate())
        for _ in range(19):
            conn = _dial(live_daemon)
            conns.append(conn)
            assert exchange(conn, WireFrame("PING")).op == OP_OK
        assert set(threading.enumerate()) - threads_with_one == set()
    finally:
        for conn in conns:
            conn.close()


def test_unexpected_exception_answers_store_fail_and_keeps_serving(live_daemon, monkeypatch,
                                                                   caplog):
    real_query = Cache.query
    raised = []

    def query_failing_once(self, key_id):
        if not raised:
            raised.append(key_id)
            raise RuntimeError(f"injected failure for {key_id!r}")
        return real_query(self, key_id)

    monkeypatch.setattr(Cache, "query", query_failing_once)
    with caplog.at_level(logging.DEBUG, logger="kevlar.daemon"):
        with _dial(live_daemon, io_timeout=5.0) as conn:
            assert exchange(conn, WireFrame("SAVE", (b"secret-id", b"secret-value"))).op == OP_OK
            response = exchange(conn, WireFrame("QUERY", (b"secret-id",)))
            assert _err_code(response) == "STORE_FAIL"
            assert exchange(conn, WireFrame("PING")).op == OP_OK
            got = exchange(conn, WireFrame("QUERY", (b"secret-id",)))
            assert got == WireFrame(OP_OK, (b"secret-value",))
        with _dial(live_daemon, io_timeout=5.0) as conn:
            assert exchange(conn, WireFrame("PING")).op == OP_OK
    assert raised == [b"secret-id"]
    errors = [r for r in caplog.records if r.levelno == logging.ERROR]
    assert len(errors) == 1 and "RuntimeError" in errors[0].getMessage()
    log_text = "\n".join(r.getMessage() for r in caplog.records)
    assert "secret-id" not in log_text and "secret-value" not in log_text


def test_log_lines_quote_no_request_bytes(live_daemon, caplog):
    # With no "|" after its op, the id's base64 becomes part of the op
    # ("a2V5LTE=" is b"key-1"); "QUERYQUFB" is a legal but unknown op
    # ("QUFB" is b"AAA").  The ERR detail goes back to the peer that sent it.
    replies = {
        b"SAVEa2V5LTE=|dmFs\n": "illegal op tag: b'SAVEa2V5LTE='",
        b"QUERYQUFB\n": "unknown op QUERYQUFB",
    }
    with caplog.at_level(logging.DEBUG, logger="kevlar.daemon"):
        with _dial(live_daemon) as conn:
            assert exchange(conn, WireFrame("PING")).op == OP_OK  # after "serving ..."
            for line, detail in replies.items():
                logged = len(caplog.records)
                conn.send(line)
                response = frame_parse(conn.receive_frame())
                assert _err_code(response) == "BAD_REQUEST"
                assert _err_detail(response) == detail
                new = [(r.name, r.levelno) for r in caplog.records[logged:]]
                assert new == [("kevlar.daemon", logging.DEBUG)]
    for record in caplog.records:
        for secret in ("a2V5LTE=", "key-1", "QUFB"):
            assert secret not in record.getMessage()


_PERFBENCH_HOOKS = [
    (daemon_module, "frame_parse"), (daemon_module, "dispatch"),
    (daemon_module, "frame_serialize"), (crypto, "reencrypt"),
    (Cache, "query"), (Cache, "save_object"),
    (SecureStore, "read_ss"), (SecureStore, "write_ss"),
    (Connection, "receive_frame"), (Connection, "send"),
]
_EVERY_REQUEST = {"receive_frame": 1, "frame_parse": 1, "frame_serialize": 1, "send": 1}


def _line(op, *fields):
    return frame_serialize(WireFrame(op, fields))


@pytest.mark.parametrize("label, capacity, make_line, reply, calls", [
    ("PING", 2, lambda k1: b"PING\n", b"OK\n", {"dispatch": 1}),
    ("SAVE", 2, lambda k1: _line("SAVE", b"k3", b"v"), b"OK\n",
     {"dispatch": 1, "save_object": 1, "write_ss": 1}),
    ("QUERY hit", 2, lambda k1: _line("QUERY", b"k2"), b"OK|", {"dispatch": 1, "query": 1}),
    ("QUERY miss", 1, lambda k1: _line("QUERY", b"k1"), b"OK|",
     {"dispatch": 1, "query": 1, "read_ss": 1}),
    ("REENC", 2, lambda k1: _line("REENC", b"k1", b"k2", crypto.encrypt(k1, b"x").to_bytes()),
     b"OK|", {"dispatch": 1, "query": 2, "reencrypt": 1}),
    ("malformed line", 2, lambda k1: b"SAVEa2V5LTE=|dmFs\n", b"ERR|", {}),
])
def test_perfbench_hooks_count_every_op(daemon_config, monkeypatch, label, capacity, make_line,
                                        reply, calls):
    # perfbench's tracer wraps these attributes and matches the line that
    # receive_frame returned to frame_parse's argument by id().
    k1, k2 = crypto.generate_key(), crypto.generate_key()
    line = make_line(k1)
    with daemon_in_thread(daemon_config(capacity=capacity)) as daemon, \
            socket.create_connection(daemon.address, timeout=5) as sock, \
            sock.makefile("rb") as replies:
        for key_id, key in ((b"k1", k1), (b"k2", k2)):
            sock.sendall(frame_serialize(WireFrame("SAVE", (key_id, key))))
            assert replies.readline() == b"OK\n"

        counts = dict.fromkeys((name for _, name in _PERFBENCH_HOOKS), 0)
        returned, parsed = [], []
        for owner, name in _PERFBENCH_HOOKS:
            def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
                counts[_name] += 1
                if _name == "frame_parse":
                    parsed.append(args[0])
                result = _fn(*args, **kwargs)
                if _name == "receive_frame":
                    returned.append(result)
                return result

            monkeypatch.setattr(owner, name, counted)
        sock.sendall(line)
        assert replies.readline().startswith(reply), label
    assert counts == dict.fromkeys(counts, 0) | _EVERY_REQUEST | calls
    assert len(returned) == len(parsed) == 1 and parsed[0] is returned[0]
