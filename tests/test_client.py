import socket
import subprocess
import sys
import threading
import time

import pytest

from kevlar import crypto
from kevlar.client import (
    EXIT_CONNECT,
    EXIT_ERROR,
    EXIT_NOT_FOUND,
    EXIT_OK,
    main,
)
from kevlar.daemon import daemon_in_thread


def _client(daemon, *argv):
    host, port = daemon.address
    return main(["--endpoint", f"{host}:{port}", "--mode", "connect", "--timeout", "5", *argv])


def test_ping(live_daemon, capsys):
    assert _client(live_daemon, "ping") == EXIT_OK
    assert capsys.readouterr().out == ""


def test_save_then_query_prints_hex(live_daemon, capsys):
    key_id = bytes.fromhex("636c69656e74303030303031")  # b"client000001"
    assert key_id == b"client000001"
    value = bytes(range(32))
    assert _client(live_daemon, "serve-and-save", "--id", key_id.hex(),
                   "--value", value.hex()) == EXIT_OK
    capsys.readouterr()
    assert _client(live_daemon, "query", "--id", key_id.hex()) == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert len(out) == 64
    assert bytes.fromhex(out) == value


def test_query_missing_id_exit_code(live_daemon, capsys):
    assert _client(live_daemon, "query", "--id", b"ghost".hex()) == EXIT_NOT_FOUND
    assert "NOT_FOUND" in capsys.readouterr().err


def test_reenc_roundtrip(live_daemon, capsys):
    k1, k2 = crypto.generate_key(), crypto.generate_key()
    _client(live_daemon, "serve-and-save", "--id", b"k1".hex(), "--value", k1.hex())
    _client(live_daemon, "serve-and-save", "--id", b"k2".hex(), "--value", k2.hex())
    capsys.readouterr()
    envelope = crypto.encrypt(k1, b"secret batch")
    assert _client(live_daemon, "reenc", "--src-id", b"k1".hex(), "--dst-id", b"k2".hex(),
                   "--cipher", envelope.to_bytes().hex()) == EXIT_OK
    out = capsys.readouterr().out.strip()
    rotated = crypto.CipherEnvelope.from_bytes(bytes.fromhex(out))
    assert crypto.decrypt(k2, rotated) == b"secret batch"


def test_reenc_crypto_fail_exit_code(live_daemon, capsys):
    _client(live_daemon, "serve-and-save", "--id", b"bad".hex(), "--value", b"tiny".hex())
    _client(live_daemon, "serve-and-save", "--id", b"ok".hex(),
            "--value", crypto.generate_key().hex())
    capsys.readouterr()
    envelope = crypto.encrypt(crypto.generate_key(), b"m")
    assert _client(live_daemon, "reenc", "--src-id", b"bad".hex(), "--dst-id", b"ok".hex(),
                   "--cipher", envelope.to_bytes().hex()) == EXIT_ERROR


def test_bad_hex_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["query", "--id", "zz-not-hex"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("mode", ["listen", "connect"])
def test_out_of_range_port_is_usage_error(mode, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--endpoint", "127.0.0.1:70000", "--mode", mode, "--timeout", "1", "ping"])
    assert excinfo.value.code == 2
    assert "port out of range" in capsys.readouterr().err


@pytest.mark.parametrize("seconds", ["-1", "nan", "inf", "0"])
def test_timeout_must_be_positive_and_finite(seconds, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--mode", "connect", "--timeout", seconds, "ping"])
    assert excinfo.value.code == 2
    assert "--timeout" in capsys.readouterr().err


def test_unexpected_response_op_is_an_error(capsys):
    with socket.create_server(("127.0.0.1", 0)) as server:
        port = server.getsockname()[1]

        def reply():
            peer, _ = server.accept()
            with peer:
                peer.recv(64)
                peer.sendall(b"PONG\n")

        peer_thread = threading.Thread(target=reply, daemon=True)
        peer_thread.start()
        status = main(["--endpoint", f"127.0.0.1:{port}", "--mode", "connect",
                       "--timeout", "5", "ping"])
        peer_thread.join(timeout=5)
    assert status == EXIT_ERROR
    assert "kevlar-client: unexpected response PONG" in capsys.readouterr().err


def test_connect_failure_exit_code(capsys):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    status = main(["--endpoint", f"127.0.0.1:{port}", "--mode", "connect",
                   "--timeout", "1", "ping"])
    assert status == EXIT_CONNECT


def test_timeout_bounds_the_exchange_in_connect_mode():
    # The kernel completes the handshake from the backlog; no reply ever comes.
    with socket.create_server(("127.0.0.1", 0)) as server:
        port = server.getsockname()[1]
        proc = subprocess.run(
            [sys.executable, "-m", "kevlar.client", "--endpoint", f"127.0.0.1:{port}",
             "--mode", "connect", "--timeout", "0.5", "ping"],
            capture_output=True, text=True, timeout=10,
        )
    assert proc.returncode == EXIT_ERROR
    assert "exchange failed" in proc.stderr and "timed out" in proc.stderr


def test_timeout_bounds_the_exchange_in_listen_mode(capsys):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    status = []
    client = threading.Thread(target=lambda: status.append(
        main(["--endpoint", f"127.0.0.1:{port}", "--timeout", "2", "ping"])), daemon=True)
    client.start()
    deadline = time.monotonic() + 5
    while True:
        try:
            peer = socket.create_connection(("127.0.0.1", port), timeout=1)
            break
        except ConnectionRefusedError:
            assert time.monotonic() < deadline
            time.sleep(0.01)
    with peer:  # a peer that never replies
        client.join(timeout=10)
    assert status == [EXIT_ERROR]
    err = capsys.readouterr().err
    assert "exchange failed" in err and "timed out" in err


def test_default_listen_mode_with_reverse_daemon(daemon_config, capsys):
    from kevlar.transport import ConnectionMode

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    config = daemon_config(mode=ConnectionMode.REVERSE_CONNECT, port=port)
    with daemon_in_thread(config):
        endpoint = f"127.0.0.1:{port}"
        assert main(["--endpoint", endpoint, "--timeout", "10", "serve-and-save",
                     "--id", b"rid".hex(), "--value", b"rvalue".hex()]) == EXIT_OK
        assert main(["--endpoint", endpoint, "--timeout", "10", "query",
                     "--id", b"rid".hex()]) == EXIT_OK
        assert bytes.fromhex(capsys.readouterr().out.strip()) == b"rvalue"


def test_console_entry_daemon_and_client(tmp_path):
    with subprocess.Popen(
        [sys.executable, "-m", "kevlar.daemon",
         "--mode", "listen", "--endpoint", "127.0.0.1:0",
         "--store-dir", str(tmp_path / "store"), "--keyfile", str(tmp_path / "key")],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    ) as proc:  # on exit: close the pipe and reap the process
        try:
            line = proc.stdout.readline()
            assert "listening on" in line
            endpoint = line.strip().rsplit(" ", 1)[-1]
            assert main(["--endpoint", endpoint, "--mode", "connect", "--timeout", "5",
                         "ping"]) == EXIT_OK
            assert main(["--endpoint", endpoint, "--mode", "connect", "--timeout", "5",
                         "quit"]) == EXIT_OK
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
