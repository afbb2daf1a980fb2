"""One daemon under test: store pre-fill, process start, closed-loop traffic, stop."""

from __future__ import annotations

import gc
import os
import selectors
import socket
import subprocess
import sys
import time
from array import array
from pathlib import Path

from kevlar.store import open_store

from inputs import CONNECTIONS, Workload, query_line, value_line

LAUNCHER = Path(__file__).resolve().parent / "launch_daemon.py"
HOST = "127.0.0.1"
#: Longest the generator waits for any reply before declaring the daemon stuck.
IO_TIMEOUT_S = 30.0
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 30.0

clock = time.monotonic_ns


class BenchFailure(RuntimeError):
    """The daemon could not be started, reached or stopped."""


class Leg:
    """What one connection sent and received during one drive() call."""

    def __init__(self, first: int) -> None:
        self.first = first
        self.sent = array("q")
        self.received = array("q")
        self.replies: list[bytes] = []


def drive(socks: list[socket.socket], request, starts: list[int], *,
          count: int | None = None, until_ns: int | None = None) -> list[Leg]:
    """Closed loop over every socket from one thread.

    Connection c sends request(c, i) for i = starts[c], starts[c] + 1, ...
    and sends the next only after the reply to the previous one has
    fully arrived.  Each connection stops after `count` replies, or
    sends its last request at `until_ns` and then waits for its reply.
    """
    legs = [Leg(first) for first in starts]
    sel = selectors.DefaultSelector()
    bufs = [bytearray() for _ in socks]
    try:
        for c, sock in enumerate(socks):
            sel.register(sock, selectors.EVENT_READ, c)
            legs[c].sent.append(clock())
            sock.sendall(request(c, starts[c]))
        active = len(socks)
        while active:
            events = sel.select(IO_TIMEOUT_S)
            if not events:
                raise BenchFailure(f"no reply within {IO_TIMEOUT_S:.0f} s")
            for key, _ in events:
                c, sock, buf, leg = key.data, key.fileobj, bufs[key.data], legs[key.data]
                chunk = sock.recv(65536)
                if not chunk:
                    raise BenchFailure("daemon closed a connection")
                buf += chunk
                end = buf.find(b"\n")
                if end < 0:
                    continue
                now = clock()
                leg.received.append(now)
                leg.replies.append(bytes(buf[: end + 1]))
                del buf[: end + 1]
                done = len(leg.replies)
                if (count is not None and done < count) or (until_ns is not None and now < until_ns):
                    leg.sent.append(clock())
                    sock.sendall(request(c, leg.first + done))
                else:
                    sel.unregister(sock)
                    active -= 1
    finally:
        sel.close()
    return legs


class Session:
    """A fresh store, a daemon process serving it, and CONNECTIONS peers."""

    def __init__(self, workload: Workload, workdir: Path, *, spans: Path | None = None) -> None:
        self.workload = workload
        self.workdir = workdir
        self.spans = spans
        self.proc: subprocess.Popen | None = None
        self.socks: list[socket.socket] = []
        #: Replies so far, per connection, in request order from index 0.
        self.replies: list[list[bytes]] = [[] for _ in range(CONNECTIONS)]

    def start(self) -> None:
        """Pre-fill the store, start the daemon and connect (not yet warm)."""
        store_dir, keyfile = self.workdir / "store", self.workdir / "sealing.key"
        store = open_store(store_dir, keyfile)
        try:
            for key_id, value in self.workload.prefill.items():
                store.write_ss(key_id, value)
            # On ext4 with relatime the first read of a file after its write
            # updates atime, which can wait on a journal commit.  Reading
            # every object once here keeps that out of the window, as in a
            # store that has been served from before.
            for key_id in self.workload.prefill:
                store.read_ss(key_id)
        finally:
            store.close()
        argv = [sys.executable, str(LAUNCHER)]
        if self.spans is not None:
            argv += ["--spans", str(self.spans)]
        argv += ["--mode", "listen", "--endpoint", f"{HOST}:0",
                 "--store-dir", str(store_dir), "--keyfile", str(keyfile)]
        src = str(LAUNCHER.parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        with open(self.workdir / "daemon.log", "wb") as log:
            self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log, env=env)
        port = self._announced_port()
        for _ in range(CONNECTIONS):
            sock = socket.create_connection((HOST, port), timeout=START_TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(sock)

    def _announced_port(self) -> int:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(START_TIMEOUT_S):
                raise BenchFailure("daemon did not announce its port")
        line = self.proc.stdout.readline().decode("ascii", "replace").strip()
        if "listening on" not in line:
            raise BenchFailure(f"unexpected daemon output {line!r}; see {self.workdir}/daemon.log")
        return int(line.rsplit(":", 1)[1])

    def run(self, *, count: int | None = None, seconds: float | None = None) -> list[Leg]:
        """Continue every connection's sequence for count requests or seconds."""
        until = None if seconds is None else clock() + int(seconds * 1e9)
        gc.disable()
        try:
            legs = drive(self.socks, self.workload.request,
                         [len(r) for r in self.replies], count=count, until_ns=until)
        finally:
            gc.enable()
        for replies, leg in zip(self.replies, legs):
            replies.extend(leg.replies)
        return legs

    def read_back(self, expected: list[dict[bytes, bytes]]) -> tuple[int, int]:
        """QUERY each key of expected[c] on connection c; returns (attempted, failed)."""
        attempted = failed = 0
        for sock, want in zip(self.socks, expected):
            keys = list(want)
            if not keys:
                continue
            (leg,) = drive([sock], lambda c, i: query_line(keys[i]), [0], count=len(keys))
            attempted += len(keys)
            failed += sum(reply != value_line(want[key]) for key, reply in zip(keys, leg.replies))
        return attempted, failed

    def peak_rss_mib(self) -> float:
        """The daemon's peak resident set size so far (VmHWM)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchFailure("VmHWM missing from /proc status")

    def stop(self) -> None:
        """QUIT the daemon and wait for it; kill it if it does not exit."""
        try:
            if self.socks and self.proc.poll() is None:
                self.socks[0].settimeout(STOP_TIMEOUT_S)
                self.socks[0].sendall(b"QUIT\n")
                self.socks[0].recv(64)
        except OSError:
            pass
        finally:
            for sock in self.socks:
                sock.close()
            self.socks = []
            if self.proc is not None:
                try:
                    self.proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
                self.proc.stdout.close()
