"""Deterministic per-request cost: calls counted on the daemon's serving thread.

Wall-clock numbers drift between runs on a shared host; the work done per
request does not.  A profile hook installed with `threading.setprofile`
before the serving thread starts sees every call that thread makes.  Each
`poll` the loop makes opens a new bucket, so with one request in flight a
bucket is one request: the wait for it, its handling and the loop's
bookkeeping until the next wait.  Per op the test takes the most common
bucket (its mode), not the mean, since a rare extra wake-up of the
selector adds a bucket or a call.

Only calls into kevlar's own code ("py") and C calls made from it ("c")
are counted, so stdlib internals do not make the numbers depend on the
Python version.  The bounds are upper bounds: Python 3.12 and later
inline comprehensions, which removes calls but never adds one.

Run with `-s` to see the table.
"""

from __future__ import annotations

import os
import socket
import threading
from collections import Counter

import kevlar
from kevlar import crypto
from kevlar.daemon import daemon_in_thread
from kevlar.wire import WireFrame, frame_serialize

KEVLAR_DIR = os.path.dirname(kevlar.__file__) + os.sep
#: C functions counted by name wherever they are called: the loop's wait,
#: the socket calls, and the store's file calls.
SYSCALLS = frozenset({"poll", "recv", "send", "open", "fstat", "read", "close",
                      "fsync", "replace", "unlink"})
#: Python functions counted by name when kevlar calls them.
NAMED_CALLS = frozenset({"modify", "mkstemp"})
WARMUP = 10
REQUESTS = 100

#: Most common count per request, at most, of kevlar's Python calls ("py")
#: and the C calls made from kevlar code ("c").
CALLS_AT_MOST = {
    "PING": {"py": 13, "c": 21},
    "QUERY hit": {"py": 16, "c": 27},
    "QUERY miss": {"py": 22, "c": 44},
    "QUERY not found": {"py": 22, "c": 35},
    "SAVE": {"py": 22, "c": 39},
    "REENC": {"py": 29, "c": 48},
    "malformed line": {"py": 13, "c": 25},
}


class _Recorder:
    """Profile hook for one thread: a Counter per `poll` call."""

    def __init__(self) -> None:
        self.buckets: list[Counter] = []
        self._bucket = Counter()  # calls before the first poll are dropped

    def __call__(self, frame, event, arg) -> None:
        if event == "call":
            if frame.f_code.co_filename.startswith(KEVLAR_DIR):
                self._bucket["py"] += 1
            else:
                name = frame.f_code.co_name
                caller = frame.f_back
                if name in NAMED_CALLS and caller is not None \
                        and caller.f_code.co_filename.startswith(KEVLAR_DIR):
                    self._bucket[name] += 1
        elif event == "c_call":
            name = arg.__name__
            if name == "poll":
                self._bucket = Counter()
                self.buckets.append(self._bucket)
            if name in SYSCALLS:
                self._bucket[name] += 1
            if frame.f_code.co_filename.startswith(KEVLAR_DIR):
                self._bucket["c"] += 1


def _line(op, *fields):
    return frame_serialize(WireFrame(op, fields))


def _requests():
    """Lines that save the ids, then per op: (label, lines sent in turn, reply prefix)."""
    k1, k2 = crypto.generate_key(), crypto.generate_key()
    envelope = crypto.encrypt(k1, b"0.00,-0.1200;9.34,1.2000;").to_bytes()
    misses = [b"miss-%d" % i for i in range(3)]  # a cache of 2 misses every one
    setup = [_line("SAVE", b"k1", k1), _line("SAVE", b"k2", k2)]
    setup += [_line("SAVE", key_id, b"v" * 32) for key_id in misses]
    return setup, [
        ("PING", [b"PING\n"], b"OK\n"),
        ("QUERY hit", [_line("QUERY", b"k1")], b"OK|"),
        ("QUERY miss", [_line("QUERY", key_id) for key_id in misses], b"OK|"),
        ("QUERY not found", [_line("QUERY", b"never-saved")], b"ERR|"),
        ("SAVE", [_line("SAVE", b"saved", b"v" * 32)], b"OK\n"),
        ("REENC", [_line("REENC", b"k1", b"k2", envelope)], b"OK|"),
        ("malformed line", [b"SAVEa2V5LTE=|dmFs\n"], b"ERR|"),
    ]


def _mode(buckets):
    """The counts of the most common bucket."""
    shapes = Counter(tuple(sorted(b.items())) for b in buckets)
    return dict(shapes.most_common(1)[0][0])


def measure_costs(config) -> dict[str, dict[str, int]]:
    """Per op, the most common call counts of one closed-loop request."""
    recorder = _Recorder()
    setup, ops = _requests()
    threading.setprofile(recorder)
    try:
        with daemon_in_thread(config) as daemon, \
                socket.create_connection(daemon.address, timeout=5) as sock, \
                sock.makefile("rb") as replies:
            for line in setup:
                sock.sendall(line)
                assert replies.readline() == b"OK\n"
            modes = {}
            for label, lines, reply in ops:
                for i in range(WARMUP + REQUESTS):
                    if i == WARMUP:
                        start = len(recorder.buckets)
                    sock.sendall(lines[i % len(lines)])
                    assert replies.readline().startswith(reply), label
                modes[label] = _mode(recorder.buckets[start:])
    finally:
        threading.setprofile(None)
    return modes


def _table(modes) -> str:
    names = ["py", "c", "poll", "recv", "send", "modify", *sorted(
        (SYSCALLS | NAMED_CALLS) - {"poll", "recv", "send", "modify"})]
    rows = ["| op | " + " | ".join(names) + " |", "|---" * (len(names) + 1) + "|"]
    for label, mode in modes.items():
        rows.append(f"| {label} | " + " | ".join(str(mode.get(n, 0)) for n in names) + " |")
    return "\n".join(rows)


def test_calls_per_request_stay_within_bounds(daemon_config):
    # Two slots hold REENC's two keys, and three ids queried in turn always miss.
    modes = measure_costs(daemon_config(capacity=2))
    print("\n" + _table(modes))
    assert modes.keys() == CALLS_AT_MOST.keys()
    for label, mode in modes.items():
        for kind, bound in CALLS_AT_MOST[label].items():
            assert mode.get(kind, 0) <= bound, (label, kind, mode)
        # A closed-loop request is one wait, one read and one reply, and
        # the connection stays registered for reading throughout.
        shape = {name: mode.get(name, 0) for name in ("poll", "recv", "send", "modify")}
        assert shape == {"poll": 1, "recv": 1, "send": 1, "modify": 0}, (label, mode)
