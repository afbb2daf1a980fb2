"""Start kevlar-daemon from source, optionally recording a span per layer call.

    python3 perfbench/launch_daemon.py [--spans FILE] DAEMON-ARGS...

Without --spans this is `kevlar-daemon DAEMON-ARGS`.  With it, the
public callables the daemon uses are wrapped before `kevlar.daemon.main`
runs; spans stay in memory and are written to FILE after the daemon
stops (QUIT).  Nothing in kevlar is edited: the wrappers replace module
and class attributes in this process only.

A span is eight int64s: SPAN_FIELDS.  `request` is assigned when
`Connection.receive_frame` returns a line and follows that line to the
owner thread; `parent` is the enclosing span on the same thread (0 at
top level).  Times are CLOCK_MONOTONIC nanoseconds, comparable with the
load generator's clock on the same host.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

SPAN_FIELDS = ("name", "request", "span", "parent", "start", "end", "a", "b")
#: Span names, indexed by the `name` field.  For cache.* spans `a` is the
#: cache's cumulative eviction count after the call; for store.* spans
#: `a` is the object's size on disk and `b` the value's size.
SPAN_NAMES = (
    "transport.receive_frame",
    "daemon.handoff",
    "wire.parse",
    "daemon.dispatch",
    "wire.serialize",
    "transport.send",
    "cache.query",
    "cache.save_object",
    "store.read_ss",
    "store.write_ss",
    "crypto.reencrypt",
)

clock = time.monotonic_ns


class Tracer:
    """In-memory span recorder for one daemon process."""

    def __init__(self) -> None:
        self.spans = array("q")
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        # id(line) -> (line, request, returned_ns): lines in the hand-off queue.
        self._pending: dict[int, tuple[bytes, int, int]] = {}

    def wrap(self, name: str, fn, note=None):
        """`fn` recording one span per call that returns; note(args, result) -> (a, b)."""
        code = SPAN_NAMES.index(name)
        local, spans, ids = self._local, self.spans, self._ids

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            a, b = note(args, result) if note is not None else (0, 0)
            spans.extend((code, getattr(local, "request", 0), span, parent, start, end, a, b))
            return result

        return traced

    def wrap_receive(self, fn):
        """Connection.receive_frame: starts a request and its hand-off."""
        code = SPAN_NAMES.index("transport.receive_frame")

        def traced(conn, *args, **kwargs):
            start = clock()
            line = fn(conn, *args, **kwargs)
            end = clock()
            request = next(self._requests)
            self._pending[id(line)] = (line, request, end)
            self.spans.extend((code, request, next(self._ids), 0, start, end, 0, 0))
            return line

        return traced

    def wrap_parse(self, fn):
        """frame_parse: ends the hand-off and adopts the line's request."""
        code = SPAN_NAMES.index("daemon.handoff")
        traced_parse = self.wrap("wire.parse", fn)

        def traced(line, *args, **kwargs):
            now = clock()
            entry = self._pending.pop(id(line), None)
            if entry is not None:
                _, request, returned = entry
                self._local.request = request
                self.spans.extend((code, request, next(self._ids), 0, returned, now, 0, 0))
            return traced_parse(line, *args, **kwargs)

        return traced

    def install(self) -> None:
        import kevlar.crypto
        import kevlar.daemon
        from kevlar.cache import Cache
        from kevlar.store import SecureStore
        from kevlar.transport import Connection

        def evictions(args, result):
            return args[0].stats.evictions, 0

        def wrote(args, result):
            store, key_id, value = args
            return os.stat(store.object_path(key_id)).st_size, len(value)

        def read(args, result):
            store, key_id = args
            return os.stat(store.object_path(key_id)).st_size, len(result)

        kevlar.daemon.frame_parse = self.wrap_parse(kevlar.daemon.frame_parse)
        kevlar.daemon.dispatch = self.wrap("daemon.dispatch", kevlar.daemon.dispatch)
        kevlar.daemon.frame_serialize = self.wrap("wire.serialize", kevlar.daemon.frame_serialize)
        kevlar.crypto.reencrypt = self.wrap("crypto.reencrypt", kevlar.crypto.reencrypt)
        Cache.query = self.wrap("cache.query", Cache.query, evictions)
        Cache.save_object = self.wrap("cache.save_object", Cache.save_object, evictions)
        SecureStore.read_ss = self.wrap("store.read_ss", SecureStore.read_ss, read)
        SecureStore.write_ss = self.wrap("store.write_ss", SecureStore.write_ss, wrote)
        Connection.send = self.wrap("transport.send", Connection.send)
        Connection.receive_frame = self.wrap_receive(Connection.receive_frame)

    def dump(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(self.spans.tobytes())
        os.replace(tmp, path)


def main(argv: list[str]) -> int:
    tracer = spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
        tracer = Tracer()
        tracer.install()
    import kevlar.daemon

    status = kevlar.daemon.main(argv)
    if tracer is not None:
        tracer.dump(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
