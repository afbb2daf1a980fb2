"""Per-layer metrics from the traced daemon's spans.

Only requests whose hand-off began inside the measured window count.
Each `_us` metric is a per-call median; a layer the workload never
called in the window reports 0 (and its count metrics show why).
"""

from __future__ import annotations

import statistics
from array import array
from collections import defaultdict
from pathlib import Path

from launch_daemon import SPAN_FIELDS, SPAN_NAMES

_WIDTH = len(SPAN_FIELDS)
_CODE = {name: code for code, name in enumerate(SPAN_NAMES)}
_OWNER_TOP = {_CODE[n] for n in ("wire.parse", "daemon.dispatch", "wire.serialize", "transport.send")}
_CACHE = {_CODE["cache.query"], _CODE["cache.save_object"]}


def load_spans(path: Path) -> list[tuple[int, ...]]:
    raw = array("q")
    raw.frombytes(path.read_bytes())
    values = raw.tolist()
    return [tuple(values[i : i + _WIDTH]) for i in range(0, len(values), _WIDTH)]


def _median_us(durations_ns: list[int]) -> float:
    return statistics.median(durations_ns) / 1e3 if durations_ns else 0.0


def layer_metrics(spans: list[tuple[int, ...]], window_start: int,
                  window_end: int) -> tuple[dict, int, list[int]]:
    """Per-layer metrics over [window_start, window_end) (monotonic ns).

    Returns {name: (value, unit)}, the number of requests in the window,
    and per request the accounted time in ns: its hand-off plus every
    owner-thread top-level span, which together cover each layer's self
    time once.
    """
    handoff = _CODE["daemon.handoff"]
    in_window = {s[1] for s in spans if s[0] == handoff and window_start <= s[4] < window_end}
    # Cumulative evictions before each cache call, in call order.
    evicted_before: dict[int, int] = {}
    previous = 0
    for s in sorted((s for s in spans if s[0] in _CACHE), key=lambda s: s[4]):
        evicted_before[s[2]] = previous
        previous = s[6]

    mine = [s for s in spans if s[1] in in_window and s[0] != _CODE["transport.receive_frame"]]
    child_ns: dict[int, int] = defaultdict(int)
    for s in mine:
        if s[3]:
            child_ns[s[3]] += s[5] - s[4]
    durations: dict[str, list[int]] = defaultdict(list)
    accounted: dict[int, int] = defaultdict(int)
    hits = misses = evictions = queries = 0
    disk_bytes = value_bytes = 0
    for code, request, span, parent, start, end, a, b in mine:
        name, took = SPAN_NAMES[code], end - start
        if code == handoff or code in _OWNER_TOP and not parent:
            accounted[request] += took
        if name == "cache.query":
            queries += 1
            evictions += a - evicted_before[span]
            if child_ns.get(span):
                misses += 1
                name = "cache.miss"
            else:
                hits += 1
                name = "cache.hit"
        elif name == "daemon.dispatch":
            took -= child_ns.get(span, 0)
        elif name.startswith("store."):
            disk_bytes += a
            value_bytes += b
        durations[name].append(took)

    requests = len(in_window)
    busy = sum(s[5] - s[4] for s in mine if s[0] in _OWNER_TOP and not s[3])
    per_op = (lambda n: n / requests) if requests else (lambda n: 0.0)
    return {
        "wire.parse_us": (_median_us(durations["wire.parse"]), "us"),
        "wire.serialize_us": (_median_us(durations["wire.serialize"]), "us"),
        "transport.send_us": (_median_us(durations["transport.send"]), "us"),
        "daemon.handoff_us": (_median_us(durations["daemon.handoff"]), "us"),
        "daemon.dispatch_self_us": (_median_us(durations["daemon.dispatch"]), "us"),
        "daemon.owner_busy_frac": (busy / (window_end - window_start), "fraction"),
        "cache.hit_us": (_median_us(durations["cache.hit"]), "us"),
        "cache.miss_us": (_median_us(durations["cache.miss"]), "us"),
        "cache.save_us": (_median_us(durations["cache.save_object"]), "us"),
        "cache.hit_ratio": (hits / queries if queries else 0.0, "fraction"),
        "cache.evictions_per_query": (evictions / queries if queries else 0.0, "1/query"),
        "store.read_us": (_median_us(durations["store.read_ss"]), "us"),
        "store.write_us": (_median_us(durations["store.write_ss"]), "us"),
        "store.reads_per_op": (per_op(len(durations["store.read_ss"])), "1/request"),
        "store.writes_per_op": (per_op(len(durations["store.write_ss"])), "1/request"),
        "store.bytes_per_user_byte": (disk_bytes / value_bytes if value_bytes else 0.0, "B/B"),
        "crypto.reencrypt_us": (_median_us(durations["crypto.reencrypt"]), "us"),
    }, requests, list(accounted.values())
