"""Workload runners for the micro- and macro-benchmarks.

Each bench returns a list of BenchRecords whose workload content is a
pure function of its seed; only the timings vary between runs.  CSV
emission and summaries live in the CLI.
"""

from __future__ import annotations

import random
import tempfile
import threading
import time
from contextlib import closing
from functools import partial
from pathlib import Path
from time import perf_counter_ns as _now

from .. import crypto
from ..cache import Cache, CacheConfig
from ..client import exchange
from ..daemon import DaemonConfig, daemon_in_thread
from ..errors import TransportError
from ..store import OBJECT_SUFFIX, open_store
from ..transport import ConnectionMode, Endpoint, Listener, connect
from ..wire import OP_OK, OP_REENC, OP_SAVE, WireFrame, base64_decode, base64_encode
from .ecg import BATCH_INTERVAL_MS, POINTS_PER_BATCH, encode_batch, generate_stream
from .records import BenchRecord

DEFAULT_BASE64_SIZES = (1024, 102400)
DEFAULT_CRYPTO_SIZES = (128, 1024, 4096)
DEFAULT_TCP_SIZES = (1, 245, 757, 1024)
DEFAULT_REPS = 200
DEFAULT_STORE_KEYS = 200
DEFAULT_STORE_ID_SIZE = 12
DEFAULT_STORE_VALUE_SIZE = 32
SINK_ID = b"sink00000001"

#: Bench-specific CSV columns, appended to the base schema.
EXTRA_COLUMNS: dict[str, tuple[str, ...]] = {
    "base64": ("direction",),
    "crypto": ("direction",),
    "tcp": (),
    "store-insert": ("keys_stored",),
    "cache-query": ("outcome", "resident"),
    "ecg-stream": ("clients", "batches", "points", "verified", "seconds_per_stream_second"),
}


class BenchError(RuntimeError):
    """A bench could not run or failed its own verification."""


def make_key_id(index: int, id_size: int = DEFAULT_STORE_ID_SIZE) -> bytes:
    """Deterministic id of exactly id_size bytes for key number `index`."""
    digits = str(index)
    if id_size > len(digits) + 6:
        text = "client" + digits.zfill(id_size - 6)
    else:
        text = digits.zfill(id_size)
    if len(text) != id_size:
        raise ValueError(f"id_size {id_size} cannot hold index {index}")
    return text.encode("ascii")


def _round_trip(bench_id: str, sizes, reps: int, rng: random.Random,
                steps) -> list[BenchRecord]:
    """Per rep, draw a payload and time each (direction, step) on the last one's output."""
    if not sizes:
        raise ValueError("sizes must be nonempty")
    records = []
    for size in sizes:
        for rep in range(reps):
            value = rng.randbytes(size)
            for direction, step in steps:
                t0 = _now()
                value = step(value)
                t1 = _now()
                records.append(BenchRecord(bench_id, size, rep, max(t1 - t0, 1),
                                           {"direction": direction}))
    return records


def bench_base64(sizes=DEFAULT_BASE64_SIZES, reps: int = DEFAULT_REPS,
                 seed: int = 0) -> list[BenchRecord]:
    """Encode and decode random payloads; one record per direction per rep."""
    return _round_trip("base64", sizes, reps, random.Random(seed),
                       (("encode", base64_encode), ("decode", base64_decode)))


def bench_crypto(sizes=DEFAULT_CRYPTO_SIZES, reps: int = DEFAULT_REPS,
                 seed: int = 0) -> list[BenchRecord]:
    """Encrypt and decrypt random payloads; decrypt reuses this run's ciphers."""
    rng = random.Random(seed)
    key = rng.randbytes(crypto.KEY_SIZE)
    return _round_trip("crypto", sizes, reps, rng,
                       (("encrypt", partial(crypto.encrypt, key)),
                        ("decrypt", partial(crypto.decrypt, key))))


def bench_tcp(sizes=DEFAULT_TCP_SIZES, reps: int = DEFAULT_REPS,
              seed: int = 0) -> list[BenchRecord]:
    """Incoming throughput of the byte channel, measured at the receiver.

    A sender peer dials one loopback connection to a sink.  For each
    message the sink sends a one-byte request and times until the whole
    message has arrived, so every sample is one message crossing the
    channel, never a copy out of bytes that queued up behind an earlier
    one.  Each rep sends one message of every size in turn, so a change
    in host speed during the run touches every size alike.
    """
    rng = random.Random(seed)
    payloads = [rng.randbytes(size) for size in sizes]
    by_size: list[list[BenchRecord]] = [[] for _ in sizes]
    with Listener("127.0.0.1", 0) as listener:
        failure: list[BaseException] = []

        def send_all() -> None:
            try:
                with connect(listener.host, listener.port, timeout=5.0) as conn:
                    for _ in range(reps):
                        for payload in payloads:
                            conn.receive_exact(1)
                            conn.send(payload)
            except BaseException as exc:
                failure.append(exc)

        sender = threading.Thread(target=send_all, daemon=True)
        sender.start()
        try:
            with listener.accept(timeout=5.0) as conn:
                for rep in range(reps):
                    for size, records in zip(sizes, by_size):
                        t0 = _now()
                        conn.send(b"!")
                        conn.receive_exact(size)
                        t1 = _now()
                        records.append(BenchRecord("tcp", size, rep, max(t1 - t0, 1)))
        except Exception as exc:
            raise BenchError(f"tcp bench aborted: {exc}") from exc
        finally:
            sender.join(timeout=5)
        if failure:
            raise BenchError(f"tcp sender failed: {failure[0]}") from failure[0]
    return [record for records in by_size for record in records]


def bench_store_insert(store_dir: str | Path, keyfile: str | Path,
                       n_keys: int = DEFAULT_STORE_KEYS,
                       id_size: int = DEFAULT_STORE_ID_SIZE,
                       value_size: int = DEFAULT_STORE_VALUE_SIZE,
                       seed: int = 0) -> list[BenchRecord]:
    """Sequentially fill a fresh store; one record per insertion."""
    root = Path(store_dir)
    if root.exists() and any(root.glob(f"*{OBJECT_SUFFIX}")):
        raise BenchError(f"store directory {root} already holds objects; use a fresh one")
    rng = random.Random(seed)
    records = []
    with closing(open_store(root, keyfile)) as store:
        for i in range(1, n_keys + 1):
            key_id = make_key_id(i, id_size)
            value = rng.randbytes(value_size)
            t0 = _now()
            store.write_ss(key_id, value)
            t1 = _now()
            records.append(BenchRecord("store-insert", value_size, i - 1, max(t1 - t0, 1),
                                       {"keys_stored": str(i)}))
    return records


def bench_cache_query(store_dir: str | Path, keyfile: str | Path,
                      n_keys: int = DEFAULT_STORE_KEYS, capacity: int = 50,
                      n_queries: int = 10000, seed: int = 0,
                      id_size: int = DEFAULT_STORE_ID_SIZE) -> list[BenchRecord]:
    """Uniform random queries through an LRU cache over a pre-filled store.

    Each query is tagged hit or miss.  capacity < n_keys forces a mix;
    with uniform access the steady-state hit fraction is capacity / n_keys.
    The "resident" column holds the residency seen at query time, so
    steady-state rows are exactly those issued against a full cache.
    """
    ids = [make_key_id(i, id_size) for i in range(1, n_keys + 1)]
    records = []
    with closing(open_store(store_dir, keyfile)) as store:
        try:
            store.read_ss(ids[0])
            store.read_ss(ids[-1])
        except Exception as exc:
            raise BenchError(
                f"store at {store_dir} is not pre-filled with {n_keys} keys "
                f"(run store-insert first): {exc}"
            ) from exc
        config = CacheConfig(capacity=capacity, id_size=id_size, value_size=65536)
        cache = Cache(config, store)
        rng = random.Random(seed)
        for q in range(n_queries):
            key_id = ids[rng.randrange(n_keys)]
            hits_before = cache.stats.hits
            resident_before = len(cache)
            t0 = _now()
            value = cache.query(key_id)
            t1 = _now()
            outcome = "hit" if cache.stats.hits > hits_before else "miss"
            records.append(BenchRecord("cache-query", len(value), q, max(t1 - t0, 1),
                                       {"outcome": outcome, "resident": str(resident_before)}))
    return records


def steady_state_hit_fraction(records: list[BenchRecord], capacity: int) -> float:
    """Hit fraction over the queries issued once the cache is full.

    Full means capacity entries, or every key when there are fewer keys
    than capacity.
    """
    if not records:
        return 0.0
    full = min(capacity, max(int(r.extra["resident"]) for r in records))
    steady = [r for r in records if int(r.extra["resident"]) >= full]
    return sum(r.extra["outcome"] == "hit" for r in steady) / len(steady)


def _save_key(conn, key_id: bytes, key: bytes) -> None:
    response = exchange(conn, WireFrame(OP_SAVE, (key_id, key)))
    if response.op != OP_OK:
        raise BenchError(f"SAVE of {key_id!r} failed: {response.fields!r}")


def bench_ecg_stream(n_clients: int = 1, stream_seconds: float = 60.0, seed: int = 0,
                     paced: bool = False,
                     endpoint: tuple[str, int] | None = None) -> list[BenchRecord]:
    """End-to-end macro run: ECG batches re-encrypted client key -> sink key.

    Every returned cipher must decrypt under the sink key to the
    original batch; any mismatch fails the bench.  Batches are submitted
    back to back unless paced, which replays the real 93.4 ms cadence.
    One record per client.
    """
    if n_clients < 0:
        raise ValueError("n_clients must be >= 0")
    if not 0 < stream_seconds < float("inf"):
        raise ValueError(f"stream_seconds must be positive and finite, got {stream_seconds}")
    if n_clients == 0:
        return []
    if endpoint is not None:
        return _run_ecg(endpoint[0], endpoint[1], n_clients, stream_seconds, seed, paced)
    with tempfile.TemporaryDirectory(prefix="kevlar-ecg-") as tmp:
        config = DaemonConfig(
            endpoint=Endpoint("127.0.0.1", 0, ConnectionMode.LISTEN),
            store_dir=Path(tmp) / "store",
            keyfile=Path(tmp) / "sealing.key",
            cache=CacheConfig(capacity=max(4, 2 * n_clients), id_size=32, value_size=64),
        )
        with daemon_in_thread(config) as daemon:
            host, port = daemon.address
            return _run_ecg(host, port, n_clients, stream_seconds, seed, paced)


def _run_ecg(host: str, port: int, n_clients: int, stream_seconds: float,
             seed: int, paced: bool) -> list[BenchRecord]:
    rng = random.Random(seed)
    client_ids = [make_key_id(i + 1) for i in range(n_clients)]
    client_keys = [rng.randbytes(crypto.KEY_SIZE) for _ in range(n_clients)]
    sink_key = rng.randbytes(crypto.KEY_SIZE)

    try:
        with connect(host, port, timeout=5.0) as setup:
            _save_key(setup, SINK_ID, sink_key)
            for key_id, key in zip(client_ids, client_keys):
                _save_key(setup, key_id, key)
    except TransportError as exc:
        raise BenchError(f"ecg set-up failed: {exc}") from exc

    streams = [generate_stream(stream_seconds, seed + 1000 + i) for i in range(n_clients)]
    results: list[BenchRecord | None] = [None] * n_clients
    failures: list[BaseException] = []
    barrier = threading.Barrier(n_clients)

    def worker(i: int) -> None:
        try:
            with connect(host, port, timeout=5.0) as conn:
                batches = streams[i]
                verified = 0
                total_bytes = 0
                barrier.wait()
                wall_start = time.perf_counter()
                t0 = _now()
                for b_idx, batch in enumerate(batches):
                    if paced:
                        target = wall_start + b_idx * BATCH_INTERVAL_MS / 1000.0
                        delay = target - time.perf_counter()
                        if delay > 0:
                            time.sleep(delay)
                    plaintext = encode_batch(batch)
                    total_bytes += len(plaintext)
                    envelope = crypto.encrypt(client_keys[i], plaintext)
                    response = exchange(
                        conn, WireFrame(OP_REENC, (client_ids[i], SINK_ID, envelope.to_bytes()))
                    )
                    if response.op != OP_OK:
                        raise BenchError(f"REENC failed for client {i}: {response.fields!r}")
                    rotated = crypto.CipherEnvelope.from_bytes(response.fields[0])
                    if crypto.decrypt(sink_key, rotated) != plaintext:
                        raise BenchError(f"client {i}: returned cipher failed verification")
                    verified += 1
                duration = max(_now() - t0, 1)
                results[i] = BenchRecord(
                    "ecg-stream", total_bytes, i, duration,
                    {
                        "clients": str(n_clients),
                        "batches": str(len(batches)),
                        "points": str(len(batches) * POINTS_PER_BATCH),
                        "verified": str(verified),
                        "seconds_per_stream_second": f"{duration / 1e9 / stream_seconds:.6f}",
                    },
                )
        except BaseException as exc:
            failures.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise BenchError(f"ecg bench failed: {failures[0]}") from failures[0]
    return [r for r in results if r is not None]
