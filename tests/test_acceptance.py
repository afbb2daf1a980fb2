"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``) before
asserting, so a full run yields a criterion-by-criterion report.
"""

import random
import statistics
import time

import pytest

import reference_aes as aes_oracle
from equivalence import run_equivalence
from kevlar import crypto
from kevlar.bench.runners import (
    bench_cache_query,
    bench_ecg_stream,
    bench_store_insert,
    bench_tcp,
    make_key_id,
    steady_state_hit_fraction,
)
from kevlar.client import exchange
from kevlar.errors import IntegrityError
from kevlar.store import open_store
from kevlar.transport import connect
from kevlar.wire import (
    MAX_FRAME,
    OP_OK,
    WireFrame,
    base64_decode,
    base64_decode_length,
    base64_encode,
    frame_parse,
    frame_serialize,
)

from test_daemon import _fuzz_corpus, _spawned_daemon, run_fuzz


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status}: {detail}")


def test_criterion_01_cache_model_equivalence():
    started = time.perf_counter()
    rng = random.Random(12345)
    total_ops = 0
    for seed in range(100):  # alternating LRU/FIFO inside the driver
        n_ops = 10_000 if seed >= 97 else rng.randint(200, 1500)
        total_ops += run_equivalence(seed, n_ops=n_ops)
    elapsed = time.perf_counter() - started
    ok = elapsed < 60
    _report(1, "cache model equivalence", ok,
            f"100 seeds, {total_ops} ops identical to reference model in {elapsed:.1f}s")
    assert ok


#: The cache settings of criterion 2's daemon processes.
_CRITERION_02_FLAGS = ("--capacity", "64", "--id-size", "12", "--value-size", "32")


def test_criterion_02_write_through_durability(tmp_path):
    started = time.perf_counter()
    rng = random.Random(2024)
    objects = {make_key_id(i): rng.randbytes(32) for i in range(1, 201)}

    with _spawned_daemon(tmp_path, *_CRITERION_02_FLAGS) as (host, port), connect(host, port, timeout=5) as conn:
        for key_id, value in objects.items():
            response = exchange(conn, WireFrame("SAVE", (key_id, value)))
            assert response.op == OP_OK

    intact = 0
    with _spawned_daemon(tmp_path, *_CRITERION_02_FLAGS) as (host, port), connect(host, port, timeout=5) as conn:
        for key_id, value in objects.items():
            response = exchange(conn, WireFrame("QUERY", (key_id,)))
            if response == WireFrame(OP_OK, (value,)):
                intact += 1

    elapsed = time.perf_counter() - started
    ok = intact == 200 and elapsed < 30
    _report(2, "write-through durability", ok,
            f"{intact}/200 objects byte-identical after unclean kill, {elapsed:.1f}s")
    assert ok


def test_criterion_03_tamper_evidence_exhaustive(tmp_path):
    started = time.perf_counter()
    store = open_store(tmp_path / "store", tmp_path / "sealing.key")
    store.write_ss(b"abc", b"12345678")
    path = store.object_path(b"abc")
    original = path.read_bytes()
    assert len(original) <= 128
    flips = 0
    wrong_values = 0
    for byte_index in range(len(original)):
        for bit in range(8):
            mutated = bytearray(original)
            mutated[byte_index] ^= 1 << bit
            path.write_bytes(bytes(mutated))
            try:
                store.read_ss(b"abc")
                wrong_values += 1
            except IntegrityError:
                flips += 1
    path.write_bytes(original)
    store.close()
    elapsed = time.perf_counter() - started
    ok = wrong_values == 0 and flips == len(original) * 8 and elapsed < 60
    _report(3, "sealed-store tamper evidence", ok,
            f"{flips}/{len(original) * 8} single-bit flips detected, "
            f"0 wrong values, {elapsed:.1f}s")
    assert ok


def test_criterion_04_crypto_laws():
    rng = random.Random(77)
    # 1,000 random roundtrips + re-encryption composition, lengths 0..4096.
    for _ in range(1000):
        k1, k2 = rng.randbytes(32), rng.randbytes(32)
        message = rng.randbytes(rng.randint(0, 4096))
        assert crypto.decrypt(k1, crypto.encrypt(k1, message)) == message
        rotated = crypto.reencrypt(k1, k2, crypto.encrypt(k1, message))
        assert crypto.decrypt(k2, rotated) == message
    # Output-length law, exhaustive for 0..256.
    key = rng.randbytes(32)
    for n in range(257):
        assert len(crypto.encrypt(key, b"b" * n).body) == (n // 16 + 1) * 16
    # Cross-validation against the independent reference, both directions.
    for _ in range(100):
        key = rng.randbytes(32)
        message = rng.randbytes(rng.randint(0, 512))
        envelope = crypto.encrypt(key, message)
        assert aes_oracle.cbc_decrypt(key, envelope.iv, envelope.body) == message
        iv = rng.randbytes(16)
        body = aes_oracle.cbc_encrypt(key, iv, message)
        assert crypto.decrypt(key, crypto.CipherEnvelope(iv, body)) == message
    _report(4, "crypto laws", True,
            "1000 roundtrip+composition cases, exhaustive length law 0..256, "
            "100 cross-validation cases")


@pytest.fixture(scope="module")
def cache_query_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cache-bench")
    bench_store_insert(tmp / "store", tmp / "key", n_keys=200)
    started = time.perf_counter()
    records = bench_cache_query(tmp / "store", tmp / "key", n_keys=200,
                                capacity=50, n_queries=12000, seed=0)
    return records, time.perf_counter() - started


def test_criterion_05_hit_miss_separation(cache_query_run):
    records, elapsed = cache_query_run
    hits = [r.throughput_bytes_per_s for r in records if r.extra["outcome"] == "hit"]
    misses = [r.throughput_bytes_per_s for r in records if r.extra["outcome"] == "miss"]
    ratio = statistics.median(hits) / statistics.median(misses)
    ok = ratio >= 10 and elapsed < 60
    _report(5, "hit/miss separation", ok,
            f"median hit/miss throughput ratio {ratio:.1f}x over "
            f"{len(records)} queries in {elapsed:.1f}s")
    assert ok


def test_criterion_06_hit_fraction_expectation(cache_query_run):
    records, _ = cache_query_run
    fraction = steady_state_hit_fraction(records, capacity=50)
    ok = abs(fraction - 0.25) <= 0.05
    _report(6, "hit-fraction expectation", ok,
            f"steady-state hit fraction {fraction:.4f}, expected 0.25 +/- 0.05")
    assert ok


def test_criterion_07_tcp_throughput_ordering():
    sizes = (1, 245, 757, 1024)
    records = bench_tcp(sizes=sizes, reps=500, seed=3)
    medians = [
        statistics.median(r.throughput_bytes_per_s for r in records if r.size_bytes == s)
        for s in sizes
    ]
    ok = all(a <= b for a, b in zip(medians, medians[1:]))
    detail = ", ".join(f"{s}B={m:,.0f}B/s" for s, m in zip(sizes, medians))
    _report(7, "tcp throughput ordering", ok, detail)
    assert ok


def test_criterion_08_ecg_macro_end_to_end():
    started = time.perf_counter()
    records = bench_ecg_stream(n_clients=1, stream_seconds=60, seed=6)
    elapsed = time.perf_counter() - started
    rec = records[0]
    normalized = float(rec.extra["seconds_per_stream_second"])
    ok = (
        rec.extra["batches"] == "643"
        and rec.extra["verified"] == "643"
        and normalized < 0.5
        and elapsed < 45
    )
    _report(8, "ecg macro end-to-end", ok,
            f"643 batches, {rec.extra['verified']} verified, "
            f"{normalized:.4f} s per stream-second (reference point: 0.064 on a "
            f"Raspberry Pi 3B+), wall {elapsed:.1f}s")
    assert ok


def test_criterion_09_protocol_robustness(daemon_config):
    from kevlar.daemon import daemon_in_thread

    with daemon_in_thread(daemon_config()) as daemon:
        corpus = _fuzz_corpus(random.Random(99), 10_000, oversize=MAX_FRAME + 1)
        errs, closes = run_fuzz(daemon, corpus)
        # still alive and sane
        host, port = daemon.address
        with connect(host, port, timeout=5) as conn:
            conn.send(b"PING\n")
            alive = conn.receive_frame() == b"OK\n"
        # REENC secrecy: stored keys never appear in outbound traffic
        k1, k2 = crypto.generate_key(), crypto.generate_key()
        leaked = False
        with connect(host, port, timeout=5) as conn:
            conn.send(frame_serialize(WireFrame("SAVE", (b"key-1", k1))))
            conn.receive_frame()
            conn.send(frame_serialize(WireFrame("SAVE", (b"key-2", k2))))
            conn.receive_frame()
            for _ in range(200):
                envelope = crypto.encrypt(k1, b"payload;payload;")
                conn.send(frame_serialize(
                    WireFrame("REENC", (b"key-1", b"key-2", envelope.to_bytes()))))
                raw = conn.receive_frame()
                if k1 in raw or k2 in raw:
                    leaked = True
                for field in frame_parse(raw).fields:
                    if k1 in field or k2 in field:
                        leaked = True
    ok = errs + closes == 10_000 and alive and not leaked
    _report(9, "protocol robustness", ok,
            f"{errs} ERR responses + {closes} closes for 10000 malformed frames, "
            f"daemon alive: {alive}, key bytes leaked: {leaked}")
    assert ok


def test_criterion_10_base64_conformance():
    vectors = [
        (b"", ""), (b"f", "Zg=="), (b"fo", "Zm8="), (b"foo", "Zm9v"),
        (b"foob", "Zm9vYg=="), (b"fooba", "Zm9vYmE="), (b"foobar", "Zm9vYmFy"),
    ]
    for raw, encoded in vectors:
        assert base64_encode(raw) == encoded
        assert base64_decode(encoded) == raw
        assert base64_decode_length(encoded) == len(raw)
    rng = random.Random(4648)
    for _ in range(10_000):
        data = rng.randbytes(rng.randint(0, 1000))
        text = base64_encode(data)
        assert base64_decode(text) == data
        assert base64_decode_length(text) == len(data)
    _report(10, "base64 conformance", True,
            "standard vectors, 10000 random roundtrips, decode-length agreement")
