import re
import time

import pytest

from kevlar.bench.cli import main as bench_main
from kevlar.bench.ecg import batch_count, encode_batch, generate_stream
from kevlar.bench.records import BenchRecord, percentile_summary, read_csv, write_csv
from kevlar.bench.runners import (
    BenchError,
    bench_base64,
    bench_cache_query,
    bench_crypto,
    bench_ecg_stream,
    bench_store_insert,
    bench_tcp,
    make_key_id,
    steady_state_hit_fraction,
)


def _workload_signature(records):
    return [(r.bench_id, r.size_bytes, r.repetition, tuple(sorted(r.extra.items())))
            for r in records]


def test_base64_default_shape():
    records = bench_base64()
    assert len(records) == 2 * 200 * 2  # sizes x reps x directions
    directions = {r.extra["direction"] for r in records}
    assert directions == {"encode", "decode"}


def test_base64_minimal_and_deterministic():
    records = bench_base64(sizes=(16,), reps=1, seed=9)
    assert len(records) == 2
    again = bench_base64(sizes=(16,), reps=1, seed=9)
    assert _workload_signature(records) == _workload_signature(again)


def test_base64_empty_sizes_rejected():
    with pytest.raises(ValueError):
        bench_base64(sizes=())


def test_crypto_shape_and_zero_size():
    records = bench_crypto(sizes=(0, 128), reps=3)
    assert len(records) == 2 * 3 * 2
    assert {r.extra["direction"] for r in records} == {"encrypt", "decrypt"}


def test_tcp_records_per_size():
    records = bench_tcp(sizes=(1, 64), reps=40)
    assert len(records) == 2 * 40
    by_size = {size: [r for r in records if r.size_bytes == size] for size in (1, 64)}
    assert all(len(v) == 40 for v in by_size.values())


def test_tcp_zero_reps_gives_empty_body(tmp_path):
    records = bench_tcp(sizes=(8,), reps=0)
    assert records == []
    out = tmp_path / "empty.csv"
    write_csv(records, (), out)
    assert out.read_text().strip() == ("bench_id,size_bytes,repetition,duration_ns,"
                                       "throughput_bytes_per_s")


def test_store_insert_fills_fresh_directory(tmp_path):
    records = bench_store_insert(tmp_path / "store", tmp_path / "key", n_keys=25)
    assert len(records) == 25
    assert [int(r.extra["keys_stored"]) for r in records] == list(range(1, 26))
    assert all(r.size_bytes == 32 for r in records)


def test_store_insert_single_key(tmp_path):
    assert len(bench_store_insert(tmp_path / "s", tmp_path / "k", n_keys=1)) == 1


def test_store_insert_refuses_non_empty_directory(tmp_path):
    bench_store_insert(tmp_path / "store", tmp_path / "key", n_keys=2)
    with pytest.raises(BenchError):
        bench_store_insert(tmp_path / "store", tmp_path / "key", n_keys=2)


def test_cache_query_requires_prefilled_store(tmp_path):
    with pytest.raises(BenchError):
        bench_cache_query(tmp_path / "store", tmp_path / "key", n_keys=10)


def test_cache_query_hit_fraction_matches_uniform_expectation(tmp_path):
    bench_store_insert(tmp_path / "store", tmp_path / "key", n_keys=40)
    records = bench_cache_query(tmp_path / "store", tmp_path / "key",
                                n_keys=40, capacity=10, n_queries=3000, seed=3)
    assert len(records) == 3000
    assert {r.extra["outcome"] for r in records} == {"hit", "miss"}
    fraction = steady_state_hit_fraction(records, capacity=10)
    assert fraction == pytest.approx(10 / 40, abs=0.07)


def test_cache_query_all_hits_when_capacity_covers_keys(tmp_path):
    bench_store_insert(tmp_path / "store", tmp_path / "key", n_keys=12)
    records = bench_cache_query(tmp_path / "store", tmp_path / "key",
                                n_keys=12, capacity=16, n_queries=600, seed=1)
    fraction = steady_state_hit_fraction(records, capacity=16)
    warm = [r for r in records if int(r.extra["resident"]) >= 12]
    assert warm and all(r.extra["outcome"] == "hit" for r in warm)
    assert fraction == 1.0


def test_csv_roundtrip(tmp_path):
    records = bench_base64(sizes=(16,), reps=2, seed=1)
    path = tmp_path / "out.csv"
    write_csv(records, ("direction",), path)
    parsed = read_csv(path)
    assert _workload_signature(parsed) == _workload_signature(records)
    for original, loaded in zip(records, parsed):
        assert loaded.duration_ns == original.duration_ns
        assert loaded.throughput_bytes_per_s == pytest.approx(
            original.throughput_bytes_per_s
        )


def test_record_requires_positive_duration():
    with pytest.raises(ValueError):
        BenchRecord("x", 1, 0, 0)


def test_percentile_summary():
    summary = percentile_summary(list(range(1, 11)))
    assert summary["min"] == 1
    assert summary["max"] == 10
    assert summary["p50"] == 5.5


# --- ecg ----------------------------------------------------------------


def test_batch_counts():
    assert batch_count(60) == 643
    assert batch_count(0) == 0
    assert batch_count(2) == 22


def test_generate_stream_shape_and_determinism():
    stream = generate_stream(2, seed=7)
    assert len(stream) == 22
    assert all(len(batch) == 10 for batch in stream)
    flat = [p for batch in stream for p in batch]
    times = [p.timestamp_ms for p in flat]
    assert times == sorted(times) and len(set(times)) == len(times)
    assert generate_stream(2, seed=7) == stream
    assert generate_stream(2, seed=8) != stream


def test_encode_batch_format():
    batch = generate_stream(0.2, seed=0)[0]
    text = encode_batch(batch).decode("ascii")
    assert re.fullmatch(r"(\d+\.\d{2},-?\d+\.\d{4};)+", text)
    assert text.count(";") == 10


def test_ecg_stream_small_run():
    records = bench_ecg_stream(n_clients=1, stream_seconds=2, seed=11)
    assert len(records) == 1
    rec = records[0]
    assert rec.extra["batches"] == "22"
    assert rec.extra["points"] == "220"
    assert rec.extra["verified"] == "22"
    assert float(rec.extra["seconds_per_stream_second"]) > 0


def test_ecg_stream_two_clients():
    records = bench_ecg_stream(n_clients=2, stream_seconds=0.5, seed=4)
    assert len(records) == 2
    assert all(r.extra["verified"] == r.extra["batches"] for r in records)


def test_ecg_stream_zero_clients():
    assert bench_ecg_stream(n_clients=0, stream_seconds=60) == []


@pytest.mark.parametrize("seconds", ["0", "-1", "inf", "nan"])
def test_cli_ecg_stream_rejects_seconds_not_positive_and_finite(seconds, capsys):
    assert bench_main(["ecg-stream", "--seconds", seconds]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "stream_seconds must be positive and finite" in captured.err


def test_ecg_stream_paced_respects_cadence():
    t0 = time.perf_counter()
    records = bench_ecg_stream(n_clients=1, stream_seconds=0.3, seed=2, paced=True)
    elapsed = time.perf_counter() - t0
    assert records[0].extra["batches"] == "4"
    assert elapsed >= 3 * 0.0934  # batches 1..3 wait for their slots


def test_make_key_id():
    assert make_key_id(1) == b"client000001"
    assert make_key_id(42, 12) == b"client000042"
    assert make_key_id(7, 3) == b"007"
    with pytest.raises(ValueError):
        make_key_id(12345, 3)


# --- CLI ------------------------------------------------------------------


def test_cli_writes_csv(tmp_path):
    out = tmp_path / "b64.csv"
    assert bench_main(["base64", "--sizes", "16", "--reps", "2",
                       "--seed", "5", "--out", str(out)]) == 0
    parsed = read_csv(out)
    assert len(parsed) == 4
    assert parsed[0].bench_id == "base64"


def test_cli_stdout_and_summary(tmp_path, capsys):
    assert bench_main(["crypto", "--sizes", "32", "--reps", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("bench_id,")
    assert "# crypto:" in captured.err


def test_cli_cache_query_without_store_fails(tmp_path, capsys):
    status = bench_main(["cache-query", "--store-dir", str(tmp_path / "none"),
                         "--keyfile", str(tmp_path / "k")])
    assert status == 1
    assert "store-insert" in capsys.readouterr().err


def test_cli_store_insert_then_cache_query(tmp_path, capsys):
    store = str(tmp_path / "store")
    keyfile = str(tmp_path / "key")
    assert bench_main(["store-insert", "--store-dir", store, "--keyfile", keyfile,
                       "--n-keys", "30", "--out", str(tmp_path / "ins.csv")]) == 0
    assert bench_main(["cache-query", "--store-dir", store, "--keyfile", keyfile,
                       "--n-keys", "30", "--capacity", "10", "--queries", "500",
                       "--out", str(tmp_path / "q.csv")]) == 0
    err = capsys.readouterr().err
    assert "steady-state hit fraction" in err
    assert len(read_csv(tmp_path / "q.csv")) == 500


def test_cli_ecg_stream_against_endpoint(live_daemon, capsys):
    host, port = live_daemon.address
    assert bench_main(["ecg-stream", "--clients", "1", "--seconds", "0.5",
                       "--endpoint", f"{host}:{port}"]) == 0
    err = capsys.readouterr().err
    batches = re.search(r"# client 0: (\d+) batches, (\d+) verified", err)
    assert batches and int(batches[1]) > 0 and batches[1] == batches[2]


@pytest.mark.parametrize("bench_id, flag, value", [
    ("base64", "--reps", "-1"),
    ("base64", "--sizes", "16,-5"),
    ("ecg-stream", "--clients", "-1"),
    ("cache-query", "--queries", "-1"),
    ("store-insert", "--value-size", "-1"),
    ("cache-query", "--n-keys", "0"),
    ("cache-query", "--capacity", "0"),
    ("cache-query", "--id-size", "0"),
])
def test_cli_rejects_counts_out_of_range(bench_id, flag, value, capsys):
    with pytest.raises(SystemExit) as exited:
        bench_main([bench_id, flag, value])
    assert exited.value.code == 2
    assert f"argument {flag}: must be at least" in capsys.readouterr().err


def test_cli_accepts_zero_counts(capsys):
    assert bench_main(["base64", "--sizes", "0", "--reps", "0"]) == 0
    assert capsys.readouterr().out.count("\n") == 1  # the CSV header only


def test_cli_ecg_stream_at_closed_port_fails_cleanly(capsys):
    status = bench_main(["ecg-stream", "--seconds", "0.1", "--endpoint", "127.0.0.1:1"])
    assert status == 1
    assert capsys.readouterr().err.startswith("kevlar-bench: ecg set-up failed: ")
