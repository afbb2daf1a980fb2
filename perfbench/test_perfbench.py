"""Tests of the benchmark itself: seeded inputs, reply checks, names, smoke runs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import base64
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
from kevlar import crypto  # noqa: E402
from launch_daemon import SPAN_NAMES  # noqa: E402
from layers import layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int, seconds: str = "0.5"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(name):
    first, again, other = inputs.build(name, 11), inputs.build(name, 11), inputs.build(name, 12)
    assert first.requests == again.requests and first.prefill == again.prefill
    assert first.requests != other.requests and first.prefill != other.prefill


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)


def test_seal_is_what_kevlar_decrypts():
    key, iv, text = b"k" * 32, b"i" * 16, b"12.34,0.5678;" * 11
    envelope = crypto.CipherEnvelope.from_bytes(inputs.seal(key, iv, text))
    assert crypto.decrypt(key, envelope) == text
    assert inputs.unseal(key, envelope.to_bytes()) == text


def correct_replies(workload, conn: int, n: int):
    """A correct daemon's replies to the first n requests of conn, and
    the last value it acknowledged for each key saved."""
    current, saved, replies = dict(workload.prefill), {}, []
    for i in range(n):
        line = workload.request(conn, i)
        if workload.name == "reenc-hot":
            plain = workload.plaintexts[conn][i % len(workload.plaintexts[conn])]
            replies.append(inputs.value_line(inputs.seal(workload.sink_key, bytes(16), plain)))
            continue
        op, key_id, *value = (base64.b64decode(f) if j else f
                              for j, f in enumerate(line[:-1].split(b"|")))
        if op == b"SAVE":
            current[key_id] = saved[key_id] = value[0]
            replies.append(inputs.OK_LINE)
        else:
            replies.append(inputs.value_line(current[key_id]))
    return replies, saved


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_checks_count_every_wrong_reply(name):
    workload = inputs.build(name, 3)
    replies, saved = correct_replies(workload, 1, 400)
    assert workload.check(1, replies) == (0, saved)
    assert bool(saved) == (name == "save-mix")
    # Corrupt two replies that change no state (a lost SAVE would also
    # fail every later QUERY of its key).
    first, second = (next(i for i in range(start, 400) if not workload.request(1, i).startswith(b"SAVE"))
                     for start in (7, 300))
    replies[first] = b"ERR|" + replies[first][3:]
    replies[second] = b"OK|AAAA\n"
    assert workload.check(1, replies)[0] == 2


def test_layer_self_times_and_outcomes():
    code = {name: i for i, name in enumerate(SPAN_NAMES)}
    # name, request, span, parent, start, end, a (evictions / disk bytes), b
    spans = [
        (code["transport.receive_frame"], 1, 1, 0, 0, 90, 0, 0),
        (code["daemon.handoff"], 1, 2, 0, 90, 100, 0, 0),
        (code["wire.parse"], 1, 3, 0, 100, 110, 0, 0),
        (code["daemon.dispatch"], 1, 4, 0, 110, 200, 0, 0),
        (code["cache.query"], 1, 5, 4, 120, 180, 1, 0),
        (code["store.read_ss"], 1, 6, 5, 130, 170, 300, 256),
        (code["wire.serialize"], 1, 7, 0, 200, 205, 0, 0),
        (code["transport.send"], 1, 8, 0, 205, 225, 0, 0),
    ]
    metrics, requests, accounted = layer_metrics(spans, 0, 1000)
    assert requests == 1 and accounted == [10 + 10 + 90 + 5 + 20]
    assert metrics["daemon.dispatch_self_us"] == (0.03, "us")
    assert metrics["cache.miss_us"] == (0.06, "us")
    assert metrics["cache.hit_ratio"][0] == 0.0
    assert metrics["cache.evictions_per_query"][0] == 1.0
    assert metrics["store.reads_per_op"][0] == 1.0
    assert metrics["store.bytes_per_user_byte"][0] == 300 / 256
    assert layer_metrics(spans, 100, 1000)[1] == 0


def check_output(result, section: str):
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    return last["metrics"]


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_smoke_run_end_to_end(name):
    metrics = check_output(run_bench(ROOT, name, 0), "end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_smoke_run_traced():
    metrics = check_output(run_bench(ROOT, "save-mix", 1), "per_layer")
    assert metrics["store.writes_per_op"]["value"] > 0
    assert 0 < metrics["trace.accounted_frac"]["value"] <= 1


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = run_bench(tmp_path, "reenc-hot", 0)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
