"""tools/abbench.py's summary, checked against every committed BENCH_<n>.json.

Each workload block was written from its own pairs list, so re-deriving
it pins the schema, the median and IQR rule and the win count without
running a benchmark.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))


def _load_abbench():
    spec = importlib.util.spec_from_file_location("abbench", ROOT / "tools" / "abbench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


abbench = _load_abbench()
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def test_bench_files_present():
    assert {"BENCH_6.json", "BENCH_7.json", "BENCH_8.json"} <= {p.name for p in BENCH_FILES}


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.stem)
def test_workload_blocks_rederive_from_pairs(path):
    report = json.loads(path.read_text())
    assert list(report) == ["note", "parent_commit", "change_commit", "host", "command",
                            "method", "workloads", "trace"]
    for name, block in report["workloads"].items():
        derived = abbench.summarize(block["pairs"], END_TO_END)
        assert {**derived, "pairs": block["pairs"]} == block, name

