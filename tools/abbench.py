"""Paired parent/change runs of perfbench, written as one BENCH_<n>.json.

    python3 tools/abbench.py --parent REV --change REV --seed-base 1200 \\
        --out BENCH_12.json

Each side runs from its own `git archive` export of its commit under a
temporary directory, so the working tree and `.git` are left alone.
For every workload in BENCHMARK.json the tool runs ten pairs of
`perfbench/run.py --trace 0` on seed seed_base + 20 * k + i (k the
workload's index, i = 1..10), back to back on the same seed; the
parent goes first in the odd pairs and the change in the even ones.
Then it runs one `--trace 1` pair on reenc-hot parent first and
repeats it change first, because a single traced run cannot tell the
tracer's cost from host drift.

The JSON has the keys of BENCH_6-8.json.  `summarize` is the one
definition of a metrics block (medians, IQRs from inclusive quartiles,
wins with ties counting for neither side); tests/test_abbench.py checks
it against the committed files.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: Untraced pairs per workload; even, so that each side goes first in half.
PAIRS = 10
#: Seeds of consecutive workloads start this far apart.
SEED_STRIDE = 20
#: The workload and seed of the traced pairs, as in every BENCH_<n>.json.
TRACE_WORKLOAD = "reenc-hot"
TRACE_SEED = 7
METHOD = (
    "Pairs of one parent run and one change run on the same seed, back to back, "
    "each side from its own checkout of its commit; which side runs first alternates "
    "so that each side goes first in half the pairs. Medians and IQRs (inclusive "
    "quartiles) are over the pairs; change_wins counts pairs in which the change read "
    "better, ties counting for neither side."
)
TRACE_NOTE = (
    "Two traced pairs on the same seed: the first with the parent first, the repeat "
    "with the change first. Read the per-layer rows from both."
)


def _iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """A workload block without its pairs: seeds, counts and one metrics entry each."""
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        sign = 1 if spec["better"] == "higher" else -1
        values = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        metrics[name] = {
            "better": spec["better"],
            "parent_median": round(statistics.median(values["parent"]), 3),
            "parent_iqr": round(_iqr(values["parent"]), 3),
            "change_median": round(statistics.median(values["change"]), 3),
            "change_iqr": round(_iqr(values["change"]), 3),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])),
            "pairs": len(pairs),
        }
    return {
        "seeds": [pair["seed"] for pair in pairs],
        "parent_first": sum(pair["first"] == "parent" for pair in pairs),
        "failed": {side: sum(pair[side]["failed"] for pair in pairs) for side in SIDES},
        "attempted": {side: sum(pair[side]["attempted"] for pair in pairs) for side in SIDES},
        "metrics": metrics,
    }


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def export(commit: str, dest: Path) -> Path:
    """Unpack the tree of commit into dest with `git archive`."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
        # The "data" filter exists from Python 3.10.12 and 3.11.4 on.
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its metrics, counts, host facts and summary lines."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    # Status 1 means wrong replies, which are counted; anything else is a broken run.
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(command)} in {checkout} exited {done.returncode}:\n"
                           f"{done.stderr}")
    result = json.loads(lines[-1])
    host = next(json.loads(line[len("host: "):]) for line in lines if line.startswith("host: "))
    return {
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "failed": result["failed"],
        "attempted": result["attempted"],
        "host": host,
        "summary": [line for line in lines if line.startswith(("traced window:", "accounting:"))],
    }


def _order(parent_first: bool) -> tuple[str, str]:
    return SIDES if parent_first else SIDES[::-1]


def untraced_pair(checkouts: dict, workload: str, seed: int, seconds: float,
                  parent_first: bool) -> tuple[dict, dict]:
    pair, host = {"seed": seed, "first": _order(parent_first)[0]}, {}
    for side in _order(parent_first):
        run = run_once(checkouts[side], workload, seed, seconds, 0)
        pair[side] = {**run["metrics"], "failed": run["failed"], "attempted": run["attempted"]}
        host = run["host"]
    return pair, host


def traced_pair(checkouts: dict, workload: str, seed: int, seconds: float,
                parent_first: bool) -> dict:
    pair = {"seed": seed, "first": _order(parent_first)[0]}
    for side in _order(parent_first):
        run = run_once(checkouts[side], workload, seed, seconds, 1)
        pair[side] = run["metrics"]
        pair[f"{side}_summary"] = run["summary"]
        pair[f"{side}_failed"] = run["failed"]
    return pair


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit (any git revision)")
    parser.add_argument("--change", required=True, help="change commit (any git revision)")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--seed-base", type=int, required=True,
                        help="pair i of workload k runs on seed seed_base + 20*k + i")
    parser.add_argument("--note", default="", help="free text stored as the note key")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    commits = {side: _git("rev-parse", f"{rev}^{{commit}}").decode().strip()
               for side, rev in zip(SIDES, (args.parent, args.change))}
    report = {
        "note": args.note,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "host": {},
        "command": f"python3 perfbench/run.py --workload <w> --seed <seed> --seconds {seconds:g} "
                   "--trace 0",
        "method": METHOD,
        "workloads": {},
        "trace": {},
    }
    with tempfile.TemporaryDirectory(prefix="abbench-") as tmp:
        checkouts = {side: export(commit, Path(tmp) / side) for side, commit in commits.items()}
        for k, workload in enumerate(workloads):
            pairs = []
            for i in range(1, PAIRS + 1):
                seed = args.seed_base + SEED_STRIDE * k + i
                pair, report["host"] = untraced_pair(checkouts, workload, seed, seconds, i % 2 == 1)
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {pair[side]['throughput_rps']:.0f} req/s" for side in SIDES), flush=True)
            report["workloads"][workload] = {**summarize(pairs, benchmark["end_to_end"]),
                                             "pairs": pairs}
        first = traced_pair(checkouts, TRACE_WORKLOAD, TRACE_SEED, seconds, True)
        del first["seed"], first["first"]
        report["trace"][TRACE_WORKLOAD] = {
            "seed": TRACE_SEED,
            "command": f"python3 perfbench/run.py --workload {TRACE_WORKLOAD} "
                       f"--seed {TRACE_SEED} --seconds {seconds:g} --trace 1",
            **first,
            "note": TRACE_NOTE,
            "repeat": traced_pair(checkouts, TRACE_WORKLOAD, TRACE_SEED, seconds, False),
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
