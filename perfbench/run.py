"""kevlar's benchmark: closed-loop traffic against an out-of-process daemon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout.  Each run pre-fills a fresh store, starts
`kevlar-daemon --mode listen` as its own process on loopback, drives it
from this one process over CONNECTIONS connections in a closed loop
(each connection sends its next request only after the reply to the
previous one), and checks every reply after the window.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the workload
twice, untraced and then with the traced launcher, and prints the
per-layer metrics plus the tracing overhead.  The last line of output
is one JSON object; the exit status is non-zero if any reply was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

#: Daemons per --trace 0 run, each set up and measured for an equal share
#: of --seconds; setup_s and daemon_rss_mb are medians across them.
SETUPS = 3
#: Windows are cut into slices this long; throughput and latency are
#: medians over the slices of every window in the run, so one stretch of
#: host noise moves them less.
SLICE_NS = 1_000_000_000


def percentile(sorted_values: list[int], q: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding path, from /proc/self/mountinfo."""
    target, best, fstype = str(path.resolve()), "", "unknown"
    with open("/proc/self/mountinfo") as fh:
        for line in fh:
            left, _, right = line.partition(" - ")
            mount = left.split()[4]
            inside = target == mount or target.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                best, fstype = mount, right.split()[0]
    return fstype


def host_facts(workdir: Path) -> dict:
    from importlib.metadata import version

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cryptography": version("cryptography"),
        "store_fs": filesystem_type(workdir),
        "transport": "TCP over loopback 127.0.0.1",
        "flush": "the store's own fsync per SAVE (SecureStore.write_ss)",
    }


class Window:
    """Client-side figures of one measured window."""

    def __init__(self, legs) -> None:
        self.start = min(leg.sent[0] for leg in legs)
        self.end = max(leg.received[-1] for leg in legs)
        self.requests = sum(len(leg.replies) for leg in legs)
        self.rtt = sorted(r - s for leg in legs for s, r in zip(leg.sent, leg.received))
        self.gaps = [s - r for leg in legs for s, r in zip(leg.sent[1:], leg.received)]
        self.throughput_rps = self.requests / ((self.end - self.start) / 1e9)
        self._legs = legs

    def slices(self) -> list[tuple[float, list[int]]]:
        """(replies per second, sorted round trips) for each whole SLICE_NS
        of the window, or for the whole window if it is shorter."""
        duration = self.end - self.start
        count, width = (duration // SLICE_NS, SLICE_NS) if duration >= SLICE_NS else (1, duration + 1)
        buckets: list[list[int]] = [[] for _ in range(count)]
        for leg in self._legs:
            for sent, received in zip(leg.sent, leg.received):
                index = (received - self.start) // width
                if index < count:
                    buckets[index].append(received - sent)
        return [(len(bucket) * 1e9 / width, sorted(bucket)) for bucket in buckets]


class Run:
    """The sessions of one invocation and the tally of their checked replies."""

    def __init__(self, workload, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.sessions = 0

    def session(self, seconds: float, spans: Path | None = None):
        """Set up, warm up, measure a window, check every reply, stop.

        Returns (setup seconds, Window, daemon peak RSS in MiB).
        """
        from inputs import CONNECTIONS, WARMUP_REQUESTS
        from session import Session

        self.sessions += 1
        workdir = self.workdir / f"session{self.sessions}"
        session = Session(self.workload, workdir, spans=spans)
        try:
            started = time.perf_counter()
            session.start()
            session.run(count=WARMUP_REQUESTS)
            setup_s = time.perf_counter() - started
            window = Window(session.run(seconds=seconds))
            rss = session.peak_rss_mib()
            saved = []
            for conn in range(CONNECTIONS):
                failed, last = self.workload.check(conn, session.replies[conn])
                self.attempted += len(session.replies[conn])
                self.failed += failed
                saved.append(last)
            attempted, failed = session.read_back(saved)
            self.attempted += attempted
            self.failed += failed
        finally:
            session.stop()
        return setup_s, window, rss


def end_to_end(run: Run, seconds: float) -> dict:
    """SETUPS sessions, each measured for seconds / SETUPS."""
    setups, windows, rss = [], [], []
    for _ in range(SETUPS):
        setup_s, window, peak = run.session(seconds / SETUPS)
        setups.append(setup_s)
        windows.append(window)
        rss.append(peak)
    slices = [piece for w in windows for piece in w.slices()]
    samples = [len(w.rtt) for w in windows]
    print(f"windows: {SETUPS} daemons x {seconds / SETUPS:.3g} s; latency samples per window "
          f"{samples} (total {sum(samples)}); {len(slices)} slices")
    # Measured and printed, but not a BENCHMARK.json metric: over ten runs
    # on a shared 2-vCPU host its quartiles spread by 0.13-0.39 of the
    # median, wider than the largest bound a metric may have.
    p99 = statistics.median(percentile(rtts, 99) for _, rtts in slices) / 1e3
    print(f"latency_p99_us = {p99:.6g} us (median over slices of each slice's p99)")
    return {
        "throughput_rps": (statistics.median(rate for rate, _ in slices), "1/s"),
        "latency_p50_us": (statistics.median(statistics.median(rtts) for _, rtts in slices) / 1e3, "us"),
        "setup_s": (statistics.median(setups), "s"),
        "daemon_rss_mb": (statistics.median(rss), "MiB"),
    }


def per_layer(run: Run, seconds: float) -> dict:
    from layers import layer_metrics, load_spans

    _, plain, _ = run.session(seconds)
    spans_path = run.workdir / "spans.bin"
    _, traced, _ = run.session(seconds, spans_path)
    metrics, requests, accounted = layer_metrics(load_spans(spans_path), traced.start, traced.end)
    rtt_p50 = statistics.median(traced.rtt)
    accounted_p50 = statistics.median(accounted) if accounted else 0.0
    print(f"traced window: {requests} requests traced, {traced.requests} replies, "
          f"throughput {traced.throughput_rps:.1f}/s traced vs {plain.throughput_rps:.1f}/s untraced")
    print(f"accounting: median per-request layer self time + hand-off {accounted_p50 / 1e3:.1f} us "
          f"vs client round trip p50 {rtt_p50 / 1e3:.1f} us "
          f"({'within' if accounted_p50 <= rtt_p50 else 'EXCEEDS'} the round trip)")
    metrics["client.gap_us"] = (statistics.median(plain.gaps) / 1e3 if plain.gaps else 0.0, "us")
    metrics["trace.overhead_frac"] = (1 - traced.throughput_rps / plain.throughput_rps, "fraction")
    metrics["trace.accounted_frac"] = (accounted_p50 / rtt_p50, "fraction")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "kevlar" / "__init__.py").is_file():
        print(f"run.py: no kevlar source under {SRC}; run from a kevlar checkout",
              file=sys.stderr)
        return 2

    import inputs
    from session import BenchFailure

    # Unwind on SIGTERM too, so every daemon started is stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    try:
        workload = inputs.build(args.workload, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    run = Run(workload, workdir)
    try:
        print("host: " + json.dumps(host_facts(workdir)))
        print(f"workload={args.workload} seed={args.seed} connections={inputs.CONNECTIONS} "
              f"loop=closed window_s={args.seconds} trace={args.trace}")
        measure = per_layer if args.trace else end_to_end
        metrics = measure(run, args.seconds)
    except (BenchFailure, OSError) as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {run.failed / run.attempted:.6g} "
          f"({run.failed} failed of {run.attempted} checked replies)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
