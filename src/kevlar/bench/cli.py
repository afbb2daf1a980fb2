"""kevlar-bench: run one workload and emit its CSV.

CSV goes to --out (or stdout); human-readable summaries go to stderr so
the data stream stays clean.
"""

from __future__ import annotations

import argparse
import sys

from ..transport import parse_hostport
from .records import percentile_summary, write_csv
from .runners import (
    BenchError,
    DEFAULT_BASE64_SIZES,
    DEFAULT_CRYPTO_SIZES,
    DEFAULT_REPS,
    DEFAULT_STORE_ID_SIZE,
    DEFAULT_STORE_KEYS,
    DEFAULT_STORE_VALUE_SIZE,
    DEFAULT_TCP_SIZES,
    EXTRA_COLUMNS,
    bench_base64,
    bench_cache_query,
    bench_crypto,
    bench_ecg_stream,
    bench_store_insert,
    bench_tcp,
    steady_state_hit_fraction,
)


def _at_least(low: int):
    """An argparse type for integers of at least low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


_count = _at_least(0)


def _sizes(text: str) -> tuple[int, ...]:
    return tuple(_count(part) for part in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kevlar-bench",
        description="Run one benchmark workload and write its CSV.",
    )
    parser.add_argument("bench_id", choices=EXTRA_COLUMNS)
    parser.add_argument("--sizes", type=_sizes, default=None,
                        help="comma-separated payload sizes in bytes")
    parser.add_argument("--reps", type=_count, default=DEFAULT_REPS)
    parser.add_argument("--clients", type=_count, default=1, help="ecg-stream: simulated clients")
    parser.add_argument("--seconds", type=float, default=60.0, help="ecg-stream: stream length")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="CSV path (default: stdout)")
    parser.add_argument("--store-dir", default="./bench-store",
                        help="store-insert / cache-query: object directory")
    parser.add_argument("--keyfile", default="./bench-store.key")
    parser.add_argument("--n-keys", type=_at_least(1), default=DEFAULT_STORE_KEYS)
    parser.add_argument("--id-size", type=_at_least(1), default=DEFAULT_STORE_ID_SIZE)
    parser.add_argument("--value-size", type=_count, default=DEFAULT_STORE_VALUE_SIZE)
    parser.add_argument("--capacity", type=_at_least(1), default=50,
                        help="cache-query: cache capacity")
    parser.add_argument("--queries", type=_count, default=10000, help="cache-query: query count")
    parser.add_argument("--paced", action="store_true",
                        help="ecg-stream: pace batches at the real 93.4 ms cadence")
    parser.add_argument("--endpoint", default=None,
                        help="ecg-stream: HOST:PORT of a running listen-mode daemon "
                             "(default: self-hosted)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        records = _run(args)
    except (BenchError, ValueError) as exc:
        print(f"kevlar-bench: {exc}", file=sys.stderr)
        return 1
    write_csv(records, EXTRA_COLUMNS[args.bench_id], args.out or sys.stdout)
    _summarize(args, records)
    return 0


def _run(args):
    if args.bench_id == "base64":
        return bench_base64(args.sizes or DEFAULT_BASE64_SIZES, args.reps, args.seed)
    if args.bench_id == "crypto":
        return bench_crypto(args.sizes or DEFAULT_CRYPTO_SIZES, args.reps, args.seed)
    if args.bench_id == "tcp":
        return bench_tcp(args.sizes or DEFAULT_TCP_SIZES, args.reps, args.seed)
    if args.bench_id == "store-insert":
        return bench_store_insert(args.store_dir, args.keyfile, args.n_keys,
                                  args.id_size, args.value_size, args.seed)
    if args.bench_id == "cache-query":
        return bench_cache_query(args.store_dir, args.keyfile, args.n_keys,
                                 args.capacity, args.queries, args.seed, args.id_size)
    endpoint = parse_hostport(args.endpoint) if args.endpoint else None
    return bench_ecg_stream(args.clients, args.seconds, args.seed, args.paced, endpoint)


def _summarize(args, records) -> None:
    if not records:
        return
    if args.bench_id == "cache-query":
        for outcome in ("hit", "miss"):
            sample = [r.throughput_bytes_per_s for r in records if r.extra["outcome"] == outcome]
            if sample:
                s = percentile_summary(sample)
                print(f"# {outcome}: n={len(sample)} median={s['p50']:.0f} B/s "
                      f"(min={s['min']:.0f} p25={s['p25']:.0f} p75={s['p75']:.0f} "
                      f"max={s['max']:.0f})", file=sys.stderr)
        fraction = steady_state_hit_fraction(records, args.capacity)
        print(f"# steady-state hit fraction: {fraction:.4f} "
              f"(uniform expectation {args.capacity / args.n_keys:.4f})", file=sys.stderr)
    elif args.bench_id == "ecg-stream":
        for rec in records:
            print(f"# client {rec.repetition}: {rec.extra['batches']} batches, "
                  f"{rec.extra['verified']} verified, "
                  f"{rec.extra['seconds_per_stream_second']} s per stream-second",
                  file=sys.stderr)
    else:
        sample = [r.throughput_bytes_per_s for r in records]
        s = percentile_summary(sample)
        print(f"# {args.bench_id}: n={len(sample)} median={s['p50']:.0f} B/s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
