"""Command-line driver: ``python -m repro.bench [--quick] [--check-against]``."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..cli import add_options, envvar_epilog
from . import (
    DEFAULT_REGRESSION_TOLERANCE,
    bench_hotloop,
    check_against,
    write_bench_json,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark the numpy backend against the python one, "
        "record BENCH_hotloop.json, and optionally gate against a committed "
        "baseline.  The trace_scale section measures chunked streaming "
        "(--chunk-blocks) peak memory against a monolithic run.",
        epilog=envvar_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_options(parser, "seed")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized smoke run: 2 workloads, short traces, single repeat",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats (best-of); default 3"
    )
    parser.add_argument("--out", default=".", metavar="DIR", help="output directory")
    parser.add_argument(
        "--check-against",
        default=None,
        metavar="PATH",
        help="bench-regression gate: fail if the fresh hotloop speedup "
        "ratios drop more than the tolerance below this committed baseline "
        "(e.g. BENCH_hotloop.json)",
    )
    parser.add_argument(
        "--regression-tolerance",
        type=float,
        default=DEFAULT_REGRESSION_TOLERANCE,
        help="relative speedup-ratio headroom for --check-against "
        f"(default: {DEFAULT_REGRESSION_TOLERANCE})",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    baseline = None
    if args.check_against:
        # Read the baseline before any (multi-minute) timing runs so a bad
        # path or corrupt file fails fast with the CLI's error contract.
        try:
            baseline = json.loads(Path(args.check_against).read_text())
        except OSError as error:
            print(f"error: cannot read baseline {args.check_against}: {error}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as error:
            print(
                f"error: baseline {args.check_against} is not valid JSON: {error}",
                file=sys.stderr,
            )
            return 2
    result = bench_hotloop(quick=args.quick, seed=args.seed, repeats=args.repeats)
    status = 0
    per_engine = ", ".join(
        f"{engine}={data['optimized_seconds']}s" for engine, data in result["engines"].items()
    )
    headline = f"hotloop: python {per_engine}"
    backend = result.get("backend", {})
    if backend.get("numpy_available"):
        per_backend = ", ".join(
            f"{engine}={data.get('numpy_speedup', '-')}x"
            for engine, data in result["engines"].items()
        )
        headline += (
            f"\n  numpy backend: total {backend['total_numpy_speedup']}x "
            f"({per_backend}), backends_match={backend['backends_match']}"
        )
        if not backend["backends_match"]:
            status = 1
    generation = result.get("trace_generation")
    if generation:
        headline += (
            f"\n  trace generation: {generation['cold_seconds']}s cold -> "
            f"{generation['warm_seconds']}s warm mmap loads "
            f"({generation['warm_speedup']}x; pickle-vs-binary load "
            f"{generation['old_vs_new_load_ratio']}x)"
        )
    if baseline is not None:
        violations = check_against(result, baseline, tolerance=args.regression_tolerance)
        if violations:
            status = 1
            print("bench-regression gate FAILED:", file=sys.stderr)
            for violation in violations:
                print(f"  - {violation}", file=sys.stderr)
        else:
            print(
                f"bench-regression gate passed vs {args.check_against} "
                f"(tolerance {args.regression_tolerance:.0%})"
            )
    path = write_bench_json(result, args.out)
    print(headline)
    print(f"  -> {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
