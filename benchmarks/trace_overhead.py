#!/usr/bin/env python
"""CI gate: instrumentation must cost <3% of wall time on travel-lite.

Three measurements, each against the same budget:

* **tracing** — interleaved (untraced, traced) repetitions via
  :func:`repro.perf.bench.measure_trace_overhead`, best-of-N walls;
* **attribution** — interleaved (disabled, enabled) repetitions of the
  always-on search-attribution registry via
  :func:`repro.perf.bench.measure_attribution_overhead`; unlike the
  tracer it has no off switch in production, so its cost is gated
  separately rather than hidden inside the traced side;
* **coverage** — same protocol for the semantic-coverage registry
  (:mod:`repro.fuzz.coverage`), whose feature sites sit on the same
  hot paths and are likewise always on.

Exits 1 when either measured overhead exceeds the budget — the
observability contract in docs/observability.md says the
instrumentation is cheap enough to leave on, and this is the check
that keeps that sentence true.

Usage::

    PYTHONPATH=src python benchmarks/trace_overhead.py [--family F]
        [--reps N] [--budget 0.03]

The default budget (3%) is deliberately generous for CI noise: the
interleaved min-vs-min estimator (the side that runs first alternates
per rep) absorbs most scheduler jitter, and a
genuine hot-path regression (a per-call timer where a sampled one
belongs, say) overshoots 3% by an order of magnitude.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", default="travel-lite")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument(
        "--budget",
        type=float,
        default=0.03,
        help="maximum relative traced-vs-untraced slowdown (default 0.03)",
    )
    args = parser.parse_args(argv)

    from repro.perf.bench import (
        measure_attribution_overhead,
        measure_coverage_overhead,
        measure_trace_overhead,
    )

    failed = False
    result = measure_trace_overhead(args.family, reps=args.reps)
    overhead = result["overhead"]
    print(
        f"trace overhead on {result['family']} (best of {result['reps']}): "
        f"untraced {result['untraced_seconds']:.3f}s, "
        f"traced {result['traced_seconds']:.3f}s, "
        f"overhead {overhead:+.2%} (budget {args.budget:.0%})"
    )
    if overhead > args.budget:
        print(
            f"FAIL: tracing costs {overhead:.2%} > {args.budget:.0%} budget",
            file=sys.stderr,
        )
        failed = True

    result = measure_attribution_overhead(args.family, reps=args.reps)
    overhead = result["overhead"]
    print(
        f"attribution overhead on {result['family']} "
        f"(best of {result['reps']}): "
        f"disabled {result['disabled_seconds']:.3f}s, "
        f"enabled {result['enabled_seconds']:.3f}s, "
        f"overhead {overhead:+.2%} (budget {args.budget:.0%})"
    )
    if overhead > args.budget:
        print(
            f"FAIL: attribution costs {overhead:.2%} > {args.budget:.0%} budget",
            file=sys.stderr,
        )
        failed = True

    result = measure_coverage_overhead(args.family, reps=args.reps)
    overhead = result["overhead"]
    print(
        f"coverage overhead on {result['family']} "
        f"(best of {result['reps']}): "
        f"disabled {result['disabled_seconds']:.3f}s, "
        f"enabled {result['enabled_seconds']:.3f}s, "
        f"overhead {overhead:+.2%} (budget {args.budget:.0%})"
    )
    if overhead > args.budget:
        print(
            f"FAIL: coverage costs {overhead:.2%} > {args.budget:.0%} budget",
            file=sys.stderr,
        )
        failed = True

    if failed:
        return 1
    print("ok: within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
