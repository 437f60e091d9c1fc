#!/usr/bin/env python
"""CI gate: instrumentation must cost <3% of wall time on travel-lite.

One measurement per switch of :data:`repro.perf.bench.OVERHEAD_SWITCHES`,
all by :func:`repro.perf.bench.measure_overhead` (interleaved off/on
repetitions, best-of-N walls) and against the same budget:

* **trace** — JSONL tracing into a scratch sink;
* **attribution** — the always-on search-attribution registry; unlike
  the tracer it has no off switch in production, so its cost is gated
  separately rather than hidden inside the traced side;
* **coverage** — the semantic-coverage registry (:mod:`repro.fuzz.coverage`),
  whose feature sites sit on the same hot paths and are likewise always on.

Exits 1 when any measured overhead exceeds the budget — the
observability contract in docs/observability.md says the
instrumentation is cheap enough to leave on, and this is the check
that keeps that sentence true.

Usage::

    PYTHONPATH=src python benchmarks/trace_overhead.py [--family F]
        [--reps N] [--budget 0.03]

The default budget (3%) is deliberately generous for CI noise: the
interleaved min-vs-min estimator (the side that runs first alternates
per rep) absorbs most scheduler jitter, so what fails the gate is work
a switch adds on every call of a hot path, seen as a steady excess
across reruns rather than one noisy reading.
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
        help="maximum relative on-vs-off slowdown per switch (default 0.03)",
    )
    args = parser.parse_args(argv)

    from repro.perf.bench import OVERHEAD_SWITCHES, measure_overhead

    failed = False
    for switch in OVERHEAD_SWITCHES:
        result = measure_overhead(switch, args.family, reps=args.reps)
        overhead = result["overhead"]
        print(
            f"{switch} overhead on {result['family']} "
            f"(best of {result['reps']}): "
            f"off {result['off_seconds']:.3f}s, "
            f"on {result['on_seconds']:.3f}s, "
            f"overhead {overhead:+.2%} (budget {args.budget:.0%})"
        )
        if overhead > args.budget:
            print(
                f"FAIL: {switch} costs {overhead:.2%} > {args.budget:.0%} budget",
                file=sys.stderr,
            )
            failed = True

    if failed:
        return 1
    print("ok: within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
