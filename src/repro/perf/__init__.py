"""Performance instrumentation and the tracked benchmark harness.

Three pieces:

* :mod:`repro.perf.counters` — a process-global registry of cache
  hit/miss counters incremented by the hot-path caches (constraint-store
  canonical keys, Fourier–Motzkin satisfiability and projection,
  successor memoization, child summaries).  Reading it costs a dict
  copy; incrementing it costs one integer add, so the counters stay on
  even in production runs.
* :mod:`repro.perf.phases` — the per-phase wall-clock timers (every
  outermost activation timed).
* :mod:`repro.perf.bench` — named benchmark families (four service
  suites from :mod:`repro.service.suites`, plus the edit-adjacent
  ``incremental`` pairs), recorded to machine-readable
  ``BENCH_<family>.json`` files and regression-compared against a
  tracked baseline (``python -m repro bench --record / --compare``).

Both registries only record; reads go through :mod:`repro.obs.metrics`,
one layer up, except ``COUNTERS.snapshot()`` / ``.since()`` for callers
that want only the flat counters.

Only the counters are re-exported here: the arith and symbolic layers
import them from the bottom of the dependency graph, so this package
``__init__`` must not pull in the bench harness (which imports the
service layer).  Import the harness explicitly via
``from repro.perf import bench`` / ``repro.perf.bench``.

See ``docs/performance.md`` for what each cache memoizes, the
invariants that keep them sound, and how to read the recorded files.
"""

from repro.perf.counters import COUNTERS, PerfCounters

__all__ = ["COUNTERS", "PerfCounters"]
