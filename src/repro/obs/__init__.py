"""Observability for the verification stack (``repro.obs``).

The pieces are all observationally invisible to the verifier
(verdicts, witnesses, KM node counts, and job hashes are byte-identical
with tracing on or off — A/B-tested in ``tests/test_obs.py``):

* :mod:`repro.obs.trace` — a dependency-free span/event tracer with
  process-global enablement, monotonic-clock timestamps, and a JSONL
  sink, instrumented at the natural seams of the stack (``verify``,
  ``_explore``, per-summary spans, Karp–Miller progress events, witness
  phases, per-job service events);
* :mod:`repro.obs.progress` — a heartbeat renderer subscribed to the
  live event stream (the ``--progress`` flag);
* :mod:`repro.obs.report` — the offline analyzer behind
  ``python -m repro report <trace.jsonl>``: per-phase time breakdown,
  cache-rate and search-hotspot tables;
* :mod:`repro.obs.export` — the trace as Chrome trace-event JSON
  (``report --chrome FILE``), for Perfetto or ``chrome://tracing``;
* :mod:`repro.obs.attribution` — the always-on per-(task, service)
  search-cost registry;
* :mod:`repro.obs.metrics` — the one read path over the metric
  registries: ``snapshot`` / ``delta`` / ``since`` for per-job and
  per-span deltas, ``merge`` for every batch, trace and bench sum.

Two of those registries — cache hit/miss counters and exact per-phase
timers — live one layer down, in :mod:`repro.perf.counters` and
:mod:`repro.perf.phases`, so the arith and symbolic layers can feed them
without importing this package.

See ``docs/observability.md`` for the event schema, the heartbeat
format, and the overhead contract.
"""

from repro.obs import trace

__all__ = ["trace"]
