"""One fresh interpreter of the benchmark: ``python3 worker.py '<spec>'``.

``spec`` is a JSON object: ``mode`` (``setup``, ``fill`` or ``run``),
``workload``, ``seed``, ``out`` (the result file), and for ``fill`` and
``run`` the on-disk result ``cache`` and summary ``store`` directories
(null = none).  ``run`` also takes ``trace`` (install the layer
wrappers) and ``spans`` (where a traced run writes its spans).

Users pay cold process-global caches (FM, canonical keys) on every
invocation, so every pass runs in its own process.  Every run feeds its
jobs back-to-back through ``run_batch`` with ``workers=1``: one
closed-loop client, as ``repro suite`` runs them.
"""

import json
import resource
import sys
import time

import workloads
from speed import SpeedProbe


def _jobs_ready(workload: str, seed: int, tracer=None):
    """Import the program, build and key the workload's jobs: the work
    ``setup_s`` measures from interpreter launch.  Returns the jobs, the
    ``time.monotonic`` instant they were ready, the import seconds and
    the ``time.perf_counter`` instant job building started (installing
    the layer wrappers falls between the import and that instant)."""
    started = time.perf_counter()
    import repro.service.cli  # noqa: F401 — the CLI's import closure is the cold cost

    if tracer is not None:
        import importlib

        from layers import EXTRA_IMPORTS, IMPORT

        for module in EXTRA_IMPORTS:
            importlib.import_module(module)
    import_s = time.perf_counter() - started
    if tracer is not None:
        tracer.record(IMPORT, started, started + import_s)
        tracer.install()
    build_start = time.perf_counter()
    jobs = workloads.build_jobs(workload, seed)
    for job in jobs:
        job.key()
    return jobs, time.monotonic(), import_s, build_start


def _job_record(outcome) -> dict:
    witness = outcome.witness_json or {}
    return {
        "name": outcome.name,
        "status": outcome.status,
        "expected_status": outcome.expected_status,
        "km_nodes": outcome.km_nodes,
        "cache_hit": outcome.cache_hit,
        "witness_status": witness.get("status"),
        "error": outcome.error,
        "km_nodes_reused": (outcome.stats or {}).get("km_nodes_reused", 0),
    }


def _timed_jobs(pool, samples: list) -> None:
    """Record each executed job's start and end around
    ``execute_payload`` (verdict plus concrete witness); cache hits
    never reach it."""
    execute = pool.execute_payload

    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return execute(*args, **kwargs)
        finally:
            samples.append((started, time.perf_counter()))

    pool.execute_payload = timed


def _stores(spec: dict):
    from repro.service.cache import ResultCache, SummaryStore

    cache = ResultCache(spec["cache"]) if spec.get("cache") else None
    store = SummaryStore(spec["store"]) if spec.get("store") else None
    return cache, store


def _setup(spec: dict) -> dict:
    """The set-up span, with the probes' pace to rescale it by and their
    own time to leave out of it."""
    with SpeedProbe() as probe:
        _, ready, _, _ = _jobs_ready(spec["workload"], spec["seed"])
        probe_s = probe.probe_seconds()
    return {"ready": ready, "pace": probe.pace(), "probe_s": probe_s}


def _fill(spec: dict) -> dict:
    from repro.service import runner

    cache, store = _stores(spec)
    report = runner.run_batch(
        workloads.fill_jobs(), workers=1, cache=cache, summary_store=store
    )
    return {
        "jobs": [_job_record(outcome) for outcome in report.outcomes],
        "stored_verdicts": len(cache),
        "stored_summaries": len(store) if store is not None else 0,
    }


def _run(spec: dict) -> dict:
    tracer = None
    if spec.get("trace"):
        from layers import Tracer

        tracer = Tracer()
    jobs, _, import_s, build_start = _jobs_ready(
        spec["workload"], spec["seed"], tracer
    )
    from repro.perf.counters import COUNTERS
    from repro.service import pool, runner

    cache, store = _stores(spec)
    samples: list[tuple[float, float]] = []
    if tracer is None:
        _timed_jobs(pool, samples)
    counters = COUNTERS.snapshot()
    with SpeedProbe() as probe:
        started = time.perf_counter()
        report = runner.run_batch(jobs, workers=1, cache=cache, summary_store=store)
        ended = time.perf_counter()
    result = {
        "wall_s": probe.rescaled(started, ended),
        "raw_wall_s": ended - started,
        "job_s": [probe.rescaled(*job) for job in samples],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counters": COUNTERS.since(counters),
        "lock_waits": sum(tier.lock_waits for tier in (cache, store) if tier),
        "jobs": [_job_record(outcome) for outcome in report.outcomes],
    }
    if tracer is not None:
        # the traced wall covers the import, job building and keying, and
        # the batch (raw seconds, like the spans); the orchestrator
        # subtracts the excluded bookkeeping
        result["trace"] = {
            **tracer.layer_times(),
            "traced_wall_s": import_s + ended - build_start,
            "result_cache_hits": tracer.result_cache_hits,
            "sat_true": tracer.sat_true,
            "witness_confirmed": tracer.witness_confirmed,
            "km": tracer.km,
        }
        tracer.write(spec["spans"])
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    mode = {"setup": _setup, "fill": _fill, "run": _run}[spec["mode"]]
    result = mode(spec)
    import repro

    result["repro_file"] = repro.__file__
    with open(spec["out"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
