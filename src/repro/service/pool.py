"""Multiprocess job execution.

Jobs cross the process boundary in their canonical serialized form (not
pickled model objects), so workers rebuild the HAS and property from
plain JSON and return plain :class:`JobOutcome` dicts.  Budget and time
limits are enforced *inside* the verifier (``VerifierConfig.km_budget``
/ ``time_limit_seconds`` → :class:`~repro.errors.BudgetExceeded`), and a
worker converts them — and any other specification error — into a
structured outcome instead of poisoning the batch.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, Sequence

from repro.errors import BudgetExceeded
from repro.obs import metrics, trace
from repro.service.jobs import (
    JobOutcome,
    STATUS_BUDGET_EXCEEDED,
    STATUS_ERROR,
    VerificationJob,
)


def _resolve_summary_store(summary_store):
    """A usable :class:`~repro.service.cache.SummaryStore` from either a
    live store object (shared in-process) or a directory path (workers in
    other processes rebuild their own handle over the shared directory);
    None stays None (reuse off)."""
    if summary_store is None or hasattr(summary_store, "get"):
        return summary_store
    from repro.service.cache import SummaryStore

    return SummaryStore(summary_store)


def execute_payload(payload: dict, summary_store=None) -> dict:
    """Run one serialized job to a serialized outcome (worker entry point;
    module-level so it pickles under the spawn start method).

    Nothing short of interpreter death escapes as an exception: budget
    exhaustion, malformed payloads, and unexpected verifier errors all
    come back as structured outcomes so one job can never poison a batch.

    Every outcome carries the executing process's metric deltas
    (``JobOutcome.counters`` / ``.phases`` / ``.attribution``, one
    :func:`repro.obs.metrics.since`) — workers die with their
    process-global registries, so the deltas riding the outcome are the
    only way suite-level totals stay correct under ``workers>1``.

    ``summary_store`` (a store object, or a directory path when crossing
    the process boundary) enables the persistent cross-job summary tier.
    """
    started = time.monotonic()
    baseline = metrics.snapshot()
    name = str(payload.get("name", "?")) if isinstance(payload, dict) else "?"
    key = str(payload.get("key", "")) if isinstance(payload, dict) else ""
    expected = payload.get("expected_holds") if isinstance(payload, dict) else None
    expected_status = (
        payload.get("expected_status") if isinstance(payload, dict) else None
    )
    trace.event("job_start", name=name, key=key)
    try:
        from repro.verifier.engine import Verifier

        job = VerificationJob.from_payload(payload)
        name, key = job.name, job.key()
        expected, expected_status = job.expected_holds, job.expected_status
        result = Verifier(
            job.has, job.config, summary_store=_resolve_summary_store(summary_store)
        ).verify(job.prop)
    except BudgetExceeded as exc:
        outcome = JobOutcome(
            name=name,
            key=key,
            status=STATUS_BUDGET_EXCEEDED,
            km_nodes=exc.states_explored,
            wall_seconds=time.monotonic() - started,
            error=str(exc),
            expected_holds=expected,
            expected_status=expected_status,
        )
    except Exception as exc:  # noqa: BLE001 — converted to a structured outcome
        outcome = JobOutcome(
            name=name,
            key=key,
            status=STATUS_ERROR,
            wall_seconds=time.monotonic() - started,
            error=f"{type(exc).__name__}: {exc}",
            expected_holds=expected,
            expected_status=expected_status,
        )
    else:
        # wall_seconds measures verification; concretization runs after
        # the verdict on its own budget and must not skew the stats
        verify_seconds = time.monotonic() - started
        witness_json = None
        if not result.holds and job.config.concretize_witnesses:
            witness_json = _concretize_witness(job, result)
        outcome = JobOutcome.from_result(job, result, wall_seconds=verify_seconds)
        outcome.witness_json = witness_json
    outcome.total_seconds = time.monotonic() - started
    delta = metrics.since(baseline)
    outcome.counters = delta["counters"]
    outcome.phases = delta["phases"]
    outcome.attribution = delta["attribution"]
    trace.event(
        "job_finish",
        name=outcome.name,
        key=outcome.key,
        status=outcome.status,
        km_nodes=outcome.km_nodes,
        wall_seconds=outcome.wall_seconds,
        total_seconds=outcome.total_seconds,
        counters=outcome.counters,
        phases=outcome.phases,
        attribution=outcome.attribution,
    )
    return outcome.to_dict()


def _concretize_witness(job: VerificationJob, result) -> dict:
    """The concrete (or explicitly non-concretizable) witness JSON for a
    VIOLATED result; confirmed witnesses also enrich the result's witness
    steps with bindings.  Never raises — a concretization failure must
    not poison the verdict it explains."""
    from repro.witness import ConcreteWitness, attach_to_result, concretize

    try:
        witness = concretize(
            job.has,
            job.prop,
            result,
            time_budget=job.config.time_limit_seconds,
        )
        if isinstance(witness, ConcreteWitness) and witness.confirmed:
            attach_to_result(result, witness)
        return witness.to_dict()
    except Exception as exc:  # noqa: BLE001 — diagnostics, not verdicts
        return {
            "status": "non_concretizable",
            "kind": result.witness_kind,
            "property": result.property_name,
            "reason": f"{type(exc).__name__}: {exc}",
        }


def execute_job(job: VerificationJob, summary_store=None) -> JobOutcome:
    """In-process execution of one job (the ``workers=1`` path)."""
    return JobOutcome.from_dict(
        execute_payload(job.payload(), summary_store=summary_store)
    )


def run_payloads(
    payloads: Sequence[dict],
    workers: int = 1,
    on_outcome: Callable[[int, dict], None] | None = None,
    summary_store=None,
) -> list[dict]:
    """Fan serialized jobs across a process pool; results in input order.

    ``on_outcome(index, outcome_dict)`` fires as each job finishes (out of
    order under parallelism) — the CLI uses it for live progress.

    With ``summary_store``, the serial path shares one live store (its
    in-memory tier carries summaries from job to job even without a
    directory); parallel workers get the store's *directory* instead —
    spawn processes can't share the dict tier, so a memory-only store
    stays parent-only under ``workers>1``.
    """
    store = _resolve_summary_store(summary_store)
    if workers <= 1 or len(payloads) <= 1:
        results = []
        for index, payload in enumerate(payloads):
            outcome = execute_payload(payload, summary_store=store)
            if on_outcome is not None:
                on_outcome(index, outcome)
            results.append(outcome)
        return results

    store_dir = (
        str(store.directory)
        if store is not None and store.directory is not None
        else None
    )
    results: list[dict | None] = [None] * len(payloads)
    max_workers = min(workers, len(payloads))
    with ProcessPoolExecutor(max_workers=max_workers) as executor:
        pending = {
            executor.submit(execute_payload, payload, store_dir): index
            for index, payload in enumerate(payloads)
        }
        # worker processes never write the parent's trace (the tracer is
        # PID-guarded), so re-emit per-job events here from the outcome
        # dicts the workers sent back
        for payload in payloads:
            trace.event(
                "job_submit",
                name=str(payload.get("name", "?")),
                key=str(payload.get("key", "")),
            )
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                index = pending.pop(future)
                outcome = future.result()
                results[index] = outcome
                trace.event(
                    "job_finish",
                    name=outcome.get("name", "?"),
                    key=outcome.get("key", ""),
                    status=outcome.get("status", "?"),
                    km_nodes=outcome.get("km_nodes", 0),
                    wall_seconds=outcome.get("wall_seconds", 0.0),
                    total_seconds=outcome.get("total_seconds", 0.0),
                    counters=outcome.get("counters"),
                    phases=outcome.get("phases"),
                    attribution=outcome.get("attribution"),
                )
                if on_outcome is not None:
                    on_outcome(index, outcome)
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]
