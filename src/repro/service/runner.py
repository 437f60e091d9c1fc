"""Batch orchestration: cache lookup → parallel execution → report.

``run_batch`` is the service's main API: it resolves each job's content
key against the cache, fans the misses across the worker pool, stores
fresh results back, and returns a :class:`BatchReport` with per-job
outcomes (in job order), merged search statistics, and JSONL export.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.obs import metrics, trace
from repro.perf.counters import PerfCounters
from repro.service.cache import ResultCache
from repro.service.jobs import (
    JobOutcome,
    STATUS_BUDGET_EXCEEDED,
    STATUS_ERROR,
    STATUS_VIOLATED,
    VerificationJob,
)
from repro.service.pool import run_payloads
from repro.verifier.result import VerificationStats


@dataclass
class BatchReport:
    """Everything a batch run produced, in the order jobs were given."""

    outcomes: list[JobOutcome] = field(default_factory=list)
    workers: int = 1
    wall_seconds: float = 0.0

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cache_hit)

    @property
    def violations(self) -> int:
        return sum(1 for o in self.outcomes if o.status == STATUS_VIOLATED)

    @property
    def budget_exceeded(self) -> int:
        return sum(1 for o in self.outcomes if o.status == STATUS_BUDGET_EXCEEDED)

    @property
    def errors(self) -> int:
        return sum(1 for o in self.outcomes if o.status == STATUS_ERROR)

    @property
    def unexpected(self) -> list[JobOutcome]:
        """Jobs whose verdict contradicts their declared expectation."""
        return [o for o in self.outcomes if o.as_expected is False]

    @property
    def concretized(self) -> int:
        """Violations carrying a confirmed concrete counterexample."""
        return sum(
            1
            for o in self.outcomes
            if o.witness_json is not None
            and o.witness_json.get("status") == "confirmed"
        )

    @property
    def non_concretizable(self) -> list[JobOutcome]:
        """Violations whose attempted concretization did not confirm.
        Jobs where concretization never ran (disabled by config, or
        cached outcomes predating the feature) are not failures and are
        excluded."""
        return [
            o
            for o in self.outcomes
            if o.status == STATUS_VIOLATED
            and o.witness_json is not None
            and o.witness_json.get("status") != "confirmed"
        ]

    def merged_stats(self) -> VerificationStats:
        """Search statistics summed across the batch."""
        stats = VerificationStats()
        for outcome in self.outcomes:
            per_job = outcome.stats or {}
            stats.merge(
                VerificationStats(
                    km_nodes=outcome.km_nodes,
                    summaries=outcome.summaries,
                    wall_seconds=outcome.wall_seconds,
                    summary_hits=per_job.get("summary_hits", 0),
                    summaries_reused=per_job.get("summaries_reused", 0),
                    km_nodes_reused=per_job.get("km_nodes_reused", 0),
                )
            )
        return stats

    def merged_metrics(self) -> dict[str, dict]:
        """Every metric kind (:data:`repro.obs.metrics.KINDS`) summed
        across the processes that did work this run — each live outcome
        carries the deltas taken in the process that executed it, so
        worker-process activity is counted even though the workers'
        registries died with them.  Cache hits are excluded: their stored
        deltas describe the run that populated the cache, not this one."""
        totals: dict[str, dict] = {kind: {} for kind in metrics.KINDS}
        for outcome in self.outcomes:
            if not outcome.cache_hit:
                metrics.merge(totals, outcome)
        return totals

    def merged_rates(self) -> dict[str, float | None]:
        """Suite-level cache hit rates (None = never consulted)."""
        return PerfCounters.rates(self.merged_metrics()["counters"])

    # ------------------------------------------------------------------
    # rendering / export
    # ------------------------------------------------------------------
    def format_report(self) -> str:
        lines = [outcome.one_line() for outcome in self.outcomes]
        stats = self.merged_stats()
        lines.append("-" * 72)
        lines.append(
            f"{self.total} jobs, {self.cache_hits} cache hits, "
            f"{self.violations} violated ({self.concretized} concrete), "
            f"{self.budget_exceeded} budget-exceeded, "
            f"{self.errors} errors"
        )
        lines.append(
            f"workers={self.workers}  batch wall {self.wall_seconds:.3f}s  "
            f"job wall Σ {stats.wall_seconds:.3f}s  "
            f"km nodes Σ {stats.km_nodes}  summaries Σ {stats.summaries}"
        )
        rates = self.merged_rates()
        if any(rate is not None for rate in rates.values()):
            rendered = "  ".join(
                f"{cache} {'n/a' if rate is None else format(rate, '.1%')}"
                for cache, rate in sorted(rates.items())
            )
            lines.append(f"cache rates (all processes): {rendered}")
        if self.unexpected:
            lines.append(
                "UNEXPECTED verdicts: "
                + ", ".join(o.name for o in self.unexpected)
            )
        return "\n".join(lines)

    def to_jsonl(self, path: str | Path) -> None:
        """One JSON object per job, plus a trailing aggregate record."""
        path = Path(path)
        with path.open("w") as handle:
            for outcome in self.outcomes:
                handle.write(json.dumps(outcome.to_dict(), sort_keys=True) + "\n")
            stats = self.merged_stats()
            totals = self.merged_metrics()
            handle.write(
                json.dumps(
                    {
                        "aggregate": True,
                        "total": self.total,
                        "cache_hits": self.cache_hits,
                        "violations": self.violations,
                        "concretized": self.concretized,
                        "budget_exceeded": self.budget_exceeded,
                        "errors": self.errors,
                        "workers": self.workers,
                        "wall_seconds": self.wall_seconds,
                        "km_nodes": stats.km_nodes,
                        "summaries": stats.summaries,
                        # cross-process metrics from every executing
                        # process, rates with null = unconsulted
                        **totals,
                        "rates": PerfCounters.rates(totals["counters"]),
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def run_batch(
    jobs: Sequence[VerificationJob],
    workers: int = 1,
    cache: ResultCache | None = None,
    on_outcome: Callable[[JobOutcome], None] | None = None,
    summary_store=None,
) -> BatchReport:
    """Run a batch of jobs, consulting and filling ``cache`` by content key.

    Jobs sharing a content key are verified once; every occurrence after
    the first is served from the cache (the first from the live run).
    ``on_outcome`` fires per finished job, cache hits included.
    ``summary_store`` (a :class:`~repro.service.cache.SummaryStore` or a
    directory path) additionally enables sub-job reuse: task summaries
    persist across jobs — and across batch invocations, when backed by a
    directory — keyed by task-subtree content, so edited scenarios only
    re-explore the subtrees the edit can reach.
    """
    started = time.monotonic()
    keys = [job.key() for job in jobs]
    outcomes: list[JobOutcome | None] = [None] * len(jobs)
    # bracket the batch for trace listeners: the heartbeat reads the
    # total from here for its [k/N] counters and renders the final suite
    # summary from suite_done (cache hits never emit job events, so
    # listeners can't infer completion from job_finish counts alone)
    trace.event("suite_start", total=len(jobs), workers=workers)

    # cache pass — also dedupe identical jobs within the batch
    miss_indices: list[int] = []
    scheduled: dict[str, int] = {}
    duplicates: dict[int, int] = {}
    for index, (job, key) in enumerate(zip(jobs, keys)):
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            # provenance is per-request: keep this job's name/expectation;
            # drop the stored metrics — a cache hit did no work this run,
            # so its counters/phases describe the run that filled the cache
            cached.name = job.name
            cached.expected_holds = job.expected_holds
            cached.expected_status = job.expected_status
            cached.counters = None
            cached.phases = None
            cached.attribution = None
            outcomes[index] = cached
            if on_outcome is not None:
                on_outcome(cached)
        elif key in scheduled:
            duplicates[index] = scheduled[key]
        else:
            scheduled[key] = index
            miss_indices.append(index)

    if miss_indices:
        payloads = [jobs[i].payload() for i in miss_indices]

        def deliver(position: int, data: dict) -> None:
            index = miss_indices[position]
            outcome = JobOutcome.from_dict(data)
            outcomes[index] = outcome
            # Only verdicts are cacheable: budget_exceeded depends on the
            # machine/load (wall-clock deadlines) and errors may be
            # transient, so neither may be served as the job's answer later.
            if cache is not None and outcome.ok:
                cache.put(keys[index], outcome)
            if on_outcome is not None:
                on_outcome(outcome)

        run_payloads(
            payloads,
            workers=workers,
            on_outcome=deliver,
            summary_store=summary_store,
        )

    for index, source in duplicates.items():
        original = outcomes[source]
        assert original is not None
        copy = JobOutcome.from_dict(original.to_dict())
        copy.cache_hit = True
        copy.name = jobs[index].name
        copy.expected_holds = jobs[index].expected_holds
        copy.expected_status = jobs[index].expected_status
        copy.counters = None
        copy.phases = None
        copy.attribution = None
        outcomes[index] = copy
        if on_outcome is not None:
            on_outcome(copy)

    assert all(o is not None for o in outcomes)
    report = BatchReport(
        outcomes=[o for o in outcomes if o is not None],
        workers=workers,
        wall_seconds=time.monotonic() - started,
    )
    trace.event(
        "suite_done",
        total=report.total,
        cache_hits=report.cache_hits,
        violations=report.violations,
        budget_exceeded=report.budget_exceeded,
        errors=report.errors,
        wall_seconds=report.wall_seconds,
    )
    return report
