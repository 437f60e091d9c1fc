"""Verification jobs: content-addressed units of batch work.

A :class:`VerificationJob` bundles a system, a property, and the budget
configuration under which to verify it.  Its :meth:`VerificationJob.key`
is a SHA-256 over the canonical serialization of all three, so two jobs
share a key exactly when they would produce the same verdict — the
invariant the result cache relies on.

A :class:`JobOutcome` is the plain-data record of one job's run: verdict,
witness, search statistics, and provenance (cache hit, worker error).  It
serializes to JSON for the cache, the JSONL export, and cross-process
transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.errors import SpecificationError
from repro.has.system import HAS
from repro.hltl.formulas import HLTLProperty
from repro.service.serialize import canonical_json, content_hash, from_dict, to_dict
from repro.verifier.config import VerifierConfig
from repro.verifier.result import VerificationResult

#: Job status values, in report order.
STATUS_HOLDS = "holds"
STATUS_VIOLATED = "violated"
STATUS_BUDGET_EXCEEDED = "budget_exceeded"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class VerificationJob:
    """One unit of verification work: ``(Γ, φ, budgets)``."""

    has: HAS
    prop: HLTLProperty
    config: VerifierConfig = field(default_factory=VerifierConfig)
    name: str = ""
    expected_holds: bool | None = None
    expected_status: str | None = None
    """The full-status expectation (any of the four STATUS_* values) —
    unlike the boolean ``expected_holds`` it can also pin
    ``budget_exceeded`` (the DSL's ``expect:`` verdicts).  Derived from
    ``expected_holds`` when not given explicitly."""

    def __post_init__(self) -> None:
        if not self.name:
            object.__setattr__(
                self, "name", f"{self.has.name}::{self.prop.name}"
            )
        if self.expected_status is None and self.expected_holds is not None:
            object.__setattr__(
                self,
                "expected_status",
                STATUS_HOLDS if self.expected_holds else STATUS_VIOLATED,
            )
        if self.expected_status is not None and self.expected_status not in (
            STATUS_HOLDS,
            STATUS_VIOLATED,
            STATUS_BUDGET_EXCEEDED,
            STATUS_ERROR,
        ):
            raise SpecificationError(
                f"{self.name}: invalid expected_status {self.expected_status!r}"
            )
        object.__setattr__(self, "_key", None)

    # ------------------------------------------------------------------
    # content addressing
    # ------------------------------------------------------------------
    def payload(self) -> dict:
        """The job's wire form: everything a worker needs, as plain JSON.
        The precomputed key rides along so workers never re-hash."""
        return {
            "has": to_dict(self.has),
            "prop": to_dict(self.prop),
            "config": to_dict(self.config),
            "name": self.name,
            "expected_holds": self.expected_holds,
            "expected_status": self.expected_status,
            "key": self.key(),
        }

    def key(self) -> str:
        """Content-addressed key: identical (system, property, config)
        triples hash identically regardless of job name or expectation.
        Serialization and hashing run once per instance."""
        if self._key is None:
            object.__setattr__(
                self,
                "_key",
                content_hash(
                    {
                        "has": to_dict(self.has),
                        "prop": to_dict(self.prop),
                        "config": to_dict(self.config),
                    }
                ),
            )
        return self._key

    @staticmethod
    def from_payload(payload: Mapping[str, Any]) -> "VerificationJob":
        job = VerificationJob(
            has=from_dict(payload["has"]),
            prop=from_dict(payload["prop"]),
            config=from_dict(payload["config"]),
            name=payload.get("name", ""),
            expected_holds=payload.get("expected_holds"),
            expected_status=payload.get("expected_status"),
        )
        if payload.get("key"):
            object.__setattr__(job, "_key", payload["key"])
        return job

    def with_config(self, config: VerifierConfig) -> "VerificationJob":
        return replace(self, config=config)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VerificationJob({self.name}, key={self.key()[:12]})"


def job_from_spec(spec, config: VerifierConfig | None = None) -> VerificationJob:
    """Build a job from a :class:`~repro.workloads.WorkloadSpec`."""
    return VerificationJob(
        has=spec.has,
        prop=spec.prop,
        config=config or VerifierConfig(),
        name=spec.name,
        expected_holds=spec.expected_holds,
    )


@dataclass
class JobOutcome:
    """The structured result of running (or cache-hitting) one job."""

    name: str
    key: str
    status: str
    holds: bool | None = None
    witness_kind: str = ""
    witness: list[str] = field(default_factory=list)
    loop_start: int | None = None
    witness_json: dict | None = None
    """The concrete counterexample (``repro.witness`` JSON): a validated
    database + run for VIOLATED verdicts, or a ``non_concretizable``
    record with the reason; None when concretization is disabled or the
    property holds."""
    km_nodes: int = 0
    summaries: int = 0
    wall_seconds: float = 0.0
    cache_hit: bool = False
    error: str = ""
    expected_holds: bool | None = None
    expected_status: str | None = None
    stats: dict | None = None
    """The full :class:`~repro.verifier.result.VerificationStats` dict
    (``verify --json`` exposes it); None for budget/error outcomes and
    records predating the field."""
    counters: dict | None = None
    """This job's :mod:`repro.perf.counters` deltas, taken by
    :func:`repro.obs.metrics.since` in the process that ran it — the
    worker's, under ``workers>1`` — so batch aggregation sees every
    process's cache traffic, not just the parent's.  None on cache hits
    (the job did no work this run)."""
    phases: dict | None = None
    """This job's per-phase ``{calls, seconds}`` (:mod:`repro.perf.phases`),
    captured like ``counters``; covers verification *and* witness
    concretization."""
    attribution: dict | None = None
    """Per-(task, service) search-cost attribution
    (:mod:`repro.obs.attribution`), captured like ``counters``; None on
    cache hits."""
    total_seconds: float = 0.0
    """Wall clock for the whole job including witness concretization
    (``wall_seconds`` measures verification only)."""

    @property
    def ok(self) -> bool:
        """True when the job produced a verdict (held or violated)."""
        return self.status in (STATUS_HOLDS, STATUS_VIOLATED)

    @property
    def as_expected(self) -> bool | None:
        """Verdict vs. the job's expectation; None when no expectation.

        A full-status expectation compares statuses directly — so a
        ``budget_exceeded`` expectation (the DSL's budget-boxed
        scenarios) is *enforced*: finishing within budget flips the job
        to UNEXPECTED.  The boolean ``expected_holds`` keeps its legacy
        contract (undecided outcomes are not judged)."""
        if self.expected_status is not None:
            return self.status == self.expected_status
        if self.expected_holds is None or not self.ok:
            return None
        return self.holds == self.expected_holds

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "key": self.key,
            "status": self.status,
            "holds": self.holds,
            "witness_kind": self.witness_kind,
            "witness": list(self.witness),
            "loop_start": self.loop_start,
            "witness_json": self.witness_json,
            "km_nodes": self.km_nodes,
            "summaries": self.summaries,
            "wall_seconds": self.wall_seconds,
            "cache_hit": self.cache_hit,
            "error": self.error,
            "expected_holds": self.expected_holds,
            "expected_status": self.expected_status,
            "stats": self.stats,
            "counters": self.counters,
            "phases": self.phases,
            "attribution": self.attribution,
            "total_seconds": self.total_seconds,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "JobOutcome":
        return JobOutcome(
            name=data["name"],
            key=data["key"],
            status=data["status"],
            holds=data.get("holds"),
            witness_kind=data.get("witness_kind", ""),
            witness=list(data.get("witness", ())),
            loop_start=data.get("loop_start"),
            witness_json=data.get("witness_json"),
            km_nodes=data.get("km_nodes", 0),
            summaries=data.get("summaries", 0),
            wall_seconds=data.get("wall_seconds", 0.0),
            cache_hit=data.get("cache_hit", False),
            error=data.get("error", ""),
            expected_holds=data.get("expected_holds"),
            expected_status=data.get("expected_status"),
            stats=data.get("stats"),
            counters=data.get("counters"),
            phases=data.get("phases"),
            attribution=data.get("attribution"),
            total_seconds=data.get("total_seconds", 0.0),
        )

    def semantic_dict(self) -> dict:
        """The run-independent slice of the outcome: everything except
        timing, metrics, and cache provenance.  Two runs of the same job —
        serial or parallel, cached or not — must agree on this dict
        exactly.  ``counters`` are excluded because per-job cache traffic
        depends on what ran earlier in the same process; ``stats``,
        ``phases``, and ``attribution`` because they embed wall-clock
        seconds."""
        data = self.to_dict()
        del data["wall_seconds"]
        del data["cache_hit"]
        del data["stats"]
        del data["counters"]
        del data["phases"]
        del data["attribution"]
        del data["total_seconds"]
        return data

    def semantic_bytes(self) -> bytes:
        """Canonical bytes of :meth:`semantic_dict` (parity comparisons)."""
        return canonical_json(self.semantic_dict()).encode("ascii")

    @staticmethod
    def from_result(
        job: VerificationJob, result: VerificationResult, wall_seconds: float
    ) -> "JobOutcome":
        return JobOutcome(
            name=job.name,
            key=job.key(),
            status=STATUS_HOLDS if result.holds else STATUS_VIOLATED,
            holds=result.holds,
            witness_kind=result.witness_kind,
            witness=[repr(step) for step in result.witness],
            loop_start=result.loop_start,
            km_nodes=result.stats.km_nodes,
            summaries=result.stats.summaries,
            wall_seconds=wall_seconds,
            expected_holds=job.expected_holds,
            expected_status=job.expected_status,
            stats=result.stats.to_dict(),
        )

    def one_line(self) -> str:
        """Compact per-job report line."""
        if self.status == STATUS_HOLDS:
            verdict = "HOLDS   "
        elif self.status == STATUS_VIOLATED:
            verdict = "VIOLATED"
        elif self.status == STATUS_BUDGET_EXCEEDED:
            verdict = "BUDGET  "
        else:
            verdict = "ERROR   "
        flags = []
        if self.cache_hit:
            flags.append("cached")
        if self.witness_kind:
            flags.append(self.witness_kind)
        if self.witness_json:
            concrete = self.witness_json.get("status", "")
            flags.append("concrete" if concrete == "confirmed" else concrete)
        if self.as_expected is False:
            flags.append("UNEXPECTED")
        suffix = f" ({', '.join(flags)})" if flags else ""
        return (
            f"{verdict} {self.name:48s} "
            f"km={self.km_nodes:<7d} {self.wall_seconds:7.3f}s{suffix}"
        )
