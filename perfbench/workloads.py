"""The benchmark's three workloads: how a seed becomes jobs, and the
checks every outcome must pass.

Every limit is a Karp–Miller expansion count or never binds (the suite
default's 120 s per-job wall-clock limit is ~25x the slowest job), so
verdicts and counts do not depend on machine speed.  ``repro`` is
imported lazily: the orchestrator imports this module for its checks
and must still fail cleanly where ``src/repro`` is missing.
"""

from __future__ import annotations

import re

WORKLOADS = ("suite-cold", "travel-deep", "edit-rerun")

#: Jobs of the shipped ``gallery`` + ``families`` suites.
SUITE_JOBS = 104
#: Verdicts the edit-rerun fill stores: the 74 jobs that are not
#: promoted fuzz mutants, minus the one budget-boxed job (budget
#: outcomes are never cached).  edit-rerun serves them as cache hits and
#: executes the other 31 jobs: the 30 mutants and the budget-boxed job.
FILL_VERDICTS = 73

#: A promoted fuzz mutant: one or two grow-edits from another gallery
#: scenario, so the edited scenarios of edit-rerun.
_MUTANT_NAME = re.compile(r"^fuzz-.*-m\d+$")

#: travel-deep's root-search box, in KM expansions.  The seed picks it
#: from a narrow range: across 2,700–3,300 the wall time moves 34%
#: (12.9 s vs 17.3 s), which would swamp every run-to-run spread.
TRAVEL_BOX_MIN = 2_980
TRAVEL_BOX_SPAN = 41
TRAVEL_MAX_SUMMARIES = 100_000


def travel_box(seed: int) -> int:
    return TRAVEL_BOX_MIN + seed % TRAVEL_BOX_SPAN


def is_mutant(job) -> bool:
    return _MUTANT_NAME.match(job.has.name) is not None


def suite_jobs() -> list:
    """The 104 jobs of ``repro suite gallery`` + ``repro suite families``
    under the suite defaults, in suite order."""
    from repro.service.suites import build_suite

    return build_suite("gallery") + build_suite("families")


def travel_job(seed: int):
    from repro.examples.travel import discount_policy_property, travel_booking
    from repro.service.jobs import VerificationJob
    from repro.verifier.config import VerifierConfig

    has = travel_booking(fixed=False)
    return VerificationJob(
        has=has,
        prop=discount_policy_property(has),
        config=VerifierConfig(
            km_budget=travel_box(seed), max_summaries=TRAVEL_MAX_SUMMARIES
        ),
        name="travel-deep",
    )


def build_jobs(workload: str, seed: int) -> list:
    """The jobs one pass of ``workload`` feeds to ``run_batch``.

    The suite workloads run in suite order for every seed.  Job order
    decides what each job finds in the process-global caches, and a
    seed-driven order (shuffled or rotated) moved ``peak_rss_mb`` by up
    to 10% and ``job_p50_ms`` by ~8% from seed to seed: more than the
    run-to-run spread those metrics must stay within."""
    if workload == "travel-deep":
        return [travel_job(seed)]
    return suite_jobs()


def fill_jobs() -> list:
    """edit-rerun's fill: every job that is not a promoted fuzz mutant."""
    return [job for job in suite_jobs() if not is_mutant(job)]


def job_failure(workload: str, seed: int, record: dict) -> str | None:
    """Why one job's outcome record fails its check, or None.

    A suite job fails on an error, on a status other than its ``expect:``
    status, and on a violated verdict without a confirmed concrete
    witness (cached outcomes carry the witness stored with them).
    travel-deep must end ``budget_exceeded`` in the root search itself,
    after at least the box's expansions, so a change cannot end the box
    early by tripping a child budget."""
    status = record["status"]
    if status == "error":
        return f"error: {record['error']}"
    if workload == "travel-deep":
        if status != "budget_exceeded":
            return f"status {status}, expected budget_exceeded"
        if not record["error"].startswith("root search "):
            return f"budget exceeded outside the root search: {record['error']}"
        if record["km_nodes"] < travel_box(seed):
            return f"{record['km_nodes']} nodes, fewer than the box's expansions"
        return None
    if status != record["expected_status"]:
        return f"status {status}, expected {record['expected_status']}"
    if status == "violated" and record["witness_status"] != "confirmed":
        return f"witness {record['witness_status']}, expected confirmed"
    return None


def pass_failures(workload: str, seed: int, summary: dict) -> list[str]:
    """Whole-pass invariants of a workload (job count, cache traffic)."""
    problems = []
    jobs = len(summary["jobs"])
    expected_jobs = 1 if workload == "travel-deep" else SUITE_JOBS
    if jobs != expected_jobs:
        problems.append(f"{jobs} jobs, expected {expected_jobs}")
    hits = sum(1 for record in summary["jobs"] if record["cache_hit"])
    expected_hits = FILL_VERDICTS if workload == "edit-rerun" else 0
    if hits != expected_hits:
        problems.append(f"{hits} result-cache hits, expected {expected_hits}")
    return problems
