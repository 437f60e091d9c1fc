"""Named job suites: a realistic verification traffic mix.

Suites assemble :class:`VerificationJob` batches from the Table 1 /
Table 2 workload families (``repro.workloads``), the travel-booking
example (``repro.examples.travel``), and the ``.has`` scenario gallery
(``repro.dsl`` + ``src/repro/workloads/gallery/``):

* ``table1`` — every Table-1 cell (3 schema classes × sets × verdict),
  plus navigation-chain and depth-3 variants;
* ``table2`` — the same grid with linear arithmetic (Table 2);
* ``travel`` — the travel-lite policy on the buggy and fixed variants,
  plus the full six-task system under a tight KM budget (exercises
  graceful ``BudgetExceeded`` capture);
* ``gallery`` — every scenario in the shipped ``.has`` gallery
  (order fulfillment, loan approval, insurance claims, … — see
  docs/dsl.md); each file's own ``config`` block wins over the suite
  defaults, so the budget-boxed entries stay boxed;
* ``mixed`` — the service's kitchen-sink traffic: all of the above;
* ``quick`` — a four-job smoke suite for CI.

:func:`build_suite` also accepts a path instead of a suite name: a
single ``.has`` file, or a directory of them (sorted by file name) —
``python -m repro suite workloads/my-scenarios/`` runs a user's own
gallery through the batch service.

``--quick`` (the ``quick`` flag here) trims every suite to its fastest
representatives so CI smoke runs stay in seconds (the gallery is
all-quick by construction and is never trimmed).
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

from repro.database.fkgraph import SchemaClass
from repro.examples.travel import (
    discount_policy_property,
    discount_policy_property_lite,
    travel_booking,
    travel_lite,
)
from repro.service.jobs import VerificationJob, job_from_spec
from repro.verifier.config import VerifierConfig
from repro.workloads import table1_workload, table2_workload

ALL_CLASSES = (
    SchemaClass.ACYCLIC,
    SchemaClass.LINEARLY_CYCLIC,
    SchemaClass.CYCLIC,
)

_DEFAULT_CONFIG = VerifierConfig(km_budget=60_000, time_limit_seconds=120.0)

#: KM budget of the deliberately-too-hard full travel job: its root
#: search runs out of it, so the outcome does not depend on machine speed.
_HARD_JOB_KM_BUDGET = 1_000


def _table_jobs(builder, quick: bool, config: VerifierConfig) -> list[VerificationJob]:
    classes = (SchemaClass.ACYCLIC,) if quick else ALL_CLASSES
    jobs = []
    for schema_class in classes:
        for with_sets in (False, True):
            for violated in (False, True):
                jobs.append(
                    job_from_spec(
                        builder(
                            schema_class,
                            depth=2,
                            with_sets=with_sets,
                            violated=violated,
                        ),
                        config,
                    )
                )
        if not quick:
            # navigation-chain and deeper-hierarchy variants
            chained = job_from_spec(builder(schema_class, depth=2, chain=2), config)
            jobs.append(replace(chained, name=f"{chained.name}+chain2"))
            jobs.append(job_from_spec(builder(schema_class, depth=3), config))
    return jobs


def _travel_jobs(quick: bool, config: VerifierConfig) -> list[VerificationJob]:
    jobs = []
    for fixed in (False, True):
        has = travel_lite(fixed)
        jobs.append(
            VerificationJob(
                has=has,
                prop=discount_policy_property_lite(has),
                config=config,
                name=f"{has.name}::lite-discount-policy",
                expected_holds=fixed,
            )
        )
    if not quick:
        # The full six-task policy check is beyond the default budgets;
        # run it under a tight KM budget so the batch records a
        # budget_exceeded outcome instead of stalling.
        has = travel_booking(fixed=False)
        jobs.append(
            VerificationJob(
                has=has,
                prop=discount_policy_property(has),
                config=replace(config, km_budget=_HARD_JOB_KM_BUDGET),
                name=f"{has.name}::discount-policy (tight budget)",
            )
        )
    return jobs


def _quick_jobs(config: VerifierConfig) -> list[VerificationJob]:
    jobs = [
        job_from_spec(table1_workload(SchemaClass.ACYCLIC, depth=2), config),
        job_from_spec(
            table1_workload(SchemaClass.ACYCLIC, depth=2, violated=True), config
        ),
        job_from_spec(table2_workload(SchemaClass.CYCLIC, depth=2), config),
    ]
    has = travel_lite(fixed=True)
    jobs.append(
        VerificationJob(
            has=has,
            prop=discount_policy_property_lite(has),
            config=config,
            name=f"{has.name}::lite-discount-policy",
            expected_holds=True,
        )
    )
    return jobs


def gallery_dir() -> Path:
    """The shipped ``.has`` scenario gallery (next to ``repro.workloads``)."""
    import repro.workloads

    return Path(repro.workloads.__file__).parent / "gallery"


def _gallery_jobs(quick: bool, config: VerifierConfig) -> list[VerificationJob]:
    # every gallery scenario is quick-sized by construction, so --quick
    # is the identity here; file-level config blocks win over the suite
    # default (the budget-boxed entries depend on that)
    from repro.dsl import directory_jobs

    return directory_jobs(gallery_dir(), default_config=config)


def _families_jobs(quick: bool, config: VerifierConfig) -> list[VerificationJob]:
    # the checked-in size sweep of repro.workloads.families; --quick
    # keeps only the smallest size of each family
    from repro.dsl import directory_jobs
    from repro.workloads.families import FAMILY_SIZES, build_family, families_dir

    jobs = directory_jobs(families_dir(), default_config=config)
    if quick:
        smallest = {
            build_family(family, min(sizes)).has.name
            for family, sizes in FAMILY_SIZES.items()
        }
        jobs = [job for job in jobs if job.name.split("::", 1)[0] in smallest]
    return jobs


_SUITES = {
    "table1": lambda quick, config: _table_jobs(table1_workload, quick, config),
    "table2": lambda quick, config: _table_jobs(table2_workload, quick, config),
    "travel": _travel_jobs,
    "gallery": _gallery_jobs,
    "families": _families_jobs,
    "mixed": lambda quick, config: (
        _table_jobs(table1_workload, quick, config)
        + _table_jobs(table2_workload, quick, config)
        + _travel_jobs(quick, config)
        + _gallery_jobs(quick, config)
        + _families_jobs(quick, config)
    ),
    "quick": lambda quick, config: _quick_jobs(config),
}


def suite_names() -> tuple[str, ...]:
    return tuple(_SUITES)


def build_suite(
    name: str,
    quick: bool = False,
    config: VerifierConfig | None = None,
) -> list[VerificationJob]:
    """The named suite's jobs; raises ``KeyError`` for unknown names.

    ``name`` may also be a filesystem path: a single ``.has`` scenario
    file (all its properties become jobs) or a directory of ``.has``
    files (sorted by file name).  File-level ``config`` blocks win over
    ``config``; scenarios without one run under the suite defaults.
    """
    if name not in _SUITES and _looks_like_path(name):
        from repro.dsl import directory_jobs, file_jobs

        path = Path(name)
        if path.suffix == ".has":
            if not path.is_file():
                raise KeyError(f"{name}: scenario file not found")
            return file_jobs(path, config or _DEFAULT_CONFIG)
        if path.is_dir():
            return directory_jobs(path, default_config=config or _DEFAULT_CONFIG)
        raise KeyError(f"{name}: not a .has file or a directory of them")
    try:
        builder = _SUITES[name]
    except KeyError:
        known = ", ".join(sorted(_SUITES))
        # note: str(KeyError) adds repr quotes; CLI callers use .args[0]
        raise KeyError(f"unknown suite {name!r} (known: {known})") from None
    return builder(quick, config or _DEFAULT_CONFIG)


def _looks_like_path(name: str) -> bool:
    return (
        name.endswith(".has")
        or os.sep in name
        or (os.altsep is not None and os.altsep in name)
        or Path(name).is_dir()
    )
