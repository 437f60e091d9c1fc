"""Verifier configuration: search budgets and reporting knobs."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class VerifierConfig:
    """Budgets bounding the symbolic search.

    The verification problem is EXPSPACE-hard even in the easiest cells of
    Table 1, so budgets are a practical necessity; exceeding one raises
    :class:`repro.errors.BudgetExceeded` rather than returning an unsound
    verdict.
    """

    km_budget: int = 20_000
    """Karp–Miller node-expansion budget per task summary."""

    max_condition_branches: int = 512
    """Cap on refinements produced when applying one condition."""

    max_outputs_per_summary: int = 256
    """Cap on distinct output types collected per child summary."""

    max_summaries: int = 10_000
    """Cap on memoized child summaries (guards runaway recursion)."""

    collect_witness: bool = True
    """Record witness paths for violated properties."""

    concretize_witnesses: bool = True
    """After a VIOLATED verdict, materialize + replay-validate + minimize
    a concrete counterexample (``repro.witness``) and attach it to the
    job outcome; failures surface as ``non_concretizable``, never as
    job errors.  Minimization gets its own time allotment equal to
    ``time_limit_seconds`` (it runs after the verdict, outside the
    verification deadline)."""

    time_limit_seconds: float | None = None
    """Wall-clock limit for one verify() call; exceeding it raises
    BudgetExceeded (useful for benchmark sweeps)."""
