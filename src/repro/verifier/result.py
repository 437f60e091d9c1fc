"""Verification results and symbolic witnesses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.vass.karp_miller import KMNode
    from repro.verifier.task_vass import StepTag, TaskVASS


@dataclass(frozen=True)
class WitnessStep:
    """One step of a counterexample run.

    ``bindings`` is empty for a purely symbolic witness; concretization
    (``repro.witness``) attaches the step's concrete variable values as
    sorted ``(name, rendered value)`` pairs.
    """

    task: str
    service: str
    detail: str = ""
    bindings: tuple[tuple[str, str], ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        suffix = f" [{self.detail}]" if self.detail else ""
        if self.bindings:
            rendered = ", ".join(f"{name}={value}" for name, value in self.bindings)
            suffix += f" {{{rendered}}}"
        return f"{self.task}: {self.service}{suffix}"


@dataclass
class SymbolicTrace:
    """The raw material of a violation witness, kept in-process only.

    Holds the root :class:`~repro.verifier.task_vass.TaskVASS`, the KM tree
    path to the accepting node (``start`` + one ``(tag, node)`` pair per
    transition), and — for lasso witnesses — the ordered cycle edges.  The
    ``repro.witness`` package turns this into a concrete, replayable run;
    it never crosses a process or serialization boundary.
    """

    vass: "TaskVASS"
    start: "KMNode"
    path: list[tuple["StepTag", "KMNode"]]
    cycle: list[tuple["StepTag", "KMNode"]] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return "lasso" if self.cycle else "blocking"


@dataclass
class VerificationStats:
    km_nodes: int = 0
    summaries: int = 0
    summary_hits: int = 0
    summaries_reused: int = 0
    """Summaries installed from the persistent cross-job store instead of
    being explored (a subset of ``summaries``; their ``km_nodes_reused``
    nodes are credited into ``km_nodes`` so cold and warm totals agree)."""
    km_nodes_reused: int = 0
    """KM nodes credited from store-installed summaries (a subset of
    ``km_nodes``: the exploration the persistent store saved)."""
    wall_seconds: float = 0.0

    def merge(self, other: "VerificationStats") -> "VerificationStats":
        """Accumulate another run's statistics into this one (batch
        aggregation across jobs and worker processes)."""
        self.km_nodes += other.km_nodes
        self.summaries += other.summaries
        self.summary_hits += other.summary_hits
        self.summaries_reused += other.summaries_reused
        self.km_nodes_reused += other.km_nodes_reused
        self.wall_seconds += other.wall_seconds
        return self

    def to_dict(self) -> dict:
        """Every field as plain JSON (``verify --json`` exposes this)."""
        return {
            "km_nodes": self.km_nodes,
            "summaries": self.summaries,
            "summary_hits": self.summary_hits,
            "summaries_reused": self.summaries_reused,
            "km_nodes_reused": self.km_nodes_reused,
            "wall_seconds": self.wall_seconds,
        }


@dataclass
class VerificationResult:
    """Outcome of checking ``Γ ⊨ φ``.

    ``holds`` is True when every tree of local runs satisfies the
    property; False comes with a symbolic witness of the negation (a
    prefix of a violating run of the root task, plus the lasso/blocking
    classification).  For lasso witnesses ``loop_start`` is the index in
    ``witness`` where the infinitely-repeated segment begins; it is None
    for blocking witnesses and for held properties.
    """

    holds: bool
    property_name: str
    witness: list[WitnessStep] = field(default_factory=list)
    witness_kind: str = ""  # "lasso" | "blocking" | ""
    loop_start: int | None = None
    stats: VerificationStats = field(default_factory=VerificationStats)
    symbolic_trace: SymbolicTrace | None = field(
        default=None, repr=False, compare=False
    )

    def explain(self) -> str:
        """Human-readable summary of the result."""
        if self.holds:
            return (
                f"property {self.property_name!r} HOLDS "
                f"({self.stats.km_nodes} symbolic states, "
                f"{self.stats.summaries} task summaries)"
            )
        lines = [
            f"property {self.property_name!r} VIOLATED "
            f"({self.witness_kind or 'run'} counterexample):"
        ]
        for index, step in enumerate(self.witness):
            marker = "↻ " if self.loop_start is not None and index == self.loop_start else "  "
            lines.append(f"  {marker}{step!r}")
        if self.loop_start is not None:
            looped = len(self.witness) - self.loop_start
            lines.append(
                f"  (the last {looped} step{'s' if looped != 1 else ''} "
                f"repeat forever)"
            )
        return "\n".join(lines)
