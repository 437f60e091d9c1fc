"""The document model of a ``.has`` scenario file.

A document bundles everything one file can declare: a single HAS system,
any number of HLTL-FO properties (each with an optional expected
verdict), optional concrete database instances, and an optional verifier
configuration.  :meth:`ScenarioDocument.jobs` turns the document into
content-addressed :class:`~repro.service.jobs.VerificationJob` batches —
a ``.has`` file is exactly one scenario's worth of verification traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.database.instance import DatabaseInstance
from repro.errors import SpecificationError
from repro.has.system import HAS
from repro.hltl.formulas import HLTLProperty
from repro.verifier.config import VerifierConfig

#: The verdicts a property block may declare with ``expect:``.
EXPECTATIONS = ("holds", "violated", "budget_exceeded")


@dataclass
class PropertyEntry:
    """One property of a document plus its documented expected verdict."""

    prop: HLTLProperty
    expect: str | None = None

    def __post_init__(self) -> None:
        if self.expect is not None and self.expect not in EXPECTATIONS:
            raise SpecificationError(
                f"property {self.prop.name!r}: expect must be one of "
                f"{', '.join(EXPECTATIONS)}, not {self.expect!r}"
            )

    @property
    def expected_holds(self) -> bool | None:
        """The job-level expectation: True/False for holds/violated,
        None for budget_exceeded (jobs only track boolean verdicts)."""
        if self.expect == "holds":
            return True
        if self.expect == "violated":
            return False
        return None


@dataclass
class ScenarioDocument:
    """A parsed ``.has`` file: system + properties + instances + config."""

    system: HAS
    properties: list[PropertyEntry] = field(default_factory=list)
    instances: list[tuple[str, DatabaseInstance]] = field(default_factory=list)
    config: VerifierConfig | None = None
    source: str = "<string>"

    def property_named(self, name: str) -> PropertyEntry:
        for entry in self.properties:
            if entry.prop.name == name:
                return entry
        known = ", ".join(e.prop.name for e in self.properties) or "none"
        raise SpecificationError(
            f"{self.source}: no property {name!r} (declared: {known})"
        )

    def jobs(self, default_config: VerifierConfig | None = None) -> list:
        """One :class:`VerificationJob` per property.

        A ``config`` block in the file wins over ``default_config`` —
        budget-boxed scenarios carry their own tight budgets so their
        documented verdict is reproducible under any suite defaults.
        ``expect:`` verdicts become full-status job expectations, so a
        batch run flags ANY drift from the documented verdict
        (including a budget-boxed scenario finishing within budget) as
        UNEXPECTED.
        """
        from repro.service.jobs import VerificationJob

        config = self.config or default_config or VerifierConfig()
        return [
            VerificationJob(
                has=self.system,
                prop=entry.prop,
                config=config,
                name=f"{self.system.name}::{entry.prop.name}",
                expected_holds=entry.expected_holds,
                expected_status=entry.expect,
            )
            for entry in self.properties
        ]
