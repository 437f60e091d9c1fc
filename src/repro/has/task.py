"""Task schemas and the task hierarchy (Definitions 2 and 3).

A task owns a tuple of artifact variables ``x̄^T``, an artifact relation
``S^T`` holding tuples of the fixed ID-variable sequence ``s̄^T``, a set of
internal services, an opening and a closing service, and child tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import SpecificationError
from repro.has.services import ClosingService, InternalService, OpeningService
from repro.logic.terms import Variable, VarKind


@dataclass(frozen=True)
class Task:
    """A task schema ``T = (x̄^T, S^T, s̄^T)`` with its services and children."""

    name: str
    variables: tuple[Variable, ...]
    set_variables: tuple[Variable, ...] = ()
    services: tuple[InternalService, ...] = ()
    opening: OpeningService = field(default_factory=OpeningService)
    closing: ClosingService = field(default_factory=ClosingService)
    children: tuple["Task", ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SpecificationError(f"invalid task name {self.name!r}")
        if len(set(self.variables)) != len(self.variables):
            raise SpecificationError(f"{self.name}: duplicate artifact variables")
        var_set = set(self.variables)
        for sv in self.set_variables:
            if sv not in var_set:
                raise SpecificationError(
                    f"{self.name}: set variable {sv!r} is not an artifact variable"
                )
            if sv.kind is not VarKind.ID:
                raise SpecificationError(
                    f"{self.name}: set variable {sv!r} must be an ID variable (Def. 2)"
                )
        if len(set(self.set_variables)) != len(self.set_variables):
            raise SpecificationError(f"{self.name}: duplicate set variables")
        names = {s.name for s in self.services}
        if len(names) != len(self.services):
            raise SpecificationError(f"{self.name}: duplicate service names")
        child_names = {c.name for c in self.children}
        if len(child_names) != len(self.children):
            raise SpecificationError(f"{self.name}: duplicate child task names")

    # ------------------------------------------------------------------
    # derived vocabulary
    # ------------------------------------------------------------------
    @property
    def input_variables(self) -> tuple[Variable, ...]:
        """``x̄^T_in`` — the domain of this task's f_in."""
        return self.opening.input_variables

    @property
    def return_variables(self) -> tuple[Variable, ...]:
        """``x̄^T_ret`` — this task's variables returned to the parent."""
        return self.closing.return_variables

    @property
    def has_set(self) -> bool:
        return bool(self.set_variables)

    def child(self, name: str) -> "Task":
        for task in self.children:
            if task.name == name:
                return task
        raise SpecificationError(f"{self.name}: no child task {name!r}")

    def service(self, name: str) -> InternalService:
        for service in self.services:
            if service.name == name:
                return service
        raise SpecificationError(f"{self.name}: no internal service {name!r}")

    def walk(self) -> Iterator["Task"]:
        """This task and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def descendants(self) -> Iterator["Task"]:
        for child in self.children:
            yield from child.walk()

    @property
    def depth(self) -> int:
        """Height of the subtree rooted here (leaf = 1) — the ``h`` of
        Tables 1 and 2 when taken at the root."""
        if not self.children:
            return 1
        return 1 + max(child.depth for child in self.children)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task({self.name}, vars={len(self.variables)}, children={len(self.children)})"
