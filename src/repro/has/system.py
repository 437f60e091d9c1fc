"""The complete HAS specification ``Γ = (A, Σ, Π)`` (Definition 7)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.database.fkgraph import ForeignKeyGraph, SchemaClass, navigation_depth
from repro.database.schema import DatabaseSchema
from repro.errors import SpecificationError
from repro.has.task import Task
from repro.logic.conditions import Condition, TRUE


@dataclass
class HAS:
    """A hierarchical artifact system.

    ``precondition`` is the global Π, a condition over the root task's
    input variables constraining the initial valuation.
    """

    database: DatabaseSchema
    root: Task
    precondition: Condition = TRUE
    name: str = "has"

    _tasks: dict[str, Task] = field(init=False, repr=False, default_factory=dict)
    _parent: dict[str, str | None] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        self._tasks = {}
        self._parent = {}
        for task in self.root.walk():
            if task.name in self._tasks:
                raise SpecificationError(f"duplicate task name {task.name!r}")
            self._tasks[task.name] = task
        self._parent[self.root.name] = None
        for task in self.root.walk():
            for child in task.children:
                self._parent[child.name] = task.name
        self._fk_graph: ForeignKeyGraph | None = None

    # ------------------------------------------------------------------
    # navigation of the hierarchy
    # ------------------------------------------------------------------
    def tasks(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def task(self, name: str) -> Task:
        try:
            return self._tasks[name]
        except KeyError:
            raise SpecificationError(f"unknown task {name!r}") from None

    def parent_of(self, task: Task | str) -> Task | None:
        name = task if isinstance(task, str) else task.name
        parent_name = self._parent.get(name)
        return self._tasks[parent_name] if parent_name else None

    def bottom_up(self) -> Iterator[Task]:
        """Tasks in post-order (children before parents)."""

        def visit(task: Task) -> Iterator[Task]:
            for child in task.children:
                yield from visit(child)
            yield task

        return visit(self.root)

    # ------------------------------------------------------------------
    # derived facts
    # ------------------------------------------------------------------
    @property
    def fk_graph(self) -> ForeignKeyGraph:
        if self._fk_graph is None:
            self._fk_graph = ForeignKeyGraph(self.database)
        return self._fk_graph

    @property
    def schema_class(self) -> SchemaClass:
        return self.fk_graph.classify()

    @property
    def depth(self) -> int:
        """Depth h of the hierarchy (Tables 1 and 2)."""
        return self.root.depth

    @property
    def uses_artifact_relations(self) -> bool:
        return any(task.has_set for task in self.tasks())

    @property
    def size(self) -> int:
        """A rough size measure N: variables + services + condition atoms."""
        total = 0
        for task in self.tasks():
            total += len(task.variables)
            total += len(task.services)
            for service in task.services:
                total += len(service.pre.atoms()) + len(service.post.atoms())
        return total

    def navigation_depth(self, task: Task | str) -> int:
        """The paper's ``h(T)`` bound for a task (Section 4.1)."""
        if isinstance(task, str):
            task = self.task(task)
        child_depths = tuple(self.navigation_depth(c) for c in task.children)
        return navigation_depth(self.fk_graph, len(task.variables), child_depths)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HAS({self.name}, tasks={len(self._tasks)}, depth={self.depth}, "
            f"schema={self.schema_class.value})"
        )
