"""Task instance state: a valuation of ``x̄^T`` plus the contents of ``S^T``
(Definition 8), and the initial state of a local run (Definition 9)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from repro.database.instance import Identifier, Value
from repro.has.task import Task
from repro.logic.terms import Variable, VarKind

SetTuple = tuple[Value, ...]


@dataclass(frozen=True)
class TaskState:
    """An instance ``(ν, S)`` of a task: immutable for sharing in runs."""

    valuation: Mapping[Variable, Value]
    set_contents: frozenset[SetTuple] = frozenset()

    def value(self, variable: Variable) -> Value:
        return self.valuation[variable]

    def set_tuple(self, task: Task) -> SetTuple:
        """The current value of ``s̄^T`` under this state's valuation."""
        return tuple(self.valuation[v] for v in task.set_variables)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskState):
            return NotImplemented
        return (
            dict(self.valuation) == dict(other.valuation)
            and self.set_contents == other.set_contents
        )

    def __hash__(self) -> int:
        return hash(
            (frozenset(self.valuation.items()), self.set_contents)
        )


def initial_state(task: Task, inputs: Mapping[Variable, Value]) -> TaskState:
    """The first instance of a local run of ``task`` (Definition 9):
    input variables get ``inputs``, other ID variables ``null``, other
    numeric variables 0, and the artifact relation starts empty."""
    valuation: dict[Variable, Value] = {}
    input_vars = set(task.input_variables)
    for variable in task.variables:
        if variable in input_vars:
            if variable not in inputs:
                raise KeyError(f"missing input value for {variable!r}")
            valuation[variable] = inputs[variable]
        elif variable.kind is VarKind.ID:
            valuation[variable] = None
        else:
            valuation[variable] = Fraction(0)
    return TaskState(valuation, frozenset())
