"""Services of tasks (Definitions 5 and 6).

* :class:`InternalService` — guarded update of the task's variables and its
  artifact relation (insert / retrieve / both / none of the fixed tuple
  ``s̄^T``).
* :class:`OpeningService` — guard over the *parent's* variables plus the
  1-1 input-variable mapping ``f_in : x̄^{Tc}_in → x̄^T``.
* :class:`ClosingService` — guard over the task's own variables plus the
  1-1 output-variable mapping ``f_out : x̄^T_{Tc↑} → x̄^{Tc}``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.errors import SpecificationError
from repro.logic.conditions import Condition, FALSE, TRUE
from repro.logic.terms import Variable


class SetUpdate(enum.Enum):
    """The four possible values of δ in Definition 5."""

    NONE = "none"
    INSERT = "insert"            # {+S^T(s̄^T)}
    RETRIEVE = "retrieve"        # {-S^T(s̄^T)}
    BOTH = "insert+retrieve"     # {+S^T(s̄^T), -S^T(s̄^T)}

    @property
    def inserts(self) -> bool:
        return self in (SetUpdate.INSERT, SetUpdate.BOTH)

    @property
    def retrieves(self) -> bool:
        return self in (SetUpdate.RETRIEVE, SetUpdate.BOTH)


@dataclass(frozen=True)
class InternalService:
    """An internal service σ = (π, ψ, δ) of a task."""

    name: str
    pre: Condition = TRUE
    post: Condition = TRUE
    update: SetUpdate = SetUpdate.NONE

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecificationError("internal service needs a name")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InternalService({self.name})"


def _frozen_mapping(mapping: Mapping[Variable, Variable]) -> Mapping[Variable, Variable]:
    return MappingProxyType(dict(mapping))


@dataclass(frozen=True)
class OpeningService:
    """σ^o_Tc = (π, f_in): guard over parent variables, input mapping.

    ``input_map`` maps each input variable of the child to the parent
    variable whose value it receives.  For the root task the map instead
    lists the designated input variables mapped to themselves (their
    values are chosen by the environment, constrained by Π).
    """

    pre: Condition = TRUE
    input_map: Mapping[Variable, Variable] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_map", _frozen_mapping(self.input_map))
        values = list(self.input_map.values())
        if len(set(values)) != len(values):
            raise SpecificationError("f_in must be 1-1")
        for child_var, parent_var in self.input_map.items():
            if child_var.kind is not parent_var.kind:
                raise SpecificationError(
                    f"f_in maps {child_var!r} to {parent_var!r} of different kind"
                )

    def __reduce__(self):
        # MappingProxyType does not pickle; rebuild from a plain dict
        return (type(self), (self.pre, dict(self.input_map)))

    @property
    def input_variables(self) -> tuple[Variable, ...]:
        """``x̄^{Tc}_in`` — the domain of f_in."""
        return tuple(self.input_map.keys())


@dataclass(frozen=True)
class ClosingService:
    """σ^c_Tc = (π, f_out): guard over own variables, output mapping.

    ``output_map`` maps each parent variable receiving a result to the
    child variable providing it (``f_out : x̄^T_{Tc↑} → x̄^{Tc}``).
    """

    pre: Condition = FALSE
    output_map: Mapping[Variable, Variable] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "output_map", _frozen_mapping(self.output_map))
        values = list(self.output_map.values())
        if len(set(values)) != len(values):
            raise SpecificationError("f_out must be 1-1")
        for parent_var, child_var in self.output_map.items():
            if parent_var.kind is not child_var.kind:
                raise SpecificationError(
                    f"f_out maps {parent_var!r} to {child_var!r} of different kind"
                )

    def __reduce__(self):
        # MappingProxyType does not pickle; rebuild from a plain dict
        return (type(self), (self.pre, dict(self.output_map)))

    @property
    def return_variables(self) -> tuple[Variable, ...]:
        """``x̄^{Tc}_ret`` — the child's to-be-returned variables."""
        return tuple(self.output_map.values())
