"""Nodes of the symbolic constraint store.

A node denotes one (symbolic) value:

* :class:`ValueNode` — an anonymous ID-sorted or numeric-sorted value;
  artifact variables are *bound* to value nodes by the store, and rebound
  when overwritten (service transitions, child returns, set retrievals);
* :class:`NavNode` — one attribute step from an ID-sorted node; chains of
  NavNodes are the navigation expressions ``x_R.f_1…f_k[.a]`` of §4.1;
* :class:`ConstNode` — a numeric constant (0 in particular);
* ``NULL`` — the null constant (ID sort).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction


class Sort(enum.Enum):
    ID = "id"
    NUMERIC = "numeric"


class Node:
    """Base marker class; all nodes are frozen and hashable."""

    __slots__ = ()


@dataclass(frozen=True, eq=False)
class ValueNode(Node):
    serial: int
    sort: Sort

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_hash",
            hash(self.serial) * 31 + (7 if self.sort is Sort.ID else 11),
        )

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, ValueNode)
            and self.serial == other.serial
            and self.sort is other.sort
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"v{self.serial}{'ᵢ' if self.sort is Sort.ID else 'ₙ'}"


@dataclass(frozen=True, eq=False)
class NavNode(Node):
    """``base.attr`` — base must denote a non-null anchored ID value."""

    base: Node
    attr: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.base, self.attr)))

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, NavNode)
            and self.attr == other.attr
            and self.base == other.base
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.base!r}.{self.attr}"


@dataclass(frozen=True, eq=False)
class ConstNode(Node):
    value: Fraction

    def __post_init__(self) -> None:
        # the value the generated dataclass hash would compute, once
        object.__setattr__(self, "_hash", hash((self.value,)))

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, ConstNode) and self.value == other.value
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return str(self.value)


@dataclass(frozen=True)
class _NullNode(Node):
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "null"


NULL = _NullNode()
ZERO = ConstNode(Fraction(0))


def null_node() -> Node:
    return NULL
