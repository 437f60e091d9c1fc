"""Explicit VASS: finite states, integer action vectors.

A run is a sequence ``(q0, z̄0) … (qn, z̄n)`` with ``z̄0 = 0``, every
``z̄i ∈ ℕ^d``, and each step adding an action vector.  The two decision
problems of Section 4.2 — state reachability and state repeated
reachability — are answered through the Karp–Miller engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

State = Hashable
Vector = tuple[int, ...]


@dataclass(frozen=True)
class Action:
    """``(p, ā, q)``: from state p, add ā, go to state q."""

    source: State
    delta: Vector
    target: State


@dataclass
class VASS:
    """An explicit VASS ``(Q, A)`` of fixed dimension."""

    dimension: int
    states: set[State] = field(default_factory=set)
    actions: list[Action] = field(default_factory=list)

    def add_state(self, state: State) -> State:
        self.states.add(state)
        return state

    def add_action(self, source: State, delta: Sequence[int], target: State) -> Action:
        if len(delta) != self.dimension:
            raise ValueError(
                f"action dimension {len(delta)} != VASS dimension {self.dimension}"
            )
        self.states.add(source)
        self.states.add(target)
        action = Action(source, tuple(int(x) for x in delta), target)
        self.actions.append(action)
        return action

    def outgoing(self, state: State) -> list[Action]:
        return [a for a in self.actions if a.source == state]

    # ------------------------------------------------------------------
    # the implicit-VASS interface used by the Karp–Miller engine
    # ------------------------------------------------------------------
    def initial(self, state: State) -> Iterator[tuple[State, dict[int, int]]]:
        yield state, {}

    def successors(
        self, state: State, vector: Mapping[int, float] | None = None
    ) -> Iterator[tuple[Mapping[int, int], State, object]]:
        for action in self.outgoing(state):
            delta = {
                index: value
                for index, value in enumerate(action.delta)
                if value != 0
            }
            yield delta, action.target, action
