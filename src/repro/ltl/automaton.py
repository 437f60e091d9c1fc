"""LTL → automaton construction (tableau expansion, [53, 49] style).

One automaton carries both acceptance conditions the paper needs
(Section 3): Büchi acceptance for infinite runs, and the subset ``Q_fin``
of states accepting finite words.

States are sets of NNF obligations paired with a degeneralization counter
over the Until subformulas.  Transitions are labeled *symbolically*: each
carries the set of literals (payload, polarity) that the current letter
must satisfy — the verifier checks those literals against symbolic
instances instead of enumerating the exponential alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from repro.fuzz.coverage import COVERAGE
from repro.graphs import strongly_connected_components
from repro.ltl.formulas import (
    AndF,
    FalseF,
    Formula,
    Letter,
    Next,
    NotF,
    OrF,
    Payload,
    Prop,
    Release,
    TrueF,
    Until,
    nnf,
)

Literals = frozenset[tuple[Payload, bool]]
Obligations = frozenset[Formula]


@dataclass(frozen=True)
class _RawTransition:
    literals: Literals
    target: Obligations
    deferred: frozenset[Until]


def _expand(obligations: Obligations) -> list[_RawTransition]:
    """Tableau expansion of a state: all one-step transition templates."""
    results: dict[tuple[Literals, Obligations], set[Until]] = {}

    def go(
        pending: list[Formula],
        literals: dict[Payload, bool],
        nexts: set[Formula],
        deferred: set[Until],
        processed: set[Formula],
    ) -> None:
        while pending:
            formula = pending.pop()
            if formula in processed:
                continue
            processed.add(formula)
            if isinstance(formula, TrueF):
                continue
            if isinstance(formula, FalseF):
                COVERAGE.hit("ltl:expand:contradiction")
                return
            if isinstance(formula, Prop):
                if literals.get(formula.payload, True) is False:
                    COVERAGE.hit("ltl:expand:contradiction")
                    return
                literals[formula.payload] = True
                continue
            if isinstance(formula, NotF):
                assert isinstance(formula.body, Prop), "NNF required"
                payload = formula.body.payload
                if literals.get(payload, False) is True:
                    COVERAGE.hit("ltl:expand:contradiction")
                    return
                literals[payload] = False
                continue
            if isinstance(formula, AndF):
                COVERAGE.hit("ltl:expand:and")
                pending.extend(formula.parts)
                continue
            if isinstance(formula, OrF):
                COVERAGE.hit("ltl:expand:or")
                for part in formula.parts:
                    go(
                        pending + [part],
                        dict(literals),
                        set(nexts),
                        set(deferred),
                        set(processed),
                    )
                return
            if isinstance(formula, Next):
                COVERAGE.hit("ltl:expand:next")
                nexts.add(formula.body)
                continue
            if isinstance(formula, Until):
                COVERAGE.hit("ltl:expand:until")
                # a U b  ≡  b ∨ (a ∧ X(a U b))
                go(
                    pending + [formula.right],
                    dict(literals),
                    set(nexts),
                    set(deferred),
                    set(processed),
                )
                go(
                    pending + [formula.left],
                    dict(literals),
                    set(nexts) | {formula},
                    set(deferred) | {formula},
                    set(processed),
                )
                return
            if isinstance(formula, Release):
                COVERAGE.hit("ltl:expand:release")
                # a R b  ≡  b ∧ (a ∨ X(a R b))
                go(
                    pending + [formula.left, formula.right],
                    dict(literals),
                    set(nexts),
                    set(deferred),
                    set(processed),
                )
                go(
                    pending + [formula.right],
                    dict(literals),
                    set(nexts) | {formula},
                    set(deferred),
                    set(processed),
                )
                return
            raise TypeError(f"unexpected formula {formula!r}")
        key = (
            frozenset(literals.items()),
            frozenset(nexts),
        )
        if key in results:
            results[key] &= deferred  # keep the weakest deferral info
        else:
            results[key] = set(deferred)

    # Iterate the obligation set in a canonical order: frozenset
    # iteration follows the process hash seed, and the expansion order
    # decides both the tableau's dict insertion order and, downstream,
    # the verifier's Karp–Miller exploration order — which must be
    # reproducible run-over-run (witnesses and node counts are recorded
    # in suite reports and benchmark baselines).
    go(sorted(obligations, key=repr), {}, set(), set(), set())
    raw = [
        _RawTransition(literals, target, frozenset(deferred))
        for (literals, target), deferred in results.items()
    ]
    raw.sort(key=_transition_sort_key)
    return raw


def _transition_sort_key(transition: _RawTransition) -> tuple:
    """Canonical order for expansion results, independent of set-iteration
    order (``repr`` of a frozenset itself follows the hash seed, so the
    members are rendered and sorted individually)."""
    return (
        tuple(sorted(repr(item) for item in transition.literals)),
        tuple(sorted(repr(item) for item in transition.target)),
    )


def _epsilon_true(formula: Formula) -> bool:
    """Truth of an NNF formula on the *empty* suffix (past the last letter):
    strong next and until are false, release is true, literals are false."""
    if isinstance(formula, TrueF):
        return True
    if isinstance(formula, (FalseF, Prop, NotF, Next, Until)):
        return False
    if isinstance(formula, AndF):
        return all(_epsilon_true(p) for p in formula.parts)
    if isinstance(formula, OrF):
        return any(_epsilon_true(p) for p in formula.parts)
    if isinstance(formula, Release):
        return True
    raise TypeError(f"unexpected formula {formula!r}")


State = tuple[Obligations, int]


@dataclass(frozen=True)
class Transition:
    """A symbolic transition: take it when the letter satisfies ``literals``."""

    source: State
    literals: Literals
    target: State

    def enabled_by(self, letter: Letter) -> bool:
        return all(bool(letter.get(p, False)) is v for p, v in self.literals)


class Automaton:
    """The two-acceptance automaton of Section 3.

    * infinite run accepted ⟺ it visits ``buchi_accepting`` infinitely often;
    * finite word accepted ⟺ after consuming it the automaton can be in a
      state of ``finite_accepting`` (``Q_fin``).
    """

    def __init__(
        self,
        initial: frozenset[State],
        transitions: Mapping[State, tuple[Transition, ...]],
        buchi_accepting: frozenset[State],
        finite_accepting: frozenset[State],
    ):
        self.initial = initial
        self.transitions = dict(transitions)
        self.buchi_accepting = buchi_accepting
        self.finite_accepting = finite_accepting

    @property
    def states(self) -> frozenset[State]:
        return frozenset(self.transitions.keys())

    def successors(self, state: State) -> tuple[Transition, ...]:
        return self.transitions.get(state, ())

    def step(self, states: Iterable[State], letter: Letter) -> frozenset[State]:
        nxt: set[State] = set()
        for state in states:
            for transition in self.successors(state):
                if transition.enabled_by(letter):
                    nxt.add(transition.target)
        return frozenset(nxt)

    # ------------------------------------------------------------------
    # explicit-word acceptance (reference implementations for testing)
    # ------------------------------------------------------------------
    def accepts_finite(self, word: Sequence[Letter]) -> bool:
        current = self.initial
        for letter in word:
            current = self.step(current, letter)
            if not current:
                return False
        return bool(current & self.finite_accepting)

    def accepts_lasso(self, prefix: Sequence[Letter], loop: Sequence[Letter]) -> bool:
        """Accept prefix·loop^ω — product search for an accepting cycle."""
        if not loop:
            raise ValueError("lasso words need a non-empty loop")
        start: set[tuple[State, int]] = set()
        current = self.initial
        for letter in prefix:
            current = self.step(current, letter)
        for state in current:
            start.add((state, 0))
        # graph over (automaton state, loop position)
        edges: dict[tuple[State, int], set[tuple[State, int]]] = {}
        stack = list(start)
        seen = set(start)
        while stack:
            node = stack.pop()
            state, position = node
            letter = loop[position]
            succs = {
                (t.target, (position + 1) % len(loop))
                for t in self.successors(state)
                if t.enabled_by(letter)
            }
            edges[node] = succs
            for succ in succs:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        # accepting cycle through a Büchi state reachable from start
        for component in strongly_connected_components(edges, edges.__getitem__):
            has_cycle = len(component) > 1 or component[0] in edges[component[0]]
            if has_cycle and any(state in self.buchi_accepting for state, _ in component):
                return True
        return False


def build_automaton(formula: Formula) -> Automaton:
    """Construct the automaton for ``formula`` (converted to NNF)."""
    normal = nnf(formula)
    untils = tuple(sorted(_until_subformulas(normal), key=repr))
    k = len(untils)

    initial_obligations: Obligations = frozenset({normal})
    transitions: dict[State, list[Transition]] = {}
    expansion_cache: dict[Obligations, list[_RawTransition]] = {}

    def expansion(obligations: Obligations) -> list[_RawTransition]:
        if obligations not in expansion_cache:
            expansion_cache[obligations] = _expand(obligations)
        return expansion_cache[obligations]

    def advance(level: int, deferred: frozenset[Until]) -> int:
        position = 0 if level == k else level
        while position < k and untils[position] not in deferred:
            position += 1
        return position

    initial_states = frozenset({(initial_obligations, 0)})
    pending: list[State] = list(initial_states)
    visited: set[State] = set(pending)
    while pending:
        state = pending.pop()
        obligations, level = state
        outgoing: list[Transition] = []
        for raw in expansion(obligations):
            next_level = advance(level, raw.deferred)
            target = (raw.target, next_level)
            outgoing.append(Transition(state, raw.literals, target))
            if target not in visited:
                visited.add(target)
                pending.append(target)
        transitions[state] = outgoing

    buchi = frozenset(s for s in visited if s[1] == k) if k else frozenset(visited)
    finite = frozenset(
        s for s in visited if all(_epsilon_true(f) for f in s[0])
    )
    return Automaton(
        initial=initial_states,
        transitions={s: tuple(ts) for s, ts in transitions.items()},
        buchi_accepting=buchi,
        finite_accepting=finite,
    )


def _until_subformulas(formula: Formula) -> set[Until]:
    if isinstance(formula, Until):
        return {formula} | _until_subformulas(formula.left) | _until_subformulas(formula.right)
    if isinstance(formula, Release):
        return _until_subformulas(formula.left) | _until_subformulas(formula.right)
    if isinstance(formula, (AndF, OrF)):
        out: set[Until] = set()
        for part in formula.parts:
            out |= _until_subformulas(part)
        return out
    if isinstance(formula, (Next, NotF)):
        body = formula.body
        return _until_subformulas(body)
    return set()
