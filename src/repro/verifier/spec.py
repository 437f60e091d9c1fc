"""Compiled properties: the Φ_T sets and the automata B(T, β) (Section 3).

For each task T, ``Φ_T`` is the set of subformulas ``[ψ]_T`` occurring in
the property.  For a truth assignment β over Φ_T, ``B(T, β)`` is the
automaton of ``⋀_{β(ψ)=1} ψ ∧ ⋀_{β(ψ)=0} ¬ψ``; the root task uses the
automaton of the (negated) property itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.errors import SpecificationError
from repro.has.system import HAS
from repro.hltl.formulas import ChildProp, CondProp, HLTLProperty, HLTLSpec
from repro.ltl.automaton import Automaton, build_automaton
from repro.ltl.formulas import AndF, Formula, NotF, TrueF, propositions

BetaKey = frozenset  # frozenset[(HLTLSpec, bool)]


def beta_key(assignment: Mapping[HLTLSpec, bool]) -> BetaKey:
    return frozenset(assignment.items())


class CompiledProperty:
    """Φ_T sets, automata cache, and the negated root automaton."""

    def __init__(self, has: HAS, prop: HLTLProperty):
        if prop.global_variables:
            raise SpecificationError(
                "verification requires properties without global variables — "
                "apply repro.transform.eliminate_global_variables first (Lemma 30)"
            )
        self.has = has
        self.prop = prop
        self.phi: dict[str, tuple[HLTLSpec, ...]] = {t.name: () for t in has.tasks()}
        self._collect(prop.root)
        self._automata: dict[tuple[str, BetaKey], Automaton] = {}
        self._root_negated: Automaton | None = None

    def _collect(self, spec: HLTLSpec) -> None:
        seen: dict[str, set[HLTLSpec]] = {name: set() for name in self.phi}

        def walk(current: HLTLSpec) -> None:
            for payload in propositions(current.formula):
                if isinstance(payload, ChildProp):
                    inner = payload.spec
                    if inner not in seen[inner.task]:
                        seen[inner.task].add(inner)
                        walk(inner)

        walk(spec)
        for name, specs in seen.items():
            self.phi[name] = tuple(sorted(specs, key=repr))

    # ------------------------------------------------------------------
    def betas(self, task_name: str) -> Iterator[dict[HLTLSpec, bool]]:
        """All truth assignments over Φ_T (a single empty one when Φ_T=∅)."""
        specs = self.phi.get(task_name, ())
        for bits in itertools.product((True, False), repeat=len(specs)):
            yield dict(zip(specs, bits))

    def automaton(self, task_name: str, beta: Mapping[HLTLSpec, bool]) -> Automaton:
        key = (task_name, beta_key(beta))
        if key not in self._automata:
            parts: list[Formula] = []
            for spec, value in sorted(beta.items(), key=lambda kv: repr(kv[0])):
                parts.append(spec.formula if value else NotF(spec.formula))
            formula: Formula = AndF(*parts) if parts else TrueF()
            self._automata[key] = build_automaton(formula)
        return self._automata[key]

    def root_negated_automaton(self) -> Automaton:
        """B(¬ξ) for the root: Γ ⊨ [ξ]_T1 iff [¬ξ]_T1 is unsatisfiable."""
        if self._root_negated is None:
            self._root_negated = build_automaton(NotF(self.prop.root.formula))
        return self._root_negated
