"""HLTL-FO formula structure (Definition 12).

The proposition payloads of the underlying LTL formulas are:

* :class:`CondProp` — a quantifier-free FO condition over the task's
  variables, the global variables ȳ, and (surface syntax) set atoms;
* :class:`ServiceProp` — a service of ``Σ^obs_T``;
* :class:`ChildProp` — ``[ψ]_{Tc}``: the run of the child task opened at
  the current position satisfies ψ.

``∀ȳ`` quantification and set atoms are surface features eliminated by
Lemma 30 (``repro.transform.simplify``); the verifier accepts properties
without global variables and set atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ConditionError, SpecificationError
from repro.has.system import HAS
from repro.has.task import Task
from repro.logic.conditions import Atom, Condition
from repro.logic.terms import Variable, VarKind
from repro.ltl.formulas import (
    AndF,
    FalseF,
    Formula,
    Next,
    NotF,
    OrF,
    Prop,
    Release,
    TrueF,
    Until,
    propositions,
)
from repro.runtime.labels import ServiceRef


@dataclass(frozen=True)
class SetAtom(Atom):
    """``S^T(z̄)`` with z̄ among the global ID variables (Definition 12).

    Surface syntax only: Lemma 30 compiles these away before verification.
    Concrete evaluation happens against the set contents supplied by the
    tree evaluator.
    """

    task: str
    args: tuple[Variable, ...]

    def __post_init__(self) -> None:
        for variable in self.args:
            if variable.kind is not VarKind.ID:
                raise ConditionError(f"set atom argument {variable!r} must be an ID variable")

    def evaluate(self, db, valuation) -> bool:  # pragma: no cover - needs set context
        raise ConditionError(
            "SetAtom requires set contents; evaluate via the tree evaluator "
            "or eliminate it with repro.transform.simplify"
        )

    def variables(self) -> frozenset[Variable]:
        return frozenset(self.args)

    def rename(self, mapping: Mapping[Variable, Variable]) -> Condition:
        return SetAtom(self.task, tuple(mapping.get(v, v) for v in self.args))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(v.name for v in self.args)
        return f"S_{self.task}({inner})"


@dataclass(frozen=True)
class CondProp:
    """Proposition payload: an FO condition on the current instance."""

    condition: Condition

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"⟨{self.condition!r}⟩"


@dataclass(frozen=True)
class ServiceProp:
    """Proposition payload: the current service is ``ref``."""

    ref: ServiceRef

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"⟨{self.ref!r}⟩"


@dataclass(frozen=True)
class HLTLSpec:
    """A basic HLTL-FO formula ``[ϕ]_T`` of Ψ(T, ȳ)."""

    task: str
    formula: Formula

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.formula!r}]_{self.task}"


@dataclass(frozen=True)
class ChildProp:
    """Proposition payload ``[ψ]_{Tc}``: true at positions where the task
    opens ``Tc`` and the resulting child run satisfies ψ."""

    spec: HLTLSpec

    @property
    def task(self) -> str:
        return self.spec.task

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self.spec)


@dataclass(frozen=True)
class HLTLProperty:
    """``∀ȳ [ϕ_f]_{T1}`` — the top-level property (Definition 12)."""

    root: HLTLSpec
    global_variables: tuple[Variable, ...] = ()
    name: str = "property"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.global_variables:
            names = ", ".join(v.name for v in self.global_variables)
            return f"∀{names}. {self.root!r}"
        return repr(self.root)


# ----------------------------------------------------------------------
# construction helpers
# ----------------------------------------------------------------------
def cond(condition: Condition) -> Formula:
    return Prop(CondProp(condition))


def service(ref: ServiceRef) -> Formula:
    return Prop(ServiceProp(ref))


def child(task: str, formula: Formula) -> Formula:
    return Prop(ChildProp(HLTLSpec(task, formula)))


# ----------------------------------------------------------------------
# static validation
# ----------------------------------------------------------------------
def validate_property(prop: HLTLProperty, has: HAS) -> None:
    """Check the scoping discipline of Definition 12: conditions of the
    formula at task T use only x̄^T ∪ ȳ; service propositions are in
    Σ^obs_T; child formulas refer to actual children of T."""
    if prop.root.task != has.root.name:
        raise SpecificationError(
            f"property root is [{prop.root.task}] but the HAS root is {has.root.name!r}"
        )
    _validate_spec(prop.root, has, set(prop.global_variables))


def _validate_spec(spec: HLTLSpec, has: HAS, global_vars: set[Variable]) -> None:
    task = has.task(spec.task)
    allowed = set(task.variables) | global_vars
    child_names = {c.name for c in task.children}
    observable = {task.name} | child_names
    for payload in propositions(spec.formula):
        if isinstance(payload, CondProp):
            stray = payload.condition.variables() - allowed
            if stray:
                names = ", ".join(sorted(v.name for v in stray))
                raise SpecificationError(
                    f"[{spec.task}]: condition uses out-of-scope variables {{{names}}}"
                )
            _validate_set_atoms(payload.condition, global_vars, spec.task)
        elif isinstance(payload, ServiceProp):
            if payload.ref.task not in observable:
                raise SpecificationError(
                    f"[{spec.task}]: service {payload.ref!r} is not in Σ^obs"
                )
        elif isinstance(payload, ChildProp):
            if payload.task not in child_names:
                raise SpecificationError(
                    f"[{spec.task}]: [ψ]_{payload.task} is not a child task"
                )
            _validate_spec(payload.spec, has, global_vars)
        else:
            raise SpecificationError(
                f"[{spec.task}]: unsupported proposition payload {payload!r}"
            )


def _validate_set_atoms(condition: Condition, global_vars: set[Variable], where: str) -> None:
    try:
        atoms = condition.atoms()
    except ConditionError:
        return
    for atom in atoms:
        if isinstance(atom, SetAtom):
            stray = set(atom.args) - global_vars
            if stray:
                raise SpecificationError(
                    f"[{where}]: set atom arguments must be global variables"
                )


def uses_arithmetic(prop: HLTLProperty) -> bool:
    """True when any condition in the property has a non-equality atom."""
    from repro.logic.conditions import ArithAtom

    def spec_uses(spec: HLTLSpec) -> bool:
        for payload in propositions(spec.formula):
            if isinstance(payload, CondProp):
                try:
                    atoms = payload.condition.atoms()
                except ConditionError:
                    return True
                for atom in atoms:
                    if isinstance(atom, ArithAtom) and not atom.is_pure_equality:
                        return True
            elif isinstance(payload, ChildProp):
                if spec_uses(payload.spec):
                    return True
        return False

    return spec_uses(prop.root)
