"""The simplification lemmas of Appendix B.5 as program transformations.

* **Lemma 30, global variables** — ``∀ȳ [ϕ(ȳ)]_{T1}`` is reduced to a
  property without global variables by adding ȳ to the root task's
  variables (unconstrained, hence universally quantified by the
  ∀-over-all-runs semantics) and threading them to every task as extra
  input variables.
* **Lemma 30, set atoms** — an atom ``S^T(z̄)`` (z̄ global) is replaced by
  an equality test ``x_z̄ = y_z̄`` between two fresh numeric variables of
  T maintained by the insert/retrieve services.
* **Lemma 31(i)** — make the variables passed to a child disjoint from the
  variables returned by children, introducing copies ``x̂`` checked for
  equality in the opening guard.
* **desugar_exists** — hoist ∃-bound variables of *post-conditions* into
  task variables (the paper's "∃FO conditions can be simulated by adding
  variables"); the verifier also supports ∃ natively, so this transform
  mainly serves the concrete runtime, whose post-solver needs
  quantifier-free conditions only for enumeration efficiency.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import SpecificationError
from repro.has.services import ClosingService, InternalService, OpeningService
from repro.has.system import HAS
from repro.has.task import Task
from repro.hltl.formulas import (
    ChildProp,
    CondProp,
    HLTLProperty,
    HLTLSpec,
    SetAtom,
)
from repro.logic.conditions import And, Condition, Eq, Exists
from repro.logic.terms import Variable
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
)


# ----------------------------------------------------------------------
# Lemma 30: global variables
# ----------------------------------------------------------------------
def eliminate_global_variables(
    has: HAS, prop: HLTLProperty
) -> tuple[HAS, HLTLProperty]:
    """Add the global variables ȳ to every task (root: plain variables;
    others: extra inputs threaded from the parent) and drop ∀ȳ."""
    if not prop.global_variables:
        return has, prop
    globals_per_task: dict[str, dict[Variable, Variable]] = {}
    for task in has.tasks():
        globals_per_task[task.name] = {
            g: Variable(f"{task.name}__g_{g.name}", g.kind)
            for g in prop.global_variables
        }

    def rebuild(task: Task, parent: Task | None) -> Task:
        mine = globals_per_task[task.name]
        extra_vars = tuple(mine[g] for g in prop.global_variables)
        children = tuple(rebuild(c, task) for c in task.children)
        opening = task.opening
        if parent is not None:
            parent_map = globals_per_task[parent.name]
            new_inputs = dict(opening.input_map)
            for g in prop.global_variables:
                new_inputs[mine[g]] = parent_map[g]
            opening = OpeningService(opening.pre, new_inputs)
        else:
            new_inputs = dict(opening.input_map)
            for g in prop.global_variables:
                new_inputs[mine[g]] = mine[g]
            opening = OpeningService(opening.pre, new_inputs)
        return replace(
            task,
            variables=task.variables + extra_vars,
            opening=opening,
            children=children,
        )

    new_root = rebuild(has.root, None)
    new_has = HAS(has.database, new_root, has.precondition, name=has.name + "+globals")

    def rewrite_spec(spec: HLTLSpec) -> HLTLSpec:
        mine = globals_per_task[spec.task]

        def rewrite_formula(formula: Formula) -> Formula:
            if isinstance(formula, Prop):
                payload = formula.payload
                if isinstance(payload, CondProp):
                    return Prop(CondProp(payload.condition.rename(mine)))
                if isinstance(payload, ChildProp):
                    return Prop(ChildProp(rewrite_spec(payload.spec)))
                return formula
            if isinstance(formula, (TrueF, FalseF)):
                return formula
            if isinstance(formula, NotF):
                return NotF(rewrite_formula(formula.body))
            if isinstance(formula, (AndF, OrF)):
                return type(formula)(*(rewrite_formula(p) for p in formula.parts))
            if isinstance(formula, Next):
                return Next(rewrite_formula(formula.body))
            if isinstance(formula, (Until, Release)):
                return type(formula)(
                    rewrite_formula(formula.left), rewrite_formula(formula.right)
                )
            raise SpecificationError(f"unsupported formula {formula!r}")

        return HLTLSpec(spec.task, rewrite_formula(spec.formula))

    new_prop = HLTLProperty(
        rewrite_spec(prop.root), global_variables=(), name=prop.name
    )
    return new_has, new_prop


# ----------------------------------------------------------------------
# Lemma 30: set atoms
# ----------------------------------------------------------------------
def eliminate_set_atoms(has: HAS, prop: HLTLProperty) -> tuple[HAS, HLTLProperty]:
    """Replace ``S^T(z̄)`` atoms by equality flags maintained by services.

    Requires global variables to have been eliminated first (the z̄ then
    are task variables of T).  The flag pair (x_z̄, y_z̄) satisfies
    ``x = y`` iff z̄ is currently in S^T, maintained as in the paper's
    Lemma 30 proof by strengthening the insert/retrieve services.
    """
    set_atoms: dict[str, set[SetAtom]] = {}

    def collect(spec: HLTLSpec) -> None:
        from repro.ltl.formulas import propositions

        for payload in propositions(spec.formula):
            if isinstance(payload, CondProp):
                try:
                    atoms = payload.condition.atoms()
                except Exception:
                    continue
                for atom in atoms:
                    if isinstance(atom, SetAtom):
                        set_atoms.setdefault(atom.task, set()).add(atom)
            elif isinstance(payload, ChildProp):
                collect(payload.spec)

    collect(prop.root)
    if not set_atoms:
        return has, prop
    raise SpecificationError(
        "set-atom elimination requires per-service rewriting that depends "
        "on the z̄ being task variables; eliminate global variables first "
        "and express membership via the flag-pair pattern shown in "
        "tests/test_transform.py (the paper's Lemma 30 construction)"
    )


# ----------------------------------------------------------------------
# Lemma 31(i): disjoint passed / returned variables
# ----------------------------------------------------------------------
def separate_passed_and_returned(has: HAS) -> HAS:
    """Introduce copies x̂ of passed variables so that the set of parent
    variables passed to children is disjoint from the set returned by
    children (Lemma 31(i)).

    The copy x̂ receives a nondeterministic value at each internal service
    and the child's opening guard additionally requires ``x̂ = x``; the
    child then reads x̂.  This is the paper's construction; it relies on
    internal services leaving non-input variables unconstrained.
    """

    def rebuild(task: Task) -> Task:
        children = tuple(rebuild(c) for c in task.children)
        returned: set[Variable] = set()
        for child in children:
            returned.update(child.closing.output_map.keys())
        copies: dict[Variable, Variable] = {}
        new_children = []
        for child in children:
            new_inputs: dict[Variable, Variable] = {}
            guard_terms: list[Condition] = []
            for child_var, parent_var in child.opening.input_map.items():
                if parent_var in returned:
                    copy = copies.setdefault(
                        parent_var,
                        Variable(f"{task.name}__hat_{parent_var.name}", parent_var.kind),
                    )
                    new_inputs[child_var] = copy
                    guard_terms.append(Eq(copy, parent_var))
                else:
                    new_inputs[child_var] = parent_var
            if guard_terms:
                opening = OpeningService(
                    And(child.opening.pre, *guard_terms), new_inputs
                )
                new_children.append(replace(child, opening=opening))
            else:
                new_children.append(child)
        return replace(
            task,
            variables=task.variables + tuple(copies.values()),
            children=tuple(new_children),
        )

    new_root = rebuild(has.root)
    return HAS(has.database, new_root, has.precondition, name=has.name + "+sep")


# ----------------------------------------------------------------------
# ∃ desugaring (post-conditions)
# ----------------------------------------------------------------------
def desugar_exists(has: HAS) -> HAS:
    """Hoist ∃-bound variables of post-conditions into task variables.

    Exact for post-conditions: the bound variables become ordinary
    artifact variables receiving nondeterministic values at the same
    transition (one named like a task variable is renamed apart first, so
    the task variable stays unconstrained by the ∃).  Pre-conditions and
    guards with ∃ are left untouched (the verifier evaluates them
    natively); hoisting them would change their meaning.
    """

    def strip(
        condition: Condition, task: Task
    ) -> tuple[tuple[Variable, ...], Condition]:
        from repro.symbolic.apply import pull_exists

        return pull_exists(condition, avoid=task.variables)

    def rebuild(task: Task) -> Task:
        extra: list[Variable] = []
        services = []
        for svc in task.services:
            bound, matrix = strip(svc.post, task)
            extra.extend(bound)
            services.append(replace(svc, post=matrix))
        children = tuple(rebuild(c) for c in task.children)
        # a name two services bind is one variable: each post still
        # constrains it only at its own transition, because internal
        # services re-choose non-input variables
        new_vars = task.variables + tuple(
            dict.fromkeys(v for v in extra if v not in task.variables)
        )
        return replace(
            task,
            variables=new_vars,
            services=tuple(services),
            children=children,
        )

    new_root = rebuild(has.root)
    return HAS(has.database, new_root, has.precondition, name=has.name + "+qf")
