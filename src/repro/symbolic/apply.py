"""Applying FO conditions to constraint stores with case-splitting.

``apply_condition(store, φ)`` yields refinements of the store in which φ
definitely holds; the union of their realizations is exactly the set of
realizations of the store satisfying φ.  Branching happens per satisfying
truth-assignment of φ's atoms, and within negative relation atoms (which
are disjunctive: null argument / different anchor / attribute mismatch).
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Mapping

from repro.database.schema import AttributeKind
from repro.errors import ConditionError
from repro.logic.conditions import (
    And,
    ArithAtom,
    Atom,
    Condition,
    Eq,
    Exists,
    Not,
    Or,
    RelationAtom,
    eliminate_single_atom_exists,
    nnf_condition,
)
from repro.logic.terms import Const, NullTerm, Term, Variable, WildcardTerm
from repro.symbolic.nodes import NULL, Node
from repro.symbolic.store import ConstraintStore, Inconsistent


def term_node(store: ConstraintStore, term: Term) -> Node:
    if isinstance(term, WildcardTerm):
        raise ConditionError("wildcard positions carry no value")
    if isinstance(term, NullTerm):
        return NULL
    if isinstance(term, Const):
        return store.const(term.value)
    assert isinstance(term, Variable)
    return store.node_of(term)


def pull_exists(
    condition: Condition, avoid: Iterable[Variable] = ()
) -> tuple[tuple[Variable, ...], Condition]:
    """Hoist existential quantifiers out of positive boolean structure.

    ∃ distributes over ∧ and ∨; negative occurrences (∃ under ¬) cannot be
    handled symbolically and raise.  Returns (bound variables, matrix).

    Hoisting never captures: a bound variable is renamed apart
    (α-conversion) when its name is free in ``condition``, is in
    ``avoid``, or is already bound by an earlier ∃.  The fresh name is
    ``name'k`` for the smallest ``k`` not used anywhere in the condition,
    so the rewrite is a pure function of ``condition`` and ``avoid``.
    """
    taken = {v.name for v in condition.variables()} | {v.name for v in avoid}
    used = taken | _bound_names(condition)
    bound: list[Variable] = []

    def hoist(part: Condition) -> Condition:
        if isinstance(part, Exists):
            renaming: dict[Variable, Variable] = {}
            for variable in part.bound:
                if variable.name in taken:
                    fresh = next(
                        f"{variable.name}'{k}"
                        for k in itertools.count(1)
                        if f"{variable.name}'{k}" not in used
                    )
                    used.add(fresh)
                    renaming[variable] = Variable(fresh, variable.kind)
                    variable = renaming[variable]
                taken.add(variable.name)
                bound.append(variable)
            return hoist(part.body.rename(renaming) if renaming else part.body)
        if isinstance(part, (And, Or)):
            return type(part)(*(hoist(p) for p in part.parts))
        if isinstance(part, Not) and _bound_names(part.body):
            raise ConditionError(
                "∃ under negation is a universal quantifier — not supported; "
                "rewrite the condition"
            )
        return part

    matrix = hoist(condition)
    return tuple(bound), matrix


def _bound_names(condition: Condition) -> set[str]:
    """The names every ∃ in ``condition`` binds, at any depth."""
    if isinstance(condition, Exists):
        return {v.name for v in condition.bound} | _bound_names(condition.body)
    if isinstance(condition, Not):
        return _bound_names(condition.body)
    if isinstance(condition, (And, Or)):
        return set().union(*(_bound_names(p) for p in condition.parts))
    return set()


def apply_condition(
    store: ConstraintStore, condition: Condition
) -> Iterator[ConstraintStore]:
    """Yield consistent refinements of ``store`` where ``condition`` holds.

    Top-level (positive) existential quantifiers are handled exactly: the
    bound variables range over fresh anonymous values, which the relation
    atoms of the matrix constrain to database rows — the symbolic analogue
    of the paper's "simulate ∃FO by adding variables".
    """
    bound, matrix = _plan(condition)
    if bound:
        scratch = store.copy()
        saved = {
            variable: scratch._binding.get(variable) for variable in bound
        }
        for variable in bound:
            scratch.rebind_fresh(variable)
        for refined in apply_condition(scratch, matrix):
            for variable, old in saved.items():
                if old is None:
                    refined._binding.pop(variable, None)
                else:
                    refined._binding[variable] = old
            refined._canon_cache = None
            yield refined
        return
    seen_keys: set = set()
    for branch in _apply_nnf(store.copy(), matrix):
        if branch.is_consistent():
            key = branch.canonical_key()
            if key not in seen_keys:
                seen_keys.add(key)
                yield branch


def _plan(condition: Condition) -> tuple[tuple[Variable, ...], Condition]:
    """``condition`` rewritten for application: ``(bound, matrix)`` with
    the top-level existentials hoisted into ``bound``, and the matrix in
    NNF when nothing is bound (a bound matrix is planned again by the
    recursive :func:`apply_condition` call that applies it).

    The rewrite (``eliminate_single_atom_exists → pull_exists →
    nnf_condition``) is a pure function of an immutable condition, and
    service, guard and property conditions are applied at every
    expansion, so it runs once per condition object: the plan is
    memoized on the object itself, as ``Constraint.canonical()`` is.  A
    condition whose rewrite raises (∃ under ¬) stores nothing and raises
    again on every call."""
    plan = condition.__dict__.get("_apply_plan")
    if plan is None:
        bound, matrix = pull_exists(eliminate_single_atom_exists(condition))
        plan = (bound, matrix) if bound else ((), nnf_condition(matrix))
        # conditions are frozen: bypass the frozen __setattr__ (the memo
        # is not a field, so eq/hash are unaffected)
        object.__setattr__(condition, "_apply_plan", plan)
    return plan


def _apply_nnf(store: ConstraintStore, condition: Condition) -> list[ConstraintStore]:
    """Refinements making an NNF condition hold.  Consumes ``store`` (it
    may be mutated and/or appear in the result); branches are independent
    copies.  Arithmetic consistency is checked by the caller."""
    from repro.logic.conditions import And, Exists, Or, TRUE, FALSE

    if condition is TRUE or isinstance(condition, type(TRUE)):
        return [store]
    if condition is FALSE or isinstance(condition, type(FALSE)):
        return []
    if isinstance(condition, Atom):
        return list(apply_atom(store, condition, True))
    if isinstance(condition, Not):
        body = condition.body
        if not isinstance(body, Atom):
            raise ConditionError(f"not in NNF: {condition!r}")
        return list(apply_atom(store, body, False))
    if isinstance(condition, And):
        branches = [store]
        for part in condition.parts:
            grown: list[ConstraintStore] = []
            for branch in branches:
                grown.extend(_apply_nnf(branch, part))
            branches = grown
            if not branches:
                return []
        return branches
    if isinstance(condition, Or):
        results: list[ConstraintStore] = []
        for index, part in enumerate(condition.parts):
            source = store if index == len(condition.parts) - 1 else store.copy()
            results.extend(_apply_nnf(source, part))
        return results
    if isinstance(condition, Exists):
        bound, matrix = pull_exists(condition)
        saved = {variable: store._binding.get(variable) for variable in bound}
        for variable in bound:
            store.rebind_fresh(variable)
        results = _apply_nnf(store, matrix)
        for refined in results:
            for variable, old in saved.items():
                if old is None:
                    refined._binding.pop(variable, None)
                else:
                    refined._binding[variable] = old
            refined._canon_cache = None
        return results
    raise ConditionError(f"cannot apply {condition!r}")


def apply_atom(
    store: ConstraintStore, atom: Atom, truth: bool
) -> Iterator[ConstraintStore]:
    """Yield refinements of ``store`` in which the atom has value ``truth``.

    The input store is consumed (mutated or copied); callers pass a copy.
    """
    if isinstance(atom, Eq):
        yield from _apply_eq(store, atom, truth)
    elif isinstance(atom, ArithAtom):
        yield from _apply_arith(store, atom, truth)
    elif isinstance(atom, RelationAtom):
        if truth:
            yield from _apply_relation_true(store, atom)
        else:
            yield from _apply_relation_false(store, atom)
    else:
        raise ConditionError(f"unsupported atom for symbolic application: {atom!r}")


def _apply_eq(store: ConstraintStore, atom: Eq, truth: bool) -> Iterator[ConstraintStore]:
    try:
        left = term_node(store, atom.left)
        right = term_node(store, atom.right)
        if truth:
            store.assert_eq(left, right)
        else:
            store.assert_neq(left, right)
    except Inconsistent:
        return
    yield store


def _apply_arith(
    store: ConstraintStore, atom: ArithAtom, truth: bool
) -> Iterator[ConstraintStore]:
    constraint = atom.constraint if truth else atom.constraint.negate()
    mapping = {
        unknown: store.node_of(unknown)  # type: ignore[arg-type]
        for unknown in constraint.unknowns
    }
    try:
        renamed = constraint.rename(mapping)
        store.add_linear(renamed.expr, renamed.rel)
    except Inconsistent:
        return
    yield store


def _apply_relation_true(
    store: ConstraintStore, atom: RelationAtom
) -> Iterator[ConstraintStore]:
    relation = store.schema.relation(atom.relation)
    names = relation.attribute_names
    first = atom.args[0]
    if isinstance(first, NullTerm):
        return  # R(null, …) is false
    try:
        ident = term_node(store, first)
        store.assert_anchor(ident, atom.relation)
        for position in range(1, len(atom.args)):
            if isinstance(atom.args[position], WildcardTerm):
                continue  # unconstrained position (eliminated ∃)
            attr = relation.attribute(names[position])
            child = store.nav(ident, attr.name)
            arg = term_node(store, atom.args[position])
            store.assert_eq(child, arg)
    except Inconsistent:
        return
    yield store


def _apply_relation_false(
    store: ConstraintStore, atom: RelationAtom
) -> Iterator[ConstraintStore]:
    relation = store.schema.relation(atom.relation)
    names = relation.attribute_names
    first = atom.args[0]
    if isinstance(first, NullTerm):
        yield store  # already false
        return
    # branch (a): the identifier is null
    branch = store.copy()
    try:
        branch.assert_null(term_node(branch, first))
        yield branch
    except Inconsistent:
        pass
    # branch (b): anchored to a different relation
    branch = store.copy()
    try:
        branch.exclude_anchor(term_node(branch, first), atom.relation)
        yield branch
    except Inconsistent:
        pass
    # branches (c): anchored here but one position differs
    for position in range(1, len(atom.args)):
        if isinstance(atom.args[position], WildcardTerm):
            continue  # a wildcard position cannot mismatch
        branch = store.copy()
        try:
            ident = term_node(branch, first)
            branch.assert_anchor(ident, atom.relation)
            attr = relation.attribute(names[position])
            child = branch.nav(ident, attr.name)
            arg = term_node(branch, atom.args[position])
            branch.assert_neq(child, arg)
            yield branch
        except Inconsistent:
            continue


def condition_status(store: ConstraintStore, condition: Condition) -> bool | None:
    """Definite truth value of a condition on the store, or None.

    Decided by refinement: φ is definitely true when ¬φ admits no
    consistent refinement, and vice versa.
    """
    negative = next(iter(apply_condition(store, Not(condition))), None)
    positive = next(iter(apply_condition(store, condition)), None)
    if positive is not None and negative is None:
        return True
    if positive is None and negative is not None:
        return False
    if positive is None and negative is None:
        raise Inconsistent("store admits neither φ nor ¬φ — inconsistent input")
    return None
