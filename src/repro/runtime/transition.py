"""Local transitions (Definition 8): checking and successor enumeration.

Checking is exact.  Successor *enumeration* (used by the simulator) solves
post-conditions by enumerating ID-variable candidates from the database,
binding numeric variables through true relation atoms, and solving the
remaining arithmetic with Fourier–Motzkin; every produced successor is
re-checked concretely, so enumeration is sound (it may be incomplete only
in that it samples finitely many numeric witnesses, which is inherent to
concrete simulation of ∃ℝ choices).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from repro.arith.constraints import Constraint
from repro.arith.fm import sample_solution
from repro.database.instance import DatabaseInstance, Identifier, Value
from repro.errors import RunError
from repro.has.services import InternalService, SetUpdate
from repro.has.task import Task
from repro.logic.conditions import (
    ArithAtom,
    Condition,
    Eq,
    RelationAtom,
)
from repro.logic.terms import Const, NullTerm, Term, Variable, VarKind
from repro.runtime.state import SetTuple, TaskState


# ----------------------------------------------------------------------
# transition checking (exact, Definition 8)
# ----------------------------------------------------------------------
def check_internal_transition(
    task: Task,
    service: InternalService,
    db: DatabaseInstance,
    prev: TaskState,
    nxt: TaskState,
) -> None:
    """Raise :class:`RunError` unless ``prev --service--> nxt`` is legal."""
    if not service.pre.evaluate(db, prev.valuation):
        raise RunError(f"{task.name}.{service.name}: pre-condition fails")
    if not service.post.evaluate(db, nxt.valuation):
        raise RunError(f"{task.name}.{service.name}: post-condition fails")
    for variable in task.input_variables:
        if prev.valuation[variable] != nxt.valuation[variable]:
            raise RunError(
                f"{task.name}.{service.name}: input variable {variable!r} changed "
                f"(restriction 1)"
            )
    _check_set_update(task, service.update, prev, nxt)


def _check_set_update(
    task: Task, update: SetUpdate, prev: TaskState, nxt: TaskState
) -> None:
    inserted = prev.set_tuple(task)
    retrieved = nxt.set_tuple(task)
    if update is SetUpdate.NONE:
        expected = prev.set_contents
    elif update is SetUpdate.INSERT:
        expected = prev.set_contents | {inserted}
    elif update is SetUpdate.RETRIEVE:
        if retrieved not in prev.set_contents:
            raise RunError(f"{task.name}: retrieved tuple {retrieved!r} not in S^T")
        expected = prev.set_contents - {retrieved}
    else:  # BOTH
        pool = prev.set_contents | {inserted}
        if retrieved not in pool:
            raise RunError(
                f"{task.name}: retrieved tuple {retrieved!r} not in S^T ∪ {{inserted}}"
            )
        expected = pool - {retrieved}
    if nxt.set_contents != expected:
        raise RunError(f"{task.name}: artifact relation not updated per δ")


def check_open_child(
    parent: Task, child: Task, db: DatabaseInstance, prev: TaskState, nxt: TaskState
) -> None:
    if not child.opening.pre.evaluate(db, prev.valuation):
        raise RunError(f"{child.name}: opening guard fails")
    if dict(prev.valuation) != dict(nxt.valuation) or prev.set_contents != nxt.set_contents:
        raise RunError(f"{parent.name}: opening a child must not change the state")


def check_close_child(
    parent: Task,
    child: Task,
    prev: TaskState,
    nxt: TaskState,
    child_outputs: Mapping[Variable, Value] | None = None,
) -> None:
    """Check the parent-side transition when ``child`` returns.

    Per Definition 8 + restriction (2): variables outside ``x̄^T_{Tc↑}``
    are unchanged; returned ID variables that were non-null keep their
    value.  When ``child_outputs`` (the child's ν_out) is supplied, the
    overwritten variables must receive the mapped returned values
    (Definition 10 / Lemma 31 semantics for numeric returns).
    """
    returned = set(child.closing.output_map.keys())
    for variable in parent.variables:
        old = prev.valuation[variable]
        new = nxt.valuation[variable]
        if variable not in returned:
            if old != new:
                raise RunError(
                    f"{parent.name}: {variable!r} changed on close of {child.name}"
                )
            continue
        if variable.kind is VarKind.ID and old is not None:
            if old != new:
                raise RunError(
                    f"{parent.name}: non-null ID {variable!r} overwritten on return "
                    f"(restriction 2)"
                )
            continue
        if child_outputs is not None:
            source = child.closing.output_map[variable]
            if new != child_outputs.get(source):
                raise RunError(
                    f"{parent.name}: {variable!r} must receive the child's "
                    f"{source!r} on return"
                )
    if prev.set_contents != nxt.set_contents:
        raise RunError(f"{parent.name}: S^T changed on close of {child.name}")


# ----------------------------------------------------------------------
# successor enumeration (for the simulator)
# ----------------------------------------------------------------------
class EnumerationLimits:
    """Caps keeping concrete successor enumeration tractable."""

    def __init__(self, max_id_combinations: int = 4096, max_results: int = 64):
        self.max_id_combinations = max_id_combinations
        self.max_results = max_results


def _id_candidates(db: DatabaseInstance) -> list[Value]:
    ids: list[Value] = [None]
    for rel in db.schema:
        ids.extend(sorted(db._rows[rel.name].keys(), key=lambda i: (i.relation, i.label)))
    return ids


def enumerate_post_valuations(
    variables: tuple[Variable, ...],
    post: Condition,
    db: DatabaseInstance,
    preserved: Mapping[Variable, Value],
    limits: EnumerationLimits | None = None,
) -> Iterator[dict[Variable, Value]]:
    """Yield valuations of ``variables`` satisfying ``post`` that agree with
    ``preserved`` on its keys.  Sound; samples numeric witnesses via FM."""
    limits = limits or EnumerationLimits()
    # hoist positive ∃ out of the post-condition: bound variables are
    # enumerated like task variables and dropped from the result.  One
    # named like a task variable shadows it, so it is renamed apart: the
    # task variable stays in the result, unconstrained by the ∃ (as
    # apply_condition treats it)
    from repro.symbolic.apply import pull_exists

    bound, post = pull_exists(post, avoid=variables)
    search_space = tuple(variables) + tuple(bound)
    free_id_vars = [
        v for v in search_space if v.kind is VarKind.ID and v not in preserved
    ]
    free_num_vars = [
        v
        for v in search_space
        if v.kind is VarKind.NUMERIC and v not in preserved
    ]
    candidates = _id_candidates(db)
    produced = 0
    seen: set[frozenset] = set()
    combos = itertools.product(candidates, repeat=len(free_id_vars))
    for count, combo in enumerate(combos):
        if count >= limits.max_id_combinations or produced >= limits.max_results:
            return
        valuation: dict[Variable, Value] = dict(preserved)
        valuation.update(zip(free_id_vars, combo))
        for numeric_valuation in _solve_numeric(
            post, db, valuation, free_num_vars
        ):
            full = dict(valuation)
            full.update(numeric_valuation)
            if post.evaluate(db, full):
                result = {
                    variable: value
                    for variable, value in full.items()
                    if variable not in bound
                }
                key = frozenset(result.items())
                if key not in seen:
                    seen.add(key)
                    produced += 1
                    yield result
                    if produced >= limits.max_results:
                        return


def _solve_numeric(
    post: Condition,
    db: DatabaseInstance,
    id_valuation: Mapping[Variable, Value],
    free_num_vars: list[Variable],
) -> Iterator[dict[Variable, Fraction]]:
    """Sample numeric valuations plausibly satisfying ``post`` given fixed
    ID values: per abstract satisfying assignment, gather the induced
    linear constraints and let FM produce one witness."""
    if not free_num_vars:
        yield {}
        return
    try:
        assignments = list(post.satisfying_atom_assignments())
    except Exception:
        assignments = []
    emitted: set[frozenset] = set()
    fixed_numeric = {
        variable: Fraction(value)
        for variable, value in id_valuation.items()
        if variable.kind is VarKind.NUMERIC
        and value is not None
        and not isinstance(value, Identifier)
    }
    for assignment in assignments:
        constraint_sets = _constraints_for_assignment(
            assignment, db, id_valuation, set(free_num_vars)
        )
        for constraints in constraint_sets:
            constraints = [c.substitute(fixed_numeric) for c in constraints]
            solution = sample_solution(constraints)
            if solution is None:
                continue
            witness = {
                v: solution.get(v, Fraction(0)) for v in free_num_vars
            }
            key = frozenset(witness.items())
            if key not in emitted:
                emitted.add(key)
                yield witness
    # Fallback: all zeros (handles posts with no numeric atoms).
    zero = {v: Fraction(0) for v in free_num_vars}
    if frozenset(zero.items()) not in emitted:
        yield zero


def _constraints_for_assignment(
    assignment: Mapping,
    db: DatabaseInstance,
    id_valuation: Mapping[Variable, Value],
    free_num_vars: set[Variable],
) -> Iterator[list[Constraint]]:
    """Translate an abstract atom assignment into linear constraint sets.

    True relation atoms whose ID matches a database row pin their numeric
    positions to the row's values (one branch per matching row); arithmetic
    atoms contribute themselves or their negation.  False relation atoms
    and ID equalities are not encoded — the caller re-checks concretely.
    """
    from repro.arith.constraints import compare, Rel
    from repro.arith.linexpr import var as linvar, const as linconst

    base: list[Constraint] = []
    row_choices: list[list[list[Constraint]]] = []
    for atom, truth in assignment.items():
        if isinstance(atom, ArithAtom):
            base.append(atom.constraint if truth else atom.constraint.negate())
        elif isinstance(atom, Eq) and not atom.is_id_equality and truth:
            base.append(_numeric_eq_constraint(atom))
        elif isinstance(atom, Eq) and not atom.is_id_equality and not truth:
            base.append(_numeric_eq_constraint(atom).negate())
        elif isinstance(atom, RelationAtom) and truth:
            options = _row_constraints(atom, db, id_valuation)
            if options is None:
                continue
            if not options:
                return  # no matching row: assignment unrealizable
            row_choices.append(options)
    for picks in itertools.product(*row_choices) if row_choices else [()]:
        constraints = list(base)
        for pick in picks:
            constraints.extend(pick)
        yield constraints


def _numeric_eq_constraint(atom: Eq) -> Constraint:
    from repro.arith.constraints import compare, Rel
    from repro.arith.linexpr import var as linvar, const as linconst, to_linexpr

    def term_expr(term: Term):
        if isinstance(term, Const):
            return linconst(term.value)
        assert isinstance(term, Variable)
        return linvar(term)

    return compare(term_expr(atom.left), Rel.EQ, term_expr(atom.right))


def _row_constraints(
    atom: RelationAtom, db: DatabaseInstance, id_valuation: Mapping[Variable, Value]
) -> list[list[Constraint]] | None:
    """Constraint options (one per matching row) pinning numeric positions.

    Returns None when the atom's ID argument is not determined by
    ``id_valuation`` (nothing to encode), and [] when no row matches.
    """
    from repro.arith.constraints import compare, Rel
    from repro.arith.linexpr import var as linvar, const as linconst

    rel = db.schema.relation(atom.relation)
    names = rel.attribute_names
    ident_term = atom.args[0]
    if not isinstance(ident_term, Variable):
        return None
    ident = id_valuation.get(ident_term)
    if ident is None or not isinstance(ident, Identifier):
        return []
    if ident.relation != atom.relation:
        return []
    row = db.lookup(ident)
    if row is None:
        return []
    constraints: list[Constraint] = []
    for position, term in enumerate(atom.args):
        attr = rel.attribute(names[position])
        value = row[position]
        if attr.is_id_valued:
            if isinstance(term, Variable):
                bound = id_valuation.get(term, "__unset__")
                if bound != "__unset__" and bound != value:
                    return []
            continue
        # numeric position
        if isinstance(term, Const):
            if Fraction(term.value) != Fraction(value):
                return []
        elif isinstance(term, Variable):
            constraints.append(
                compare(linvar(term), Rel.EQ, linconst(Fraction(value)))
            )
    return [constraints]


def set_update_results(
    task: Task, update: SetUpdate, prev: TaskState, next_valuation: Mapping[Variable, Value]
) -> Iterator[tuple[dict[Variable, Value], frozenset[SetTuple]]]:
    """Apply δ: yield (possibly adjusted valuation, new set contents).

    For retrievals the retrieved tuple overwrites ``s̄^T`` in the next
    valuation (Definition 8), one result per retrievable tuple.
    """
    if update is SetUpdate.NONE:
        yield dict(next_valuation), prev.set_contents
        return
    inserted = prev.set_tuple(task)
    if update is SetUpdate.INSERT:
        yield dict(next_valuation), prev.set_contents | {inserted}
        return
    pool = (
        prev.set_contents | {inserted}
        if update is SetUpdate.BOTH
        else prev.set_contents
    )
    for tup in sorted(pool, key=repr):
        valuation = dict(next_valuation)
        for variable, value in zip(task.set_variables, tup):
            valuation[variable] = value
        yield valuation, pool - {tup}
