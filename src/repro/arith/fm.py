"""Fourier–Motzkin elimination over the rationals.

This realizes, for the linear fragment, the Tarski–Seidenberg projection
step that Section 5 of the paper obtains via quantifier elimination: the
projection of a (linear) cell onto a subset of unknowns is a union of cells
defined by derived constraints.

Disequality constraints (``!=``) are handled by case-splitting into ``<``
and ``>``, so satisfiability and projection both work on small disjunctions
of conjunctive systems — except in :func:`is_satisfiable`, which avoids
the exponential split by a convexity argument (see its docstring).

This module hosts two of the verifier's hot-path caches (documented in
docs/performance.md): satisfiability verdicts are memoized per connected
component, and whole projections are memoized on the constraint-system
fingerprint.  Both memoize pure functions of immutable constraints, so
cache hits are observationally identical to recomputation
(property-tested in tests/test_perf.py against the ``_uncached``
entry points kept public for exactly that purpose).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from repro.arith.constraints import Constraint, Rel
from repro.arith.linexpr import LinExpr, Unknown
from repro.fuzz.coverage import COVERAGE
from repro.perf.counters import COUNTERS
from repro.perf.phases import PHASES


@dataclass(frozen=True)
class ConstraintSystem:
    """An immutable conjunction of linear constraints."""

    constraints: tuple[Constraint, ...] = ()

    @staticmethod
    def of(constraints: Iterable[Constraint]) -> "ConstraintSystem":
        return ConstraintSystem(tuple(constraints))

    @property
    def unknowns(self) -> frozenset[Unknown]:
        result: set[Unknown] = set()
        for constraint in self.constraints:
            result.update(constraint.unknowns)
        return frozenset(result)

    def holds(self, valuation: Mapping[Unknown, Fraction]) -> bool:
        return all(c.holds(valuation) for c in self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)


def _normalize(constraints: Iterable[Constraint]) -> list[Constraint] | None:
    """Rewrite into {LT, LE, EQ, NE} forms; resolve constant constraints.

    Constraints already in normal form are returned as the same objects,
    so memo keys built from the output reuse their cached hashes and
    compare by identity.  Returns None when a constant constraint is
    already violated.
    """
    out: list[Constraint] = []
    for constraint in constraints:
        constraint = constraint.normal_form()
        expr = constraint.expr
        if expr.is_constant:
            if not constraint.rel.evaluate(expr.constant):
                return None
            continue
        out.append(constraint)
    return out


def _split_disequalities(constraints: Sequence[Constraint]) -> Iterable[list[Constraint]]:
    """Yield conjunctive systems covering the same solutions, NE-free."""
    disequalities = [c for c in constraints if c.rel is Rel.NE]
    rest = [c for c in constraints if c.rel is not Rel.NE]
    if not disequalities:
        yield list(rest)
        return
    for signs in itertools.product((Rel.LT, Rel.GT), repeat=len(disequalities)):
        branch = list(rest)
        for constraint, sign in zip(disequalities, signs):
            expr = constraint.expr if sign is Rel.LT else -constraint.expr
            branch.append(Constraint(expr, Rel.LT))
        yield branch


def _eliminate_equalities(
    constraints: list[Constraint], removable: set[Unknown]
) -> list[Constraint] | None:
    """Use equalities mentioning removable unknowns as substitutions."""
    current = constraints
    while True:
        pivot_idx = pivot_unknown = None
        for idx, constraint in enumerate(current):
            if constraint.rel is not Rel.EQ:
                continue
            candidates = constraint.unknowns & removable
            if candidates:
                pivot_idx = idx
                pivot_unknown = sorted(candidates, key=repr)[0]
                break
        if pivot_idx is None:
            return current
        pivot = current[pivot_idx]
        coeff = pivot.expr.coefficient(pivot_unknown)
        # x = -(expr - coeff*x) / coeff
        solution = -(pivot.expr - LinExpr({pivot_unknown: coeff})) / coeff
        substituted = []
        for idx, constraint in enumerate(current):
            if idx == pivot_idx:
                continue
            substituted.append(constraint.substitute({pivot_unknown: solution}))
        normalized = _normalize(substituted)
        if normalized is None:
            return None
        current = normalized


def _fm_eliminate_one(constraints: list[Constraint], unknown: Unknown) -> list[Constraint] | None:
    """Eliminate one unknown from an NE-free, GE/GT-free system."""
    lowers: list[tuple[LinExpr, bool]] = []  # bound <= / < x   (expr, strict)
    uppers: list[tuple[LinExpr, bool]] = []  # x <= / < bound
    rest: list[Constraint] = []
    for constraint in constraints:
        coeff = constraint.expr.coefficient(unknown)
        if coeff == 0:
            rest.append(constraint)
            continue
        if constraint.rel is Rel.EQ:
            # equalities were substituted away; if one slipped through,
            # treat it as two inequalities
            # a·x + r = 0  →  both  a·x + r ≤ 0  and  -(a·x + r) ≤ 0
            for expr in (constraint.expr, -constraint.expr):
                c2 = expr.coefficient(unknown)
                bound = -(expr - LinExpr({unknown: c2})) / c2
                if c2 > 0:
                    uppers.append((bound, False))
                else:
                    lowers.append((bound, False))
            continue
        strict = constraint.rel is Rel.LT
        bound = -(constraint.expr - LinExpr({unknown: coeff})) / coeff
        if coeff > 0:
            uppers.append((bound, strict))
        else:
            lowers.append((bound, strict))
    for (low, low_strict), (up, up_strict) in itertools.product(lowers, uppers):
        rel = Rel.LT if (low_strict or up_strict) else Rel.LE
        rest.append(Constraint(low - up, rel))
    return _normalize(rest)


def eliminate(
    constraints: Iterable[Constraint], unknowns: Iterable[Unknown]
) -> list[ConstraintSystem]:
    """Project out ``unknowns``; the result is a DNF (list of systems).

    Each returned system is NE-free and mentions none of the eliminated
    unknowns.  The union of their solution sets is exactly the projection of
    the input's solution set (Tarski–Seidenberg, linear case).
    """
    removable = set(unknowns)
    normalized = _normalize(constraints)
    if normalized is None:
        return []
    results: list[ConstraintSystem] = []
    for branch in _split_disequalities(normalized):
        reduced = _eliminate_equalities(branch, removable)
        if reduced is None:
            continue
        # canonical elimination order: set iteration follows the process
        # hash seed, and different elimination orders produce different
        # (equivalent but syntactically distinct) projected systems —
        # downstream canonical keys must be reproducible run-over-run
        remaining = sorted(
            (u for u in removable if any(u in c.unknowns for c in reduced)),
            key=repr,
        )
        failed = False
        for unknown in remaining:
            reduced = _fm_eliminate_one(reduced, unknown)
            if reduced is None:
                failed = True
                break
        if not failed:
            results.append(ConstraintSystem.of(reduced))
    return results


def project(
    constraints: Iterable[Constraint], keep: Iterable[Unknown]
) -> list[ConstraintSystem]:
    """Project onto ``keep``: eliminate every other unknown."""
    keep_set = set(keep)
    mentioned: set[Unknown] = set()
    material = list(constraints)
    for constraint in material:
        mentioned.update(constraint.unknowns)
    return eliminate(material, mentioned - keep_set)


_SAT_CACHE: dict[frozenset, bool] = {}
_SAT_CACHE_LIMIT = 400_000


def is_satisfiable(constraints: Iterable[Constraint]) -> bool:
    """Decide satisfiability over the rationals (equivalently the reals).

    Disequalities are handled by convexity instead of case-splitting: a
    convex set (the solutions of the hard constraints) avoids a finite
    union of hyperplanes iff it is contained in none of them, so
    ``H ∧ ⋀ eᵢ≠0`` is satisfiable iff H is satisfiable and, for every i,
    ``H ∧ eᵢ<0`` or ``H ∧ eᵢ>0`` is.  This keeps the number of FM calls
    linear in the number of disequalities.

    The decision is taken *per connected component* (constraints grouped
    by shared unknowns): a conjunction is satisfiable iff each component
    is, because solutions of disjoint components compose.  Component
    verdicts are memoized, so extending a system with constraints over
    fresh unknowns — the common store mutation — re-decides only the cell
    that actually changed and serves every untouched cell from the cache.
    """
    material = _normalize(list(constraints))
    if material is None:
        return False
    for component in _connected_components(material):
        if not _component_satisfiable(component):
            return False
    return True


def _component_satisfiable(component: list[Constraint]) -> bool:
    """Memoized satisfiability of one normalized connected component."""
    if any(c.rel is Rel.NE for c in component):
        # disequalities demand convexity splitting; recorded before the
        # memo lookup (it is a property of the component, not of what
        # the process-global cache has seen) so a scenario's feature
        # set stays deterministic
        COVERAGE.hit("fm:diseq_split")
    key = frozenset(component)
    cached = _SAT_CACHE.get(key)
    if cached is not None:
        COUNTERS.fm_sat_hits += 1
        # coverage is recorded on hits too: the outcome is known either
        # way, and a scenario's feature set must not depend on what the
        # process-global cache saw before it
        COVERAGE.hit("fm:sat" if cached else "fm:unsat")
        return cached
    COUNTERS.fm_sat_misses += 1
    # only misses do real work, so only misses are timed
    token = PHASES.begin("fm")
    try:
        result = _is_satisfiable_uncached(component)
    finally:
        PHASES.end("fm", token)
    COVERAGE.hit("fm:sat" if result else "fm:unsat")
    if len(_SAT_CACHE) >= _SAT_CACHE_LIMIT:
        _SAT_CACHE.clear()
    _SAT_CACHE[key] = result
    return result


def _is_satisfiable_uncached(constraints: list[Constraint]) -> bool:
    material = _normalize(constraints)
    if material is None:
        return False
    hard = [c for c in material if c.rel is not Rel.NE]
    disequalities = [c for c in material if c.rel is Rel.NE]
    if not _conjunction_satisfiable(hard):
        return False
    for constraint in disequalities:
        below = hard + [Constraint(constraint.expr, Rel.LT)]
        above = hard + [Constraint(-constraint.expr, Rel.LT)]
        if not (_conjunction_satisfiable(below) or _conjunction_satisfiable(above)):
            return False
    return True


def _conjunction_satisfiable(constraints: list[Constraint]) -> bool:
    """Satisfiability of an NE-free conjunction via plain FM."""
    reduced = _normalize(constraints)
    if reduced is None:
        return False
    mentioned: set[Unknown] = set()
    for constraint in reduced:
        mentioned.update(constraint.unknowns)
    reduced = _eliminate_equalities(reduced, set(mentioned))
    if reduced is None:
        return False
    for unknown in list(mentioned):
        if any(unknown in c.unknowns for c in reduced):
            reduced = _fm_eliminate_one(reduced, unknown)
            if reduced is None:
                return False
    return True


_PROJ_CACHE: dict[tuple, tuple[tuple[Constraint, ...], bool]] = {}
_PROJ_CACHE_LIMIT = 100_000

#: The sentinel an unsatisfiable projection collapses to (``1 == 0``).
#: The memo wrapper recognizes it so the ``fm:proj:empty`` coverage
#: feature fires on cache hits too — deterministically per query.
_PROJ_EMPTY = (Constraint(LinExpr({}, 1), Rel.EQ),)


def project_components(
    constraints: Iterable[Constraint], keep: Iterable[Unknown]
) -> tuple[list[Constraint], bool]:
    """Project a conjunction onto ``keep``, component-wise; returns
    ``(constraints, exact)``.  Memoized wrapper around
    :func:`project_components_uncached`.

    Results are cached on the constraint-system fingerprint: the exact
    constraint tuple plus the kept unknowns that actually occur in it
    (unmentioned keeps cannot affect the projection).  The store calls
    this on every ``restrict`` — once per symbolic transition — and the
    same numeric system recurs across sibling branches and re-expansions,
    so the hit rate is high; see ``docs/performance.md``.
    """
    material = list(constraints)
    mentioned: set[Unknown] = set()
    for constraint in material:
        mentioned.update(constraint.unknowns)
    keep_effective = frozenset(keep) & mentioned
    key = (tuple(material), keep_effective)
    cached = _PROJ_CACHE.get(key)
    if cached is not None:
        COUNTERS.fm_proj_hits += 1
        kept, exact = cached
        COVERAGE.hit("fm:proj:exact" if exact else "fm:proj:approx")
        if kept == _PROJ_EMPTY:
            COVERAGE.hit("fm:proj:empty")
        return list(kept), exact
    COUNTERS.fm_proj_misses += 1
    token = PHASES.begin("fm")
    try:
        kept_list, exact = project_components_uncached(material, keep_effective)
    finally:
        PHASES.end("fm", token)
    COVERAGE.hit("fm:proj:exact" if exact else "fm:proj:approx")
    if tuple(kept_list) == _PROJ_EMPTY:
        COVERAGE.hit("fm:proj:empty")
    if len(_PROJ_CACHE) >= _PROJ_CACHE_LIMIT:
        _PROJ_CACHE.clear()
    _PROJ_CACHE[key] = (tuple(kept_list), exact)
    return kept_list, exact


def project_components_uncached(
    constraints: Iterable[Constraint], keep: Iterable[Unknown]
) -> tuple[list[Constraint], bool]:
    """Project a conjunction onto ``keep``, component-wise, no memo.

    Connected components (by shared unknowns) fully inside ``keep`` are
    retained verbatim; fully-dead satisfiable components are dropped
    (exact: they are existential side conditions).  Mixed components have
    their NE-free part projected exactly by FM; disequalities over dead
    unknowns are dropped, which over-approximates only on the
    lower-dimensional slice where the hard part forces the disequality's
    expression to zero — ``exact`` is False when that can happen.

    This is the Tarski–Seidenberg step of the paper's Section 5 for the
    linear fragment; exposed uncached so property tests can assert the
    cache never changes a projection.
    """
    material = _normalize(list(constraints))
    if material is None:
        return [Constraint(LinExpr({}, 1), Rel.EQ)], True  # unsatisfiable
    keep_set = set(keep)
    components = _connected_components(material)
    kept: list[Constraint] = []
    exact = True
    for component in components:
        unknowns: set[Unknown] = set()
        for constraint in component:
            unknowns.update(constraint.unknowns)
        if unknowns <= keep_set:
            kept.extend(component)
            continue
        hard = [c for c in component if c.rel is not Rel.NE]
        if not unknowns & keep_set:
            if is_satisfiable(component):
                continue  # independent and satisfiable: drop exactly
            return [Constraint(LinExpr({}, 1), Rel.EQ)], True
        for constraint in component:
            if constraint.rel is Rel.NE:
                if constraint.unknowns <= keep_set:
                    kept.append(constraint)
                else:
                    # dropping is exact iff the hard part already implies
                    # the disequality
                    forced = _normalize(
                        hard + [Constraint(constraint.expr, Rel.EQ)]
                    )
                    if forced is not None and _conjunction_satisfiable(forced):
                        exact = False
        dead = unknowns - keep_set
        projected = eliminate(hard, dead)
        if not projected:
            return [Constraint(LinExpr({}, 1), Rel.EQ)], True
        assert len(projected) == 1, "NE-free FM projection is conjunctive"
        kept.extend(projected[0].constraints)
    return kept, exact


def _connected_components(
    constraints: list[Constraint],
) -> list[list[Constraint]]:
    """Group constraints into components sharing unknowns; constraints
    with no unknowns form their own singleton components."""
    parent: dict[Unknown, Unknown] = {}

    def find(u: Unknown) -> Unknown:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    def union(a: Unknown, b: Unknown) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for constraint in constraints:
        unknown_list = list(constraint.unknowns)
        for unknown in unknown_list:
            parent.setdefault(unknown, unknown)
        for first, second in zip(unknown_list, unknown_list[1:]):
            union(first, second)
    groups: dict[Unknown | None, list[Constraint]] = {}
    for constraint in constraints:
        unknown_list = list(constraint.unknowns)
        key = find(unknown_list[0]) if unknown_list else None
        groups.setdefault(key, []).append(constraint)
    return list(groups.values())


def clear_caches() -> None:
    """Drop the satisfiability and projection memos (tests, benchmarks)."""
    _SAT_CACHE.clear()
    _PROJ_CACHE.clear()


def sample_solution(constraints: Iterable[Constraint]) -> dict[Unknown, Fraction] | None:
    """Produce one rational solution, or None when unsatisfiable.

    Back-substitution over the FM elimination order; used by tests and by
    witness concretization.
    """
    material = _normalize(list(constraints))
    if material is None:
        return None
    for branch in _split_disequalities(material):
        solution = _sample_branch(branch)
        if solution is not None:
            return solution
    return None


def _sample_branch(branch: list[Constraint]) -> dict[Unknown, Fraction] | None:
    unknowns = sorted({u for c in branch for u in c.unknowns}, key=repr)
    stack: list[tuple[Unknown, list[Constraint]]] = []
    current = branch
    for unknown in unknowns:
        stack.append((unknown, current))
        reduced = _eliminate_equalities(list(current), {unknown})
        if reduced is None:
            return None
        if any(unknown in c.unknowns for c in reduced):
            reduced = _fm_eliminate_one(reduced, unknown)
            if reduced is None:
                return None
        current = reduced
    if _normalize(current) is None:  # constant contradiction
        return None
    solution: dict[Unknown, Fraction] = {}
    for unknown, system in reversed(stack):
        value = _pick_value(system, unknown, solution)
        if value is None:
            return None
        solution[unknown] = value
    return solution


def _pick_value(
    system: list[Constraint], unknown: Unknown, partial: dict[Unknown, Fraction]
) -> Fraction | None:
    """Pick a value for ``unknown`` consistent with ``system`` given values
    for all later-eliminated unknowns."""
    lower: tuple[Fraction, bool] | None = None  # (bound, strict)
    upper: tuple[Fraction, bool] | None = None
    for constraint in system:
        coeff = constraint.expr.coefficient(unknown)
        if coeff == 0:
            continue
        residual = constraint.expr - LinExpr({unknown: coeff})
        known = {u: partial[u] for u in residual.unknowns}
        bound = -residual.evaluate(known) / coeff
        if constraint.rel is Rel.EQ:
            lower = _tighten_lower(lower, (bound, False))
            upper = _tighten_upper(upper, (bound, False))
            continue
        strict = constraint.rel is Rel.LT
        if coeff > 0:
            upper = _tighten_upper(upper, (bound, strict))
        else:
            lower = _tighten_lower(lower, (bound, strict))
    if lower is None and upper is None:
        return Fraction(0)
    if lower is None:
        assert upper is not None
        return upper[0] - 1
    if upper is None:
        return lower[0] + 1
    low, low_strict = lower
    up, up_strict = upper
    if low > up:
        return None
    if low == up:
        if low_strict or up_strict:
            return None
        return low
    return (low + up) / 2


def _tighten_lower(
    current: tuple[Fraction, bool] | None, candidate: tuple[Fraction, bool]
) -> tuple[Fraction, bool]:
    if current is None:
        return candidate
    if candidate[0] > current[0]:
        return candidate
    if candidate[0] == current[0] and candidate[1]:
        return candidate
    return current


def _tighten_upper(
    current: tuple[Fraction, bool] | None, candidate: tuple[Fraction, bool]
) -> tuple[Fraction, bool]:
    if current is None:
        return candidate
    if candidate[0] < current[0]:
        return candidate
    if candidate[0] == current[0] and candidate[1]:
        return candidate
    return current
