"""Sign conditions and cells (Appendix D.2 / D.3).

Given a finite set of (linear) polynomials ``P``, a *sign condition* maps
each polynomial to -1, 0 or +1; its *cell* is the set of points realizing
those signs.  Appendix D.2 recalls that the number of *non-empty* cells is
``(s·d)^O(k)`` — far below the naive ``3^s``.  :func:`enumerate_cells`
computes exactly the non-empty cells by incremental satisfiability pruning,
which makes the enumeration output-sensitive rather than ``3^s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from repro.arith.constraints import Constraint, Rel
from repro.arith.fm import is_satisfiable, project, sample_solution
from repro.arith.linexpr import LinExpr, Unknown

Sign = int  # -1, 0, +1

_SIGN_RELS: dict[Sign, Rel] = {-1: Rel.LT, 0: Rel.EQ, 1: Rel.GT}


@dataclass(frozen=True)
class SignCondition:
    """A mapping from polynomials to signs, in a fixed polynomial order."""

    polynomials: tuple[LinExpr, ...]
    signs: tuple[Sign, ...]

    def __post_init__(self) -> None:
        if len(self.polynomials) != len(self.signs):
            raise ValueError("sign condition length mismatch")

    def constraints(self) -> list[Constraint]:
        return [
            Constraint(poly, _SIGN_RELS[sign])
            for poly, sign in zip(self.polynomials, self.signs)
        ]


@dataclass(frozen=True)
class Cell:
    """The non-empty solution set of a sign condition."""

    condition: SignCondition

    def constraints(self) -> list[Constraint]:
        return self.condition.constraints()

    @property
    def unknowns(self) -> frozenset[Unknown]:
        result: set[Unknown] = set()
        for poly in self.condition.polynomials:
            result.update(poly.unknowns)
        return frozenset(result)

    def contains(self, point: Mapping[Unknown, Fraction]) -> bool:
        return all(c.holds(point) for c in self.constraints())

    def sample(self) -> dict[Unknown, Fraction] | None:
        return sample_solution(self.constraints())

    def refines(self, other: "Cell") -> bool:
        """True when this cell's constraints entail the other's.

        Entailment check: this ∧ ¬c is unsatisfiable for every constraint c
        of the other cell (exact over linear constraints).
        """
        mine = self.constraints()
        for constraint in other.constraints():
            if is_satisfiable(mine + [constraint.negate()]):
                return False
        return True

    def project_polynomials(self, keep: Iterable[Unknown]) -> list[LinExpr]:
        """Polynomials defining the projection of this cell onto ``keep``.

        The Tarski–Seidenberg step of Appendix D.4: the projection of a cell
        is a union of cells of the derived polynomials.
        """
        systems = project(self.constraints(), keep)
        polys: list[LinExpr] = []
        seen: set[Constraint] = set()
        for system in systems:
            for constraint in system:
                canon = constraint.canonical()
                key = Constraint(canon.expr, Rel.EQ)  # identify by expression
                if key not in seen:
                    seen.add(key)
                    polys.append(canon.expr)
        return polys


def enumerate_cells(
    polynomials: Sequence[LinExpr],
    ambient: Iterable[Constraint] = (),
) -> Iterator[Cell]:
    """Yield every non-empty cell of ``polynomials`` (within ``ambient``).

    Incremental construction: assign signs one polynomial at a time and
    prune unsatisfiable prefixes, so only non-empty cells are expanded.
    """
    polys = tuple(polynomials)
    base = list(ambient)

    def extend(prefix: list[Sign], accumulated: list[Constraint]) -> Iterator[Cell]:
        if len(prefix) == len(polys):
            yield Cell(SignCondition(polys, tuple(prefix)))
            return
        poly = polys[len(prefix)]
        for sign in (-1, 0, 1):
            candidate = accumulated + [Constraint(poly, _SIGN_RELS[sign])]
            if is_satisfiable(base + candidate):
                yield from extend(prefix + [sign], candidate)

    yield from extend([], [])


def count_cells(polynomials: Sequence[LinExpr]) -> int:
    """Number of non-empty cells — compare against the (s·d)^O(k) bound."""
    return sum(1 for _ in enumerate_cells(polynomials))
