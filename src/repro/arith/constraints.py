"""Linear constraints: a relational operator applied to a linear expression.

A :class:`Constraint` is ``expr REL 0`` with ``REL`` one of the six
comparison operators.  These are the atoms of the arithmetic fragment of
conditions (the relations in the paper's interpreted set ``C``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from repro.arith.linexpr import Coefficient, LinExpr, to_linexpr, Unknown


class Rel(enum.Enum):
    """Comparison of a linear expression against zero."""

    LT = "<"
    LE = "<="
    EQ = "="
    NE = "!="
    GE = ">="
    GT = ">"

    def negate(self) -> "Rel":
        return _NEGATIONS[self]

    def flip(self) -> "Rel":
        """The relation satisfied by ``-expr`` when ``expr REL 0`` holds."""
        return _FLIPS[self]

    def evaluate(self, value: Fraction) -> bool:
        if self is Rel.LT:
            return value < 0
        if self is Rel.LE:
            return value <= 0
        if self is Rel.EQ:
            return value == 0
        if self is Rel.NE:
            return value != 0
        if self is Rel.GE:
            return value >= 0
        return value > 0


_NEGATIONS = {
    Rel.LT: Rel.GE,
    Rel.LE: Rel.GT,
    Rel.EQ: Rel.NE,
    Rel.NE: Rel.EQ,
    Rel.GE: Rel.LT,
    Rel.GT: Rel.LE,
}

_FLIPS = {
    Rel.LT: Rel.GT,
    Rel.LE: Rel.GE,
    Rel.EQ: Rel.EQ,
    Rel.NE: Rel.NE,
    Rel.GE: Rel.LE,
    Rel.GT: Rel.LT,
}


@dataclass(frozen=True, eq=False)
class Constraint:
    """``expr rel 0`` over rational unknowns.

    Constraints are memo keys throughout the verifier (FM satisfiability
    and projection caches, canonical-key caches), so the hash is computed
    once at construction, as for the symbolic store's nodes, and equality
    short-circuits on identity."""

    expr: LinExpr
    rel: Rel

    def __post_init__(self) -> None:
        # frozen dataclass: object.__setattr__ sets these non-field memos
        object.__setattr__(self, "_hash", hash((self.expr, self.rel)))
        object.__setattr__(self, "_canonical", None)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Constraint):
            return NotImplemented
        return self.rel is other.rel and self.expr == other.expr

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __reduce__(self):
        # rebuild on unpickling: the cached hash is process-specific
        return (Constraint, (self.expr, self.rel))

    def negate(self) -> "Constraint":
        return Constraint(self.expr, self.rel.negate())

    def normal_form(self) -> "Constraint":
        """``e >= 0`` / ``e > 0`` as ``-e <= 0`` / ``-e < 0``, the only
        spelling Fourier–Motzkin works with; any other constraint is
        returned as is (the same object)."""
        if self.rel is Rel.GE or self.rel is Rel.GT:
            return Constraint(-self.expr, self.rel.flip())
        return self

    def rename(self, mapping: Mapping[Unknown, Unknown]) -> "Constraint":
        return Constraint(self.expr.rename(mapping), self.rel)

    def substitute(self, assignment: Mapping[Unknown, LinExpr | Coefficient]) -> "Constraint":
        return Constraint(self.expr.substitute(assignment), self.rel)

    def holds(self, valuation: Mapping[Unknown, Coefficient]) -> bool:
        return self.rel.evaluate(self.expr.evaluate(valuation))

    @property
    def unknowns(self) -> frozenset[Unknown]:
        return self.expr.unknowns

    def canonical(self) -> "Constraint":
        """Canonical form up to positive scaling (and sign flip for EQ/NE).

        Memoized per instance: constraints are immutable and the verifier
        re-canonicalizes the same objects constantly while building store
        canonical keys."""
        cached = self._canonical  # type: ignore[attr-defined]
        if cached is not None:
            return cached
        expr = self.expr
        rel = self.rel
        if expr.unknowns:
            lead = sorted(expr.unknowns, key=repr)[0]
            coeff = expr.coefficient(lead)
            if coeff < 0:
                expr = -expr
                rel = rel.flip()
            expr = expr / abs(coeff)
        result = Constraint(expr, rel)
        object.__setattr__(result, "_canonical", result)
        object.__setattr__(self, "_canonical", result)
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.expr} {self.rel.value} 0)"


def compare(lhs: LinExpr | Coefficient, rel: Rel, rhs: LinExpr | Coefficient) -> Constraint:
    """Build the constraint ``lhs rel rhs`` as ``(lhs - rhs) rel 0``."""
    return Constraint(to_linexpr(lhs) - to_linexpr(rhs), rel)


def eq(lhs: LinExpr | Coefficient, rhs: LinExpr | Coefficient) -> Constraint:
    return compare(lhs, Rel.EQ, rhs)


def le(lhs: LinExpr | Coefficient, rhs: LinExpr | Coefficient) -> Constraint:
    return compare(lhs, Rel.LE, rhs)


def lt(lhs: LinExpr | Coefficient, rhs: LinExpr | Coefficient) -> Constraint:
    return compare(lhs, Rel.LT, rhs)


def ge(lhs: LinExpr | Coefficient, rhs: LinExpr | Coefficient) -> Constraint:
    return compare(lhs, Rel.GE, rhs)


def gt(lhs: LinExpr | Coefficient, rhs: LinExpr | Coefficient) -> Constraint:
    return compare(lhs, Rel.GT, rhs)


def ne(lhs: LinExpr | Coefficient, rhs: LinExpr | Coefficient) -> Constraint:
    return compare(lhs, Rel.NE, rhs)
