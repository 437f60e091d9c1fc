"""Exact linear expressions over named unknowns.

A :class:`LinExpr` is an immutable mapping ``unknown -> coefficient`` plus
a constant term.  Unknowns are arbitrary hashable objects — the verifier
uses numeric artifact variables and navigation expressions as unknowns.

Coefficients and the constant are exact rationals held in one normal
form (:func:`_normal`): integral values are plain ``int`` and only
non-integral values are ``Fraction``.  ``int`` and ``Fraction`` agree on
``==``, ``hash`` and ``str`` for integral values, so the representation
is invisible to equality, hashing and rendering — it only keeps the
integral common case off ``Fraction``'s slow arithmetic.  Division still
goes through ``Fraction``, and :meth:`LinExpr.evaluate` returns a
``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping

Unknown = Hashable
Coefficient = int | float | Fraction


def _normal(value: int | Fraction) -> int | Fraction:
    """The normal form of an exact rational: ``int`` when integral."""
    if value.__class__ is int or value.denominator != 1:
        return value
    return value.numerator


def _coerce(value: Coefficient) -> int | Fraction:
    if value.__class__ is int:
        return value
    if isinstance(value, Fraction):
        return _normal(value)
    if isinstance(value, bool):  # guard against accidental booleans
        raise TypeError("boolean is not a coefficient")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return _normal(Fraction(value).limit_denominator(10**12))
    raise TypeError(f"cannot use {value!r} as a coefficient")


class LinExpr:
    """``c0 + Σ ci·ui`` with rational coefficients, immutable and hashable."""

    __slots__ = ("_coeffs", "_constant", "_hash", "_unknowns")

    def __init__(
        self,
        coeffs: Mapping[Unknown, Coefficient] | None = None,
        constant: Coefficient = 0,
    ):
        items = {}
        if coeffs:
            for unknown, coeff in coeffs.items():
                value = _coerce(coeff)
                if value != 0:
                    items[unknown] = value
        self._coeffs: dict[Unknown, int | Fraction] = items
        self._constant = _coerce(constant)
        self._hash: int | None = None
        self._unknowns: frozenset[Unknown] | None = None

    @classmethod
    def _raw(
        cls, coeffs: dict[Unknown, int | Fraction], constant: int | Fraction
    ) -> "LinExpr":
        """Trusted constructor for the hot algebraic paths: ``coeffs`` must
        already be a private dict of non-zero values and every value,
        ``constant`` included, in :func:`_normal` form.  Skips coercion and
        zero-filtering — the arithmetic below guarantees both invariants."""
        expr = cls.__new__(cls)
        expr._coeffs = coeffs
        expr._constant = constant
        expr._hash = None
        expr._unknowns = None
        return expr

    # ------------------------------------------------------------------
    @property
    def constant(self) -> int | Fraction:
        return self._constant

    @property
    def coeffs(self) -> Mapping[Unknown, int | Fraction]:
        return dict(self._coeffs)

    def coefficient(self, unknown: Unknown) -> int | Fraction:
        return self._coeffs.get(unknown, 0)

    @property
    def unknowns(self) -> frozenset[Unknown]:
        if self._unknowns is None:
            self._unknowns = frozenset(self._coeffs)
        return self._unknowns

    @property
    def is_constant(self) -> bool:
        return not self._coeffs

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def __add__(self, other: "LinExpr | Coefficient") -> "LinExpr":
        other = to_linexpr(other)
        coeffs = dict(self._coeffs)
        _merge_into(coeffs, other._coeffs.items())
        return LinExpr._raw(coeffs, _normal(self._constant + other._constant))

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr._raw(
            {u: -c for u, c in self._coeffs.items()}, -self._constant
        )

    def __sub__(self, other: "LinExpr | Coefficient") -> "LinExpr":
        return self + (-to_linexpr(other))

    def __rsub__(self, other: "LinExpr | Coefficient") -> "LinExpr":
        return to_linexpr(other) + (-self)

    def __mul__(self, scalar: Coefficient) -> "LinExpr":
        factor = _coerce(scalar)
        if factor == 0:
            return LinExpr._raw({}, 0)
        # a Fraction times an int can be integral too, so every product
        # is normalized, not only those with a Fraction factor
        return LinExpr._raw(
            {u: _normal(c * factor) for u, c in self._coeffs.items()},
            _normal(self._constant * factor),
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar: Coefficient) -> "LinExpr":
        return self * (Fraction(1) / _coerce(scalar))

    def substitute(self, assignment: Mapping[Unknown, "LinExpr | Coefficient"]) -> "LinExpr":
        """Replace unknowns by expressions (or constants)."""
        result = LinExpr({}, self._constant)
        for unknown, coeff in self._coeffs.items():
            if unknown in assignment:
                result = result + to_linexpr(assignment[unknown]) * coeff
            else:
                result = result + LinExpr({unknown: coeff})
        return result

    def rename(self, mapping: Mapping[Unknown, Unknown]) -> "LinExpr":
        """Rename unknowns; unknowns not in the mapping are kept."""
        coeffs: dict[Unknown, int | Fraction] = {}
        _merge_into(
            coeffs,
            ((mapping.get(u, u), c) for u, c in self._coeffs.items()),
        )
        return LinExpr._raw(coeffs, self._constant)

    def evaluate(self, valuation: Mapping[Unknown, Coefficient]) -> Fraction:
        total = self._constant
        for unknown, coeff in self._coeffs.items():
            total += coeff * _coerce(valuation[unknown])
        return Fraction(total)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self._constant == other._constant and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self._constant, frozenset(self._coeffs.items()))
            )
        return self._hash

    def __reduce__(self):
        # rebuild on unpickling: the cached hash is process-specific
        return (LinExpr, (self._coeffs, self._constant))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        for unknown in sorted(self._coeffs, key=repr):
            coeff = self._coeffs[unknown]
            parts.append(f"{coeff}*{unknown}" if coeff != 1 else f"{unknown}")
        if self._constant != 0 or not parts:
            parts.append(str(self._constant))
        return " + ".join(str(p) for p in parts)


def _merge_into(
    coeffs: dict[Unknown, int | Fraction],
    items: Iterable[tuple[Unknown, int | Fraction]],
) -> None:
    """Add ``(unknown, coefficient)`` pairs into ``coeffs`` in place,
    dropping coefficients that cancel to zero."""
    for unknown, coeff in items:
        merged = coeffs.get(unknown)
        if merged is None:
            coeffs[unknown] = coeff
            continue
        merged += coeff
        if merged == 0:
            del coeffs[unknown]
        else:
            coeffs[unknown] = _normal(merged)


def to_linexpr(value: "LinExpr | Coefficient") -> LinExpr:
    if isinstance(value, LinExpr):
        return value
    return LinExpr({}, value)


def var(unknown: Unknown) -> LinExpr:
    """The expression consisting of a single unknown."""
    return LinExpr({unknown: 1})


def const(value: Coefficient) -> LinExpr:
    return LinExpr({}, value)
