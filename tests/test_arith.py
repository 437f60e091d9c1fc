"""Arithmetic substrate: linear expressions, Fourier–Motzkin, cells.

Includes hypothesis cross-checks of FM satisfiability against sampled
witnesses — FM claims SAT iff a rational witness exists — and of
LinExpr's int-or-Fraction representation against plain Fraction
arithmetic.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.arith.cells import Cell, SignCondition, count_cells, enumerate_cells
from repro.arith.constraints import Constraint, Rel, compare, eq, ge, gt, le, lt, ne
from repro.arith.fm import (
    eliminate,
    is_satisfiable,
    project,
    project_components,
    sample_solution,
)
from repro.arith.linexpr import LinExpr, const, var

x, y, z = var("x"), var("y"), var("z")


class TestLinExpr:
    def test_algebra(self):
        expr = 2 * x + y - 3
        assert expr.coefficient("x") == 2
        assert expr.coefficient("y") == 1
        assert expr.constant == -3

    def test_substitute(self):
        expr = x + 2 * y
        result = expr.substitute({"y": x + 1})
        assert result == 3 * x + 2

    def test_rename_merges(self):
        expr = x + y
        assert expr.rename({"y": "x"}) == 2 * x

    def test_evaluate(self):
        expr = x - 2 * y + 5
        assert expr.evaluate({"x": 1, "y": 3}) == 0

    def test_hash_equality(self):
        assert hash(x + y) == hash(y + x)
        assert x + y == y + x

    def test_zero_coefficients_dropped(self):
        assert (x - x).is_constant


# ----------------------------------------------------------------------
# LinExpr against a pure-Fraction reference
# ----------------------------------------------------------------------
# LinExpr holds integral values as int and only non-integral ones as
# Fraction.  The reference below is the plain rational arithmetic that
# representation must be indistinguishable from: ``(coeffs, constant)``
# with Fraction values and zero coefficients dropped.

REF_UNKNOWNS = ("x", "y", "z", "w")
RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=4)
NONZERO_RATIONALS = RATIONALS.filter(lambda value: value != 0)


@st.composite
def spelled(draw, value_strategy=RATIONALS):
    """A rational and the way a caller spells it: integral values come
    as int or as Fraction at random, so both inputs are exercised."""
    value = draw(value_strategy)
    if value.denominator == 1 and draw(st.booleans()):
        return value, int(value)
    return value, value


@st.composite
def linexprs_with_reference(draw):
    ref_coeffs: dict[str, Fraction] = {}
    given: dict[str, object] = {}
    for unknown in draw(st.sets(st.sampled_from(REF_UNKNOWNS), max_size=4)):
        value, spelling = draw(spelled())
        given[unknown] = spelling
        if value != 0:
            ref_coeffs[unknown] = value
    constant, spelling = draw(spelled())
    return LinExpr(given, spelling), (ref_coeffs, constant)


def _ref_add(left, right):
    coeffs = dict(left[0])
    for unknown, value in right[0].items():
        coeffs[unknown] = coeffs.get(unknown, Fraction(0)) + value
    return (
        {u: c for u, c in coeffs.items() if c != 0},
        left[1] + right[1],
    )


def _ref_scale(ref, factor: Fraction):
    return (
        {u: c * factor for u, c in ref[0].items() if c * factor != 0},
        ref[1] * factor,
    )


def _is_normal(value) -> bool:
    return type(value) is int or (
        type(value) is Fraction and value.denominator != 1
    )


def assert_matches(expr: LinExpr, ref) -> None:
    coeffs, constant = ref
    assert expr.coeffs == coeffs
    assert expr.constant == constant
    assert all(_is_normal(v) for v in (*expr.coeffs.values(), expr.constant))
    # the same expression built from Fractions only is equal and hashes
    # equal: the int representation is invisible to dict/set keys
    as_fractions = LinExpr(coeffs, constant)
    assert expr == as_fractions and hash(expr) == hash(as_fractions)


class TestLinExprReference:
    @given(linexprs_with_reference(), linexprs_with_reference())
    @settings(max_examples=200, deadline=None)
    def test_add_sub_neg(self, left, right):
        (a, ref_a), (b, ref_b) = left, right
        assert_matches(a, ref_a)
        assert_matches(a + b, _ref_add(ref_a, ref_b))
        assert_matches(-a, _ref_scale(ref_a, Fraction(-1)))
        assert_matches(a - b, _ref_add(ref_a, _ref_scale(ref_b, Fraction(-1))))

    @given(linexprs_with_reference(), spelled(), spelled(NONZERO_RATIONALS))
    @settings(max_examples=200, deadline=None)
    def test_mul_div(self, pair, factor, divisor):
        expr, ref = pair
        (factor_value, factor_given) = factor
        (divisor_value, divisor_given) = divisor
        assert_matches(expr * factor_given, _ref_scale(ref, factor_value))
        assert_matches(factor_given * expr, _ref_scale(ref, factor_value))
        assert_matches(expr / divisor_given, _ref_scale(ref, 1 / divisor_value))

    @given(
        linexprs_with_reference(),
        st.dictionaries(
            st.sampled_from(REF_UNKNOWNS), st.sampled_from(REF_UNKNOWNS)
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_rename(self, pair, mapping):
        expr, ref = pair
        renamed: tuple = ({}, ref[1])
        for unknown, value in ref[0].items():
            renamed = _ref_add(renamed, ({mapping.get(unknown, unknown): value}, 0))
        assert_matches(expr.rename(mapping), renamed)

    @given(
        linexprs_with_reference(),
        st.dictionaries(
            st.sampled_from(REF_UNKNOWNS),
            st.one_of(linexprs_with_reference(), spelled()),
            max_size=3,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_substitute(self, pair, assignment):
        expr, ref = pair
        given_assignment = {}
        expected: tuple = ({}, ref[1])
        for unknown, value in ref[0].items():
            if unknown in assignment:
                replacement, replacement_ref = assignment[unknown]
                if isinstance(replacement, LinExpr):
                    given_assignment[unknown] = replacement
                else:  # a scalar: (value, spelling)
                    given_assignment[unknown] = replacement_ref
                    replacement_ref = ({}, replacement)
                expected = _ref_add(expected, _ref_scale(replacement_ref, value))
            else:
                expected = _ref_add(expected, ({unknown: value}, 0))
        assert_matches(expr.substitute(given_assignment), expected)

    @given(
        linexprs_with_reference(),
        st.tuples(*(spelled() for _ in REF_UNKNOWNS)),
    )
    @settings(max_examples=200, deadline=None)
    def test_evaluate_is_an_exact_fraction(self, pair, values):
        expr, ref = pair
        valuation = {u: given for u, (_, given) in zip(REF_UNKNOWNS, values)}
        exact = {u: value for u, (value, _) in zip(REF_UNKNOWNS, values)}
        expected = ref[1] + sum(c * exact[u] for u, c in ref[0].items())
        result = expr.evaluate(valuation)
        assert type(result) is Fraction  # never an int, never a float
        assert result == expected
        # the quotient _pick_value takes stays exact
        assert type(result / 3) is Fraction

    def test_int_and_fraction_spellings_agree(self):
        from_ints = LinExpr({"x": 3, "y": -2}, 4)
        from_fractions = LinExpr(
            {"x": Fraction(3), "y": Fraction(-4, 2)}, Fraction(8, 2)
        )
        assert from_ints == from_fractions
        assert hash(from_ints) == hash(from_fractions)
        assert repr(from_ints) == repr(from_fractions)
        assert type(from_fractions.coefficient("x")) is int
        assert type((x / 2).coefficient("x")) is Fraction
        assert type((x / 2 * 2).coefficient("x")) is int


class TestSatisfiability:
    def test_trivial(self):
        assert is_satisfiable([])
        assert is_satisfiable([le(x, 5)])

    def test_contradiction(self):
        assert not is_satisfiable([lt(x, y), lt(y, x)])

    def test_strict_cycle(self):
        assert not is_satisfiable([lt(x, x)])

    def test_equalities(self):
        assert is_satisfiable([eq(x + y, 10), eq(x - y, 0)])
        assert not is_satisfiable([eq(x, 1), eq(x, 2)])

    def test_ne_convexity(self):
        # x ≤ 0 ∧ x ≥ 0 forces x = 0, so x ≠ 0 is unsatisfiable
        assert not is_satisfiable([le(x, 0), ge(x, 0), ne(x, 0)])
        assert is_satisfiable([le(x, 1), ne(x, 0)])

    def test_many_nes_stay_fast(self):
        constraints = [ge(x, 0), le(x, 1)]
        constraints += [ne(x, Fraction(1, k)) for k in range(2, 40)]
        assert is_satisfiable(constraints)  # would be 2^38 by naive splitting

    def test_constant_contradiction(self):
        assert not is_satisfiable([Constraint(const(1), Rel.LE)])


class TestProjection:
    def test_projection_simple(self):
        systems = project([le(x, y), le(y, 5)], ["x"])
        assert len(systems) == 1
        (constraint,) = systems[0].constraints
        assert constraint.holds({"x": 5})
        assert not constraint.holds({"x": 6})

    def test_projection_preserves_solutions(self):
        systems = project([eq(x, y + z), ge(y, 1), ge(z, 1)], ["x"])
        assert any(s.holds({"x": Fraction(2)}) for s in systems)
        assert not any(s.holds({"x": Fraction(1)}) for s in systems)

    def test_eliminate_unsat(self):
        assert eliminate([lt(x, y), lt(y, x)], ["x", "y"]) == []

    def test_project_components_exact_for_live(self):
        kept, exact = project_components([le(x, y), ne(x, 3)], {"x", "y"})
        assert exact
        assert len(kept) == 2

    def test_project_components_drops_dead_component(self):
        kept, exact = project_components([le(z, 5), le(x, y)], {"x", "y"})
        assert exact
        assert all("z" not in c.unknowns for c in kept)

    def test_project_components_flags_dead_ne(self):
        # z is dead and x ≤ z ≤ x forces z = x: dropping z ≠ 0 may lose
        # information exactly when x = 0
        kept, exact = project_components(
            [le(x, z), le(z, x), ne(z, 0)], {"x"}
        )
        assert not exact


class TestSampling:
    def test_sample_satisfies(self):
        constraints = [eq(x + y, 10), ge(x, 4), ne(y, 0), lt(y, 3)]
        solution = sample_solution(constraints)
        assert solution is not None
        for constraint in constraints:
            assert constraint.holds(solution)

    def test_sample_none_when_unsat(self):
        assert sample_solution([lt(x, y), lt(y, x)]) is None


@st.composite
def small_constraints(draw):
    unknowns = ["x", "y", "z"]
    coefficients = spelled(st.fractions(min_value=-3, max_value=3, max_denominator=3))
    coeffs = {
        u: draw(coefficients)[1]
        for u in draw(st.sets(st.sampled_from(unknowns), min_size=1, max_size=3))
    }
    constant = draw(
        spelled(st.fractions(min_value=-5, max_value=5, max_denominator=2))
    )[1]
    rel = draw(st.sampled_from([Rel.LE, Rel.LT, Rel.EQ, Rel.NE, Rel.GE, Rel.GT]))
    return Constraint(LinExpr(coeffs, constant), rel)


class TestFMProperties:
    @given(st.lists(small_constraints(), max_size=5))
    @settings(max_examples=120, deadline=None)
    def test_sat_iff_sample_exists(self, constraints):
        sat = is_satisfiable(constraints)
        sample = sample_solution(constraints)
        if sample is not None:
            # integral coefficients are ints: _pick_value's divisions
            # must still yield exact Fractions, never floats (or ints)
            assert all(type(v) is Fraction for v in sample.values())
            full = {u: sample.get(u, Fraction(0)) for u in ("x", "y", "z")}
            assert all(c.holds(full) for c in constraints)
            assert sat
        else:
            assert not sat

    @given(st.lists(small_constraints(), max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_projection_soundness(self, constraints):
        """Any solution of the original projects into some projected system."""
        sample = sample_solution(constraints)
        if sample is None:
            return
        full = {u: sample.get(u, Fraction(0)) for u in ("x", "y", "z")}
        systems = project(constraints, ["x"])
        assert any(system.holds(full) for system in systems)


class TestCells:
    def test_three_lines_thirteen_cells(self):
        assert count_cells([x, y, x - y]) == 13

    def test_single_polynomial_three_cells(self):
        assert count_cells([x]) == 3

    def test_dependent_polynomials_prune(self):
        # x and 2x have correlated signs: cells where sign(x) ≠ sign(2x)
        # are empty
        assert count_cells([x, 2 * x]) == 3

    def test_cell_sampling_and_membership(self):
        for cell in enumerate_cells([x - 1, y]):
            point = cell.sample()
            assert point is not None
            full = {u: point.get(u, Fraction(0)) for u in ("x", "y")}
            assert cell.contains(full)

    def test_refinement(self):
        cells = list(enumerate_cells([x]))
        finer = list(enumerate_cells([x, x - 1]))
        for fine in finer:
            assert any(fine.refines(coarse) for coarse in cells)

    def test_projection_of_cell(self):
        cell = next(iter(enumerate_cells([x - y])))
        polys = cell.project_polynomials(["x"])
        assert isinstance(polys, list)

    def test_cell_count_within_bound(self):
        from repro.analysis.counting import cell_count_bound

        polys = [x, y, x - y, x + y - 1]
        measured = count_cells(polys)
        assert measured <= cell_count_bound(len(polys), 1, 2)
