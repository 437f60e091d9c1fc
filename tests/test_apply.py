"""Symbolic condition application: refinement semantics and case splits."""

from fractions import Fraction

import pytest

from repro.arith.constraints import Rel, compare
from repro.arith.linexpr import const as linconst, var as linvar
from repro.errors import ConditionError
from repro.logic.conditions import (
    And,
    ArithAtom,
    Eq,
    Exists,
    Implies,
    Not,
    Or,
    RelationAtom,
    TRUE,
    FALSE,
)
from repro.logic.terms import Const, NULL, id_var, num_var
from repro.symbolic.apply import apply_condition, condition_status, pull_exists
from repro.symbolic.store import ConstraintStore

x, y = id_var("x"), id_var("y")
p, q = num_var("p"), num_var("q")


@pytest.fixture
def store(travel_schema):
    return ConstraintStore(travel_schema)


def refinements(store, condition):
    return list(apply_condition(store, condition))


def keys(stores):
    return sorted(repr(s.canonical_key()) for s in stores)


class TestBasics:
    def test_true_false(self, store):
        assert len(refinements(store, TRUE)) == 1
        assert refinements(store, FALSE) == []

    def test_eq_refinement(self, store):
        (refined,) = refinements(store, Eq(x, y))
        assert refined.equal(refined.node_of(x), refined.node_of(y)) is True

    def test_contradiction_pruned(self, store):
        store.assert_neq(store.node_of(x), store.node_of(y))
        assert refinements(store, Eq(x, y)) == []

    def test_or_branches(self, store):
        results = refinements(store, Or(Eq(x, NULL), Eq(y, NULL)))
        assert len(results) >= 2

    def test_and_conjoins(self, store):
        (refined,) = refinements(store, And(Eq(x, NULL), Eq(y, NULL)))
        assert refined.null_status(refined.node_of(x)) is True
        assert refined.null_status(refined.node_of(y)) is True

    def test_arith_applied(self, store):
        atom = ArithAtom(compare(linvar(p), Rel.GT, linconst(5)))
        (refined,) = refinements(store, atom)
        node = refined.node_of(p)
        assert refined.equal(node, refined.const(3)) is False


class TestRelationAtoms:
    def test_positive_builds_navigation(self, store):
        atom = RelationAtom("FLIGHTS", (x, p, y))
        (refined,) = refinements(store, atom)
        node = refined.node_of(x)
        assert refined.anchor_of(node) == "FLIGHTS"
        hotel = refined.child_of(node, "comp_hotel_id")
        assert hotel is not None
        assert refined.equal(hotel, refined.node_of(y)) is True

    def test_negative_branches_cover_falsifications(self, store):
        atom = RelationAtom("FLIGHTS", (x, p, y))
        results = refinements(store, Not(atom))
        assert len(results) >= 3  # null, other anchor, position mismatches
        kinds = set()
        for refined in results:
            node = refined.node_of(x)
            if refined.null_status(node) is True:
                kinds.add("null")
            elif "FLIGHTS" in refined.excluded_anchors(node):
                kinds.add("excluded")
            else:
                kinds.add("mismatch")
        assert kinds == {"null", "excluded", "mismatch"}

    def test_positive_then_negative_contradiction(self, store):
        atom = RelationAtom("HOTELS", (x, p, q))
        (refined,) = refinements(store, atom)
        # the same atom cannot now be false: null/exclusion/equal-args all clash
        survivors = refinements(refined, Not(atom))
        assert survivors == []

    def test_implication(self, store):
        cond = Implies(Eq(x, NULL), Eq(y, NULL))
        results = refinements(store, cond)
        assert results
        for refined in results:
            nx = refined.null_status(refined.node_of(x))
            ny = refined.null_status(refined.node_of(y))
            assert nx is False or ny is True


class TestExists:
    def test_pull_exists(self):
        c = id_var("c")
        cond = And(Eq(x, NULL), Exists((c,), Eq(c, y)))
        bound, matrix = pull_exists(cond)
        assert bound == (c,)

    def test_exists_applies_anonymously(self, store):
        c = id_var("c")
        pr = num_var("pr")
        cond = Exists((c, pr), RelationAtom("FLIGHTS", (c, pr, x)))
        (refined,) = refinements(store, cond)
        # x is anchored to HOTELS through the flight's FK …
        assert refined.anchor_of(refined.node_of(x)) == "HOTELS"
        # … but c and pr are not bound afterwards
        assert c not in refined.bound_variables()

    def test_hoisting_does_not_capture_a_free_variable(self, store):
        """``x = null ∧ ∃x,pr,c. FLIGHTS(x,pr,c)`` is satisfiable: the bound
        ``x`` is another variable than the free one, so it refines like
        its renamed twin."""
        c, pr = id_var("c"), num_var("pr")

        def flight(anchor):
            return Exists((anchor, pr, c), RelationAtom("FLIGHTS", (anchor, pr, c)))

        captured = And(Eq(x, NULL), flight(x))
        renamed = And(Eq(x, NULL), flight(y))
        assert keys(refinements(store.copy(), captured)) == keys(
            refinements(store.copy(), renamed)
        )
        assert keys(refinements(store.copy(), renamed))

    def test_sibling_exists_may_reuse_a_name(self, store):
        """``∃c.A ∧ ∃c.B`` binds two variables: it refines like its
        renamed twin instead of raising."""
        c, d = id_var("c"), id_var("d")
        hotel = RelationAtom("HOTELS", (x, p, q))
        reused = And(Exists((c,), Eq(c, x)), Exists((c,), Eq(c, y)), hotel)
        renamed = And(Exists((c,), Eq(c, x)), Exists((d,), Eq(d, y)), hotel)
        assert keys(refinements(store.copy(), reused)) == keys(
            refinements(store.copy(), renamed)
        )
        bound, _matrix = pull_exists(reused)
        assert len(set(bound)) == 2

    def test_negated_exists_rejected(self, store):
        """On every call, not only the first: a rewrite that raises
        leaves no memoized plan behind."""
        c = id_var("c")
        negated = Not(Exists((c,), Eq(c, x)))
        for cond in (negated, And(Eq(x, y), negated)):
            for _ in range(3):
                with pytest.raises(ConditionError):
                    refinements(store.copy(), cond)
            assert "_apply_plan" not in cond.__dict__


class TestConditionStatus:
    def test_unknown(self, store):
        assert condition_status(store, Eq(x, y)) is None

    def test_definite_true(self, store):
        store.assert_eq(store.node_of(x), store.node_of(y))
        assert condition_status(store, Eq(x, y)) is True

    def test_definite_false(self, store):
        store.assert_neq(store.node_of(x), store.node_of(y))
        assert condition_status(store, Eq(x, y)) is False
