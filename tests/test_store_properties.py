"""Property-based soundness checks for the store's projection operations.

``restrict`` implements τ'|x̄_in (the symbolic transition's persistence
step) and ``absorb`` implements child-I/O fact transfer; together they are
the data-flow backbone of the verifier.  These tests check, over random
assertion sequences, that projection never *loses* facts about kept
variables and never *invents* facts about dropped ones.
"""

from hypothesis import given, settings, strategies as st

from repro.arith.constraints import Rel
from repro.arith.linexpr import LinExpr
from repro.database.schema import DatabaseSchema, Relation, foreign_key, numeric
from repro.logic.terms import id_var, num_var
from repro.symbolic.nodes import Sort
from repro.symbolic.store import ConstraintStore, Inconsistent

SCHEMA = DatabaseSchema(
    (
        Relation("F", (numeric("price"), foreign_key("hotel", "H"))),
        Relation("H", (numeric("rate"),)),
    )
)

IDS = [id_var(n) for n in ("u", "v", "w")]
NUMS = [num_var(n) for n in ("a", "b")]


@st.composite
def op_sequences(draw):
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(
            st.sampled_from(
                [
                    "eq",
                    "neq",
                    "null",
                    "anchor",
                    "nav_eq",
                    "num_le",
                    "num_ge",
                    "num_eq",
                ]
            )
        )
        ops.append(
            (
                kind,
                draw(st.sampled_from(IDS)),
                draw(st.sampled_from(IDS)),
                draw(st.sampled_from(NUMS)),
                draw(st.integers(min_value=-3, max_value=3)),
                draw(st.sampled_from(["F", "H"])),
            )
        )
    return ops


def apply_ops(store: ConstraintStore, ops) -> bool:
    """Returns False when the sequence was inconsistent (test skipped)."""
    try:
        for kind, x, y, n, k, rel in ops:
            if kind == "eq":
                store.assert_eq(store.node_of(x), store.node_of(y))
            elif kind == "neq":
                store.assert_neq(store.node_of(x), store.node_of(y))
            elif kind == "null":
                store.assert_null(store.node_of(x))
            elif kind == "anchor":
                store.assert_anchor(store.node_of(x), rel)
            elif kind == "nav_eq":
                store.assert_anchor(store.node_of(x), "F")
                price = store.nav(store.node_of(x), "price")
                store.assert_eq(price, store.node_of(n))
            elif kind == "num_le":
                store.add_linear(LinExpr({store.node_of(n): 1}, -k), Rel.LE)
            elif kind == "num_ge":
                store.add_linear(LinExpr({store.node_of(n): 1}, -k), Rel.GE)
            elif kind == "num_eq":
                store.add_linear(LinExpr({store.node_of(n): 1}, -k), Rel.EQ)
    except Inconsistent:
        return False
    return store.is_consistent()


class TestRestrictSoundness:
    @given(op_sequences())
    @settings(max_examples=120, deadline=None)
    def test_kept_id_facts_survive(self, ops):
        """Definite equal/unequal verdicts between kept ID variables are
        preserved by restrict (no fact loss on the projection)."""
        store = ConstraintStore(SCHEMA)
        if not apply_ops(store, ops):
            return
        keep = [IDS[0], IDS[1]]
        before = store.equal(store.node_of(keep[0]), store.node_of(keep[1]))
        null_before = [store.null_status(store.node_of(v)) for v in keep]
        anchor_before = [store.anchor_of(store.node_of(v)) for v in keep]
        restricted = store.restrict(keep)
        assert restricted.is_consistent()
        after = restricted.equal(
            restricted.node_of(keep[0]), restricted.node_of(keep[1])
        )
        if before is not None:
            assert after == before
        for variable, null_status, anchor in zip(keep, null_before, anchor_before):
            node = restricted.node_of(variable)
            if null_status is not None:
                assert restricted.null_status(node) == null_status
            if anchor is not None:
                assert restricted.anchor_of(node) == anchor

    @given(op_sequences())
    @settings(max_examples=120, deadline=None)
    def test_dropped_variables_are_fresh(self, ops):
        """After restrict, dropped variables carry no constraints."""
        store = ConstraintStore(SCHEMA)
        if not apply_ops(store, ops):
            return
        restricted = store.restrict([IDS[0]])
        dropped = restricted.node_of(IDS[2])
        assert restricted.null_status(dropped) is None
        assert restricted.anchor_of(dropped) is None
        assert restricted.equal(dropped, restricted.node_of(IDS[0])) is None

    @given(op_sequences())
    @settings(max_examples=100, deadline=None)
    def test_numeric_implications_survive(self, ops):
        """Definite numeric verdicts against constants are preserved for a
        kept numeric variable."""
        store = ConstraintStore(SCHEMA)
        if not apply_ops(store, ops):
            return
        target = NUMS[0]
        verdicts = {
            k: store.equal(store.node_of(target), store.const(k))
            for k in (-3, 0, 3)
        }
        restricted = store.restrict([target])
        assert restricted.is_consistent()
        if not restricted.approximate:
            for k, verdict in verdicts.items():
                if verdict is not None:
                    node = restricted.node_of(target)
                    assert restricted.equal(node, restricted.const(k)) == verdict


class TestAbsorbRoundTrip:
    @given(op_sequences())
    @settings(max_examples=100, deadline=None)
    def test_restrict_then_absorb_preserves_facts(self, ops):
        """restrict → absorb into a fresh store (the child-input path of the
        verifier) keeps every definite verdict about the transferred
        variables."""
        store = ConstraintStore(SCHEMA)
        if not apply_ops(store, ops):
            return
        keep = [IDS[0], IDS[1]]
        restricted = store.restrict(keep)
        target = ConstraintStore(SCHEMA)
        fresh_names = {keep[0]: id_var("c0"), keep[1]: id_var("c1")}
        try:
            target.absorb(restricted, fresh_names)
        except Inconsistent:
            raise AssertionError("absorbing a consistent store must not fail")
        assert target.is_consistent()
        before = restricted.equal(
            restricted.node_of(keep[0]), restricted.node_of(keep[1])
        )
        after = target.equal(
            target.node_of(fresh_names[keep[0]]),
            target.node_of(fresh_names[keep[1]]),
        )
        if before is not None:
            assert after == before
        for variable in keep:
            node = restricted.node_of(variable)
            mapped = target.node_of(fresh_names[variable])
            if restricted.null_status(node) is not None:
                assert target.null_status(mapped) == restricted.null_status(node)
            if restricted.anchor_of(node) is not None:
                assert target.anchor_of(mapped) == restricted.anchor_of(node)

    @given(op_sequences())
    @settings(max_examples=80, deadline=None)
    def test_canonical_key_invariant_under_roundtrip(self, ops):
        """restrict is idempotent up to canonical keys."""
        store = ConstraintStore(SCHEMA)
        if not apply_ops(store, ops):
            return
        keep = [IDS[0], NUMS[0]]
        once = store.restrict(keep)
        twice = once.restrict(keep)
        assert once.canonical_key() == twice.canonical_key()
