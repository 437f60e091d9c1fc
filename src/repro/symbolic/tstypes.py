"""TS-isomorphism types: the counter dimensions of the task VASS (§4.1).

A TS-type is the *total* equality type of the tuple ``s̄^T`` together with
the task's ID-sorted input variables: which positions are equal, which are
null, and which relation each non-null position is anchored to.  Counters
(one per TS-type) track the net number of insertions into ``S^T`` — the
symbolic content of the artifact relation.

This is the depth-0 specialization of the paper's TS-isomorphism types
(projections of full types onto ``x̄^T_in ∪ s̄^T`` with navigation up to
``h(T)``): it is exact whenever no condition establishes navigation facts
about a tuple *before* inserting it — which ``analysis.set_navigation_
warnings`` checks statically — because tuples that agree on all queried
relationships are interchangeable.  The *input-bound* special case
(counters capped at 1, Definition of ``a(δ, τ̂, τ̂′, c̄_ib)``) is preserved
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.logic.terms import Variable, VarKind
from repro.symbolic.nodes import Node, Sort
from repro.symbolic.store import ConstraintStore, Inconsistent


@dataclass(frozen=True)
class TSType:
    """Total equality type over the slots ``s̄^T ++ (id inputs)``.

    * ``partition``: for each slot, the index of its class (classes are
      numbered by first occurrence);
    * ``nulls``: per class, whether it is null;
    * ``anchors``: per class, the anchoring relation (None for null).
    """

    slot_names: tuple[str, ...]
    partition: tuple[int, ...]
    nulls: tuple[bool, ...]
    anchors: tuple[str | None, ...]

    def is_input_bound(self, set_slot_count: int) -> bool:
        """Every non-null set slot shares a class with some input slot.

        Depth-0 version of the paper's input-bound condition: such tuples
        can collide on re-insertion, so their counters are capped at 1.
        """
        input_classes = set(self.partition[set_slot_count:])
        for slot in range(set_slot_count):
            cls = self.partition[slot]
            if not self.nulls[cls] and cls not in input_classes:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        groups: dict[int, list[str]] = {}
        for name, cls in zip(self.slot_names, self.partition):
            groups.setdefault(cls, []).append(name)
        parts = []
        for cls, names in sorted(groups.items()):
            flag = "null" if self.nulls[cls] else (self.anchors[cls] or "?")
            parts.append("=".join(names) + f":{flag}")
        return "TS⟨" + ", ".join(parts) + "⟩"


def ts_slots(
    set_variables: Sequence[Variable], input_variables: Sequence[Variable]
) -> tuple[Variable, ...]:
    """The slot variables: s̄^T first, then the ID-sorted inputs."""
    inputs = tuple(v for v in input_variables if v.kind is VarKind.ID)
    return tuple(set_variables) + inputs


def ts_type_of(
    store: ConstraintStore, slots: Sequence[Variable]
) -> Iterator[tuple[TSType, ConstraintStore]]:
    """Totalize the store over the slots: yield every (TS-type, refined
    store) pair consistent with the current constraints.

    Case-splits every unknown pairwise equality, null status, and anchor
    among the slot classes — the snapshot step of an insertion (the
    paper's Definition 16 requires counters over *total* TS-types).
    """
    names = tuple(v.name for v in slots)

    def totalize(current: ConstraintStore) -> Iterator[ConstraintStore]:
        nodes = [current.node_of(v) for v in slots]
        # undecided pair?
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                verdict = current.equal(nodes[i], nodes[j])
                if verdict is None:
                    eq_branch = current.copy()
                    try:
                        eq_branch.assert_eq(
                            eq_branch.node_of(slots[i]), eq_branch.node_of(slots[j])
                        )
                        if eq_branch.is_consistent():
                            yield from totalize(eq_branch)
                    except Inconsistent:
                        pass
                    neq_branch = current.copy()
                    try:
                        neq_branch.assert_neq(
                            neq_branch.node_of(slots[i]), neq_branch.node_of(slots[j])
                        )
                        if neq_branch.is_consistent():
                            yield from totalize(neq_branch)
                    except Inconsistent:
                        pass
                    return
        # undecided null status?
        for i, node in enumerate(nodes):
            if current.null_status(node) is None:
                null_branch = current.copy()
                try:
                    null_branch.assert_null(null_branch.node_of(slots[i]))
                    if null_branch.is_consistent():
                        yield from totalize(null_branch)
                except Inconsistent:
                    pass
                notnull_branch = current.copy()
                try:
                    notnull_branch.assert_not_null(notnull_branch.node_of(slots[i]))
                    if notnull_branch.is_consistent():
                        yield from totalize(notnull_branch)
                except Inconsistent:
                    pass
                return
        # undecided anchor?
        for i, node in enumerate(nodes):
            if current.null_status(node) is False and current.anchor_of(node) is None:
                for relation in current.allowed_anchors(node):
                    branch = current.copy()
                    try:
                        branch.assert_anchor(branch.node_of(slots[i]), relation)
                        if branch.is_consistent():
                            yield from totalize(branch)
                    except Inconsistent:
                        pass
                return
        yield current

    for refined in totalize(store):
        yield _read_ts_type(refined, slots, names), refined


def _read_ts_type(
    store: ConstraintStore, slots: Sequence[Variable], names: tuple[str, ...]
) -> TSType:
    nodes = [store.node_of(v) for v in slots]
    roots: list[Node] = []
    partition: list[int] = []
    for node in nodes:
        root = store.find(node)
        if root in roots:
            partition.append(roots.index(root))
        else:
            partition.append(len(roots))
            roots.append(root)
    nulls = tuple(store.null_status(root) is True for root in roots)
    anchors = tuple(
        None if store.null_status(root) is True else store.anchor_of(root)
        for root in roots
    )
    return TSType(names, tuple(partition), nulls, anchors)


def impose_ts_type(
    store: ConstraintStore,
    ts_type: TSType,
    slots: Sequence[Variable],
    fresh_slots: Sequence[Variable],
) -> ConstraintStore | None:
    """Refine ``store`` so the slots realize ``ts_type``; None if impossible.

    ``fresh_slots`` (the retrieved s̄^T) are rebound to fresh nodes first —
    a retrieval overwrites them with the stored tuple's values.
    """
    refined = store.copy()
    for variable in fresh_slots:
        refined.rebind_fresh(variable)
    try:
        nodes = [refined.node_of(v) for v in slots]
        for i in range(len(slots)):
            for j in range(i + 1, len(slots)):
                if ts_type.partition[i] == ts_type.partition[j]:
                    refined.assert_eq(nodes[i], nodes[j])
                else:
                    refined.assert_neq(nodes[i], nodes[j])
        for i, node in enumerate(nodes):
            cls = ts_type.partition[i]
            if ts_type.nulls[cls]:
                refined.assert_null(refined.find(node))
            else:
                refined.assert_not_null(refined.find(node))
                anchor = ts_type.anchors[cls]
                if anchor is not None:
                    refined.assert_anchor(refined.find(node), anchor)
    except Inconsistent:
        return None
    return refined if refined.is_consistent() else None


# ----------------------------------------------------------------------
# counter updates: the vector ā(δ, τ̂, τ̂′, c̄_ib) of Section 4.1
# ----------------------------------------------------------------------
CounterVector = dict[TSType, int]


def insertion_vector(
    inserted: TSType | None,
    retrieved: TSType | None,
    input_bound_full: dict[TSType, bool],
    set_slot_count: int,
) -> CounterVector:
    """The net counter update for an internal service's set update δ.

    * plain insertion of a non-input-bound type: +1;
    * insertion of an input-bound type: +1 only if its capped counter is 0
      (``1 - c̄_ib(τ̂)`` in the paper);
    * retrieval: −1 on the retrieved type.
    """
    update: CounterVector = {}
    if inserted is not None:
        if inserted.is_input_bound(set_slot_count):
            already = input_bound_full.get(inserted, False)
            if not already:
                update[inserted] = update.get(inserted, 0) + 1
        else:
            update[inserted] = update.get(inserted, 0) + 1
    if retrieved is not None:
        update[retrieved] = update.get(retrieved, 0) - 1
    return update
