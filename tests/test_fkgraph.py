"""Schema classification and path counting (Definition 1, Appendix C.3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.database.fkgraph import ForeignKeyGraph, SchemaClass, navigation_depth
from repro.database.schema import DatabaseSchema, Relation, foreign_key, numeric
from repro.workloads.schemas import (
    acyclic_chain_schema,
    cyclic_schema,
    linear_cycle_schema,
    star_schema,
)


class TestClassification:
    def test_acyclic(self, chain_schema):
        assert ForeignKeyGraph(chain_schema).classify() is SchemaClass.ACYCLIC

    def test_simple_cycle_is_linear(self, cycle_schema):
        assert ForeignKeyGraph(cycle_schema).classify() is SchemaClass.LINEARLY_CYCLIC

    def test_self_loop_is_linear(self):
        schema = DatabaseSchema(
            (Relation("EMP", (foreign_key("manager", "EMP"),)),)
        )
        assert ForeignKeyGraph(schema).classify() is SchemaClass.LINEARLY_CYCLIC

    def test_two_cycles_through_one_relation_is_cyclic(self):
        schema = DatabaseSchema(
            (
                Relation("X", (foreign_key("a", "Y"), foreign_key("b", "Z"))),
                Relation("Y", (foreign_key("back", "X"),)),
                Relation("Z", (foreign_key("back", "X"),)),
            )
        )
        assert ForeignKeyGraph(schema).classify() is SchemaClass.CYCLIC

    def test_generators_match_their_class(self):
        assert (
            ForeignKeyGraph(acyclic_chain_schema(4)).classify()
            is SchemaClass.ACYCLIC
        )
        assert (
            ForeignKeyGraph(linear_cycle_schema(4)).classify()
            is SchemaClass.LINEARLY_CYCLIC
        )
        assert ForeignKeyGraph(cyclic_schema(4)).classify() is SchemaClass.CYCLIC
        assert ForeignKeyGraph(star_schema(3)).classify() is SchemaClass.ACYCLIC


class TestPathCounting:
    def test_path_count_empty_path(self, chain_schema):
        graph = ForeignKeyGraph(chain_schema)
        assert graph.path_count("C", 5) == 1  # only the empty path

    def test_path_count_chain(self, chain_schema):
        graph = ForeignKeyGraph(chain_schema)
        assert graph.path_count("A", 1) == 2  # ε, to_b
        assert graph.path_count("A", 2) == 3  # ε, to_b, to_b.to_c
        assert graph.path_count("A", 9) == 3  # saturates on acyclic schemas

    def test_F_grows_linearly_on_linear_cycles(self):
        graph = ForeignKeyGraph(linear_cycle_schema(3))
        counts = [graph.max_path_count(n) for n in (1, 2, 4, 8)]
        assert counts == [2, 3, 5, 9]  # 1 + n: linear growth

    def test_F_grows_exponentially_on_cyclic(self):
        graph = ForeignKeyGraph(cyclic_schema(3, fanout=2))
        counts = [graph.max_path_count(n) for n in (1, 2, 3, 4)]
        # 2 outgoing edges everywhere: 2^(n+1) - 1 paths
        assert counts == [3, 7, 15, 31]

    def test_longest_simple_path_acyclic(self, chain_schema):
        assert ForeignKeyGraph(chain_schema).longest_simple_path_length() == 2

    def test_longest_simple_path_rejects_cycles(self, cycle_schema):
        with pytest.raises(ValueError):
            ForeignKeyGraph(cycle_schema).longest_simple_path_length()


class TestNavigationDepth:
    def test_leaf_task_h(self, chain_schema):
        graph = ForeignKeyGraph(chain_schema)
        # h(T) = 1 + k·F(1); F(1) = 2 on the chain
        assert navigation_depth(graph, 3) == 1 + 3 * 2

    def test_h_grows_with_children(self, chain_schema):
        graph = ForeignKeyGraph(chain_schema)
        leaf_h = navigation_depth(graph, 2)
        parent_h = navigation_depth(graph, 2, (leaf_h,))
        assert parent_h > leaf_h


# ----------------------------------------------------------------------
# brute-force references: Definition 1 read literally
# ----------------------------------------------------------------------
@st.composite
def fk_multigraphs(draw) -> tuple[int, list[tuple[int, int]]]:
    """Up to 5 relations and 8 FK edges; self-loops and parallel edges
    included."""
    size = draw(st.integers(1, 5))
    node = st.integers(0, size - 1)
    return size, draw(st.lists(st.tuples(node, node), max_size=8))


def _schema(size: int, edges: list[tuple[int, int]]) -> DatabaseSchema:
    fks: list[list] = [[] for _ in range(size)]
    for label, (source, target) in enumerate(edges):
        fks[source].append(foreign_key(f"f{label}", f"R{target}"))
    return DatabaseSchema(
        tuple(Relation(f"R{i}", tuple(fks[i])) for i in range(size))
    )


def _simple_cycles(size: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    """Every simple cycle as its list of nodes.  A cycle is a sequence of
    distinct FK edges, so parallel edges make distinct cycles; each one
    is enumerated once, from its smallest node."""
    cycles: list[list[int]] = []

    def extend(start: int, path: list[int]) -> None:
        for source, target in edges:
            if source != path[-1]:
                continue
            if target == start:
                cycles.append(list(path))
            elif target > start and target not in path:
                extend(start, path + [target])

    for start in range(size):
        extend(start, [start])
    return cycles


def _reference_class(size: int, edges: list[tuple[int, int]]) -> SchemaClass:
    cycles = _simple_cycles(size, edges)
    if not cycles:
        return SchemaClass.ACYCLIC
    through = [sum(node in cycle for cycle in cycles) for node in range(size)]
    if max(through) <= 1:
        return SchemaClass.LINEARLY_CYCLIC
    return SchemaClass.CYCLIC


def _reference_longest_path(size: int, edges: list[tuple[int, int]]) -> int:
    def longest_from(path: list[int]) -> int:
        return max(
            (
                1 + longest_from(path + [target])
                for source, target in edges
                if source == path[-1] and target not in path
            ),
            default=0,
        )

    return max(longest_from([node]) for node in range(size))


class TestAgainstBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(fk_multigraphs())
    def test_classify_matches_definition_1(self, graph):
        size, edges = graph
        assert ForeignKeyGraph(_schema(size, edges)).classify() is _reference_class(
            size, edges
        )

    @settings(max_examples=300, deadline=None)
    @given(fk_multigraphs())
    def test_longest_simple_path_matches_dfs(self, graph):
        size, edges = graph
        fk_graph = ForeignKeyGraph(_schema(size, edges))
        if _simple_cycles(size, edges):
            with pytest.raises(ValueError):
                fk_graph.longest_simple_path_length()
        else:
            assert fk_graph.longest_simple_path_length() == _reference_longest_path(
                size, edges
            )
