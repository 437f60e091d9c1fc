"""The foreign-key graph FK and the schema classification of Definition 1.

The schema class (acyclic / linearly-cyclic / cyclic) is the parameter that
determines which column of Tables 1 and 2 applies.  This module also
implements ``F(n)`` — the maximum number of distinct FK paths of length at
most ``n`` from any relation — used to compute the navigation depth ``h(T)``
(Section 4.1) and analysed per class in Appendix C.3 (Figure 4).
"""

from __future__ import annotations

import enum

from repro.database.schema import DatabaseSchema
from repro.graphs import strongly_connected_components


class SchemaClass(enum.Enum):
    """The three schema classes of the paper, in increasing generality."""

    ACYCLIC = "acyclic"
    LINEARLY_CYCLIC = "linearly-cyclic"
    CYCLIC = "cyclic"


class ForeignKeyGraph:
    """Labeled multigraph whose nodes are relations and edges are foreign keys.

    There is an edge ``Ri -> Rj`` labeled ``F`` whenever relation ``Ri`` has
    a foreign-key attribute ``F`` referencing ``Rj``.  ``edges`` maps each
    relation, in schema order, to its ``(label, target)`` pairs in
    declaration order; parallel edges and self-loops are kept.
    """

    def __init__(self, schema: DatabaseSchema):
        self.schema = schema
        self.edges: dict[str, list[tuple[str, str]]] = {
            rel.name: [(fk.name, fk.references) for fk in rel.foreign_keys]
            for rel in schema
        }

    def _components(self) -> list[list[str]]:
        """SCCs of the FK graph, sinks first."""
        return strongly_connected_components(
            self.edges,
            lambda name: [target for _label, target in self.edges[name]],
        )

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def classify(self) -> SchemaClass:
        """Classify the schema per Definition 1.

        *acyclic*: no cycles at all; *linearly-cyclic*: every relation lies
        on at most one simple cycle; *cyclic*: anything else.  Parallel FK
        edges count as distinct cycles, since they induce distinct FK
        navigation loops.

        Every cycle lies inside one strongly connected component.  A
        component with ``n`` relations and ``n`` internal edges (self-loops
        and parallel edges counted) is one simple cycle.  With more edges
        than relations, its ear decomposition has a second ear, which
        closes a second simple cycle through a relation of the first.  So
        one linear pass over the components decides the class.
        """
        cyclic = False
        for component in self._components():
            members = set(component)
            internal = sum(
                target in members
                for name in component
                for _label, target in self.edges[name]
            )
            if internal > len(component):
                return SchemaClass.CYCLIC
            cyclic = cyclic or internal > 0
        return SchemaClass.LINEARLY_CYCLIC if cyclic else SchemaClass.ACYCLIC

    # ------------------------------------------------------------------
    # path counting: F(n) and h(T)
    # ------------------------------------------------------------------
    def path_count(self, relation: str, length: int) -> int:
        """Number of distinct FK paths of length at most ``length`` from
        ``relation`` (the empty path included).

        Iterative dynamic program over the length — ``h(T)`` computations
        on cyclic schemas pass hyperexponentially large lengths, far beyond
        any recursion limit.
        """
        if length <= 0:
            return 1
        # counts[r] = number of paths of length ≤ current from r
        counts: dict[str, int] = {name: 1 for name in self.edges}
        for _ in range(length):
            nxt = {
                name: 1 + sum(counts[target] for _label, target in edges)
                for name, edges in self.edges.items()
            }
            if nxt == counts:  # saturated (acyclic reach exhausted)
                break
            counts = nxt
        return counts[relation]

    def max_path_count(self, length: int) -> int:
        """``F(n)`` of Section 4.1: max over relations of path_count."""
        return max((self.path_count(r, length) for r in self.edges), default=1)

    def longest_simple_path_length(self) -> int:
        """Length of the longest simple FK path (finite iff acyclic).

        For acyclic schemas this bounds the length of *any* FK navigation,
        which is why navigation sets stay small there (Appendix C.3).
        """
        depth: dict[str, int] = {}
        # acyclic: every component is one relation, and sinks come first
        for component in self._components():
            name = component[0]
            targets = [target for _label, target in self.edges[name]]
            if len(component) > 1 or name in targets:
                raise ValueError("longest path is unbounded on cyclic FK graphs")
            depth[name] = 1 + max((depth[t] for t in targets), default=-1)
        return max(depth.values(), default=0)


def navigation_depth(
    fk_graph: ForeignKeyGraph,
    num_variables: int,
    child_depths: tuple[int, ...] = (),
) -> int:
    """The depth bound ``h(T)`` of Section 4.1.

    ``h(T) = 1 + |x̄^T| · F(δ)`` where ``δ = 1`` for leaf tasks and
    ``δ = max h(T_c)`` over children otherwise.
    """
    delta = max(child_depths) if child_depths else 1
    return 1 + num_variables * fk_graph.max_path_count(delta)
