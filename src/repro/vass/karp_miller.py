"""Karp–Miller coverability over implicit VASS.

The engine works against any object providing

* ``successors(state) -> Iterator[(delta: Mapping[dim, int], next_state,
  tag)]`` — lazily generated actions (``tag`` is caller metadata carried
  into witnesses);

dimensions are arbitrary hashable keys (the verifier uses TS-isomorphism
types) and vectors are sparse mappings; absent dimensions are 0.

Classic Karp–Miller acceleration introduces ω on path-ancestor domination,
guaranteeing termination when the control-state space is finite.  The
resulting *KM graph* (nodes merged on equal labels) answers:

* **state reachability / coverability** — a node satisfying the target
  predicate exists (Lemma 21's returning and blocking paths);
* **repeated state reachability** — an accepting node lies on a cycle of
  the KM graph: non-ω coordinates are exact in KM labels, so any KM cycle
  has zero net effect on them, and ω coordinates are pumpable
  (Habermehl [33], Blockelet–Schmitz [14]) — Lemma 21's lasso paths.

Engineering notes (docs/performance.md): exact duplicate successor edges
are dropped on insertion, and the worklist is a stack (depth-first).
The graph over *labels* does not depend on the expansion order; the
spanning tree, and with it the witness paths, does — every recorded
witness was produced under this order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Protocol

from repro.errors import BudgetExceeded
from repro.fuzz.coverage import COVERAGE
from repro.obs import trace
from repro.obs.attribution import ATTRIBUTION

OMEGA = math.inf

#: Emit a ``km_progress`` trace event every this many expansions (when a
#: trace is active).  Count-based, not time-based, so the trace content
#: stays deterministic for a deterministic exploration.
PROGRESS_EVERY = 1_000
Dim = Hashable
SparseVector = dict[Dim, float]  # values: non-negative ints or OMEGA
FrozenVector = frozenset


class ImplicitVASS(Protocol):
    def successors(
        self, state: Hashable, vector: Mapping[Dim, float]
    ) -> Iterator[tuple[Mapping[Dim, int], Hashable, object]]:
        ...


def freeze(vector: Mapping[Dim, float]) -> FrozenVector:
    return frozenset((k, v) for k, v in vector.items() if v != 0)


def thaw(vector: FrozenVector) -> SparseVector:
    return dict(vector)


def dominates(big: Mapping[Dim, float], small: Mapping[Dim, float]) -> bool:
    """big ≥ small componentwise (missing = 0; ω ≥ everything)."""
    for dim, value in small.items():
        if big.get(dim, 0) < value:
            return False
    return True


@dataclass
class KMNode:
    state: Hashable
    vector: FrozenVector
    payload: object = None
    parent: "KMNode | None" = None
    parent_tag: object = None
    index: int = 0
    depth: int = 0
    successors: list[tuple[object, "KMNode"]] = field(default_factory=list)

    @property
    def label(self) -> tuple:
        return (self.state, self.vector)


@dataclass
class KMGraph:
    roots: list[KMNode]
    nodes: list[KMNode]
    by_label: dict[tuple, KMNode]
    budget_exhausted: bool = False


def build_km_graph(
    system: ImplicitVASS,
    start: Hashable | Iterable[tuple[Hashable, Mapping[Dim, int], object]],
    budget: int = 50_000,
    stop_on: Callable[[KMNode], bool] | None = None,
    progress_label: str = "",
) -> KMGraph:
    """Construct the Karp–Miller graph from the start configuration(s).

    ``start`` is either a single control state (counters 0) or an iterable
    of (state, vector, payload) triples.  ``stop_on`` short-circuits the
    construction once a node satisfies it (used for plain reachability).
    ``progress_label`` names this exploration in the periodic
    ``km_progress`` trace events (one every :data:`PROGRESS_EVERY`
    expansions while a trace is active — the ``--progress`` heartbeat's
    raw feed); it never affects the constructed graph.

    Duplicate successor edges — the same tag leading to the same label
    from the same node, which condition case-splitting produces freely —
    are deduplicated on insertion: they carry no extra reachability,
    cycle, or witness information, and dropping them keeps the stored
    graph (and every traversal over it) proportional to the *distinct*
    transition structure.
    """
    if isinstance(start, (list, tuple)) or hasattr(start, "__next__"):
        starts = list(start)  # type: ignore[arg-type]
    else:
        starts = [(start, {}, None)]
    graph = KMGraph(roots=[], nodes=[], by_label={})
    worklist: list[KMNode] = []
    for state, vector, payload in starts:
        node = KMNode(state=state, vector=freeze(vector), payload=payload)
        node.index = len(graph.nodes)
        graph.roots.append(node)
        graph.nodes.append(node)
        label = node.label
        if label not in graph.by_label:
            graph.by_label[label] = node
            worklist.append(node)
        if stop_on is not None and stop_on(node):
            return graph
    expansions = 0
    while worklist:
        node = worklist.pop()
        if expansions >= budget:
            graph.budget_exhausted = True
            COVERAGE.hit("km:budget_box")
            break
        expansions += 1
        ATTRIBUTION.record_expansion(node.parent_tag, node.depth)
        if expansions % PROGRESS_EVERY == 0 and trace.enabled():
            trace.event(
                "km_progress",
                label=progress_label,
                expansions=expansions,
                nodes=len(graph.nodes),
                frontier=len(worklist),
            )
        current = thaw(node.vector)
        seen_edges: set[tuple] = set()
        for delta, next_state, tag in system.successors(node.state, current):
            next_vector = dict(current)
            enabled = True
            for dim, change in delta.items():
                value = next_vector.get(dim, 0)
                if value is OMEGA:
                    continue
                value += change
                if value < 0:
                    enabled = False
                    break
                next_vector[dim] = value
            if not enabled:
                COVERAGE.hit("km:succ_disabled")
                continue
            ATTRIBUTION.record_successor(tag)
            # acceleration against path ancestors
            ancestor = node
            while ancestor is not None:
                if ancestor.state == next_state:
                    avector = thaw(ancestor.vector)
                    if dominates(next_vector, avector) and freeze(next_vector) != ancestor.vector:
                        COVERAGE.hit("km:omega_accel")
                        for dim, value in next_vector.items():
                            if value is not OMEGA and value > avector.get(dim, 0):
                                next_vector[dim] = OMEGA
                        for dim in avector:
                            if next_vector.get(dim, 0) is not OMEGA:
                                if next_vector.get(dim, 0) > avector.get(dim, 0):
                                    next_vector[dim] = OMEGA
                ancestor = ancestor.parent
            label = (next_state, freeze(next_vector))
            existing = graph.by_label.get(label)
            if existing is not None:
                COVERAGE.hit("km:cover_prune")
                edge_key = (tag, existing.index)
                try:
                    duplicate = edge_key in seen_edges
                    if not duplicate:
                        seen_edges.add(edge_key)
                except TypeError:  # unhashable caller tag: keep every edge
                    duplicate = False
                if not duplicate:
                    node.successors.append((tag, existing))
                else:
                    COVERAGE.hit("km:dup_edge")
                continue
            child = KMNode(
                state=next_state,
                vector=label[1],
                payload=None,
                parent=node,
                parent_tag=tag,
                depth=node.depth + 1,
            )
            child.index = len(graph.nodes)
            graph.nodes.append(child)
            graph.by_label[label] = child
            try:
                seen_edges.add((tag, child.index))
            except TypeError:
                pass
            node.successors.append((tag, child))
            worklist.append(child)
            if stop_on is not None and stop_on(child):
                return graph
    return graph


def reachable(
    system: ImplicitVASS,
    start,
    target: Callable[[KMNode], bool],
    budget: int = 50_000,
) -> KMNode | None:
    """First KM node satisfying ``target`` (coverability witness), or None.

    Raises :class:`BudgetExceeded` when the budget ran out before the
    construction finished *and* no target was found (the answer would be
    unsound otherwise)."""
    graph = build_km_graph(system, start, budget=budget, stop_on=target)
    for node in graph.nodes:
        if target(node):
            return node
    if graph.budget_exhausted:
        raise BudgetExceeded("Karp–Miller budget exhausted", len(graph.nodes))
    return None


def repeated_reachable(
    system: ImplicitVASS,
    start,
    accepting: Callable[[KMNode], bool],
    budget: int = 50_000,
) -> tuple[KMNode, list[KMNode]] | None:
    """An accepting node on a cycle of the KM graph, with the cycle.

    Returns (node, cycle_nodes) or None; raises BudgetExceeded when the
    graph construction was truncated without an answer.
    """
    from repro.vass.repeated import accepting_cycle

    graph = build_km_graph(system, start, budget=budget)
    found = accepting_cycle(graph, accepting)
    if found is not None:
        return found
    if graph.budget_exhausted:
        raise BudgetExceeded("Karp–Miller budget exhausted", len(graph.nodes))
    return None


def witness_path(node: KMNode) -> list[tuple[object, KMNode]]:
    """The (tag, node) steps from a root to ``node``."""
    steps: list[tuple[object, KMNode]] = []
    current = node
    while current.parent is not None:
        steps.append((current.parent_tag, current))
        current = current.parent
    steps.reverse()
    return steps


def rooted_witness_path(node: KMNode) -> tuple[KMNode, list[tuple[object, KMNode]]]:
    """The start configuration plus the (tag, node) steps reaching ``node``.

    Same steps as :func:`witness_path`, with the root KM node (whose state
    holds the initial symbolic store) returned explicitly — witness
    concretization needs it for the run's first instant."""
    steps = witness_path(node)
    root = steps[0][1].parent if steps else node
    assert root is not None and root.parent is None
    return root, steps
