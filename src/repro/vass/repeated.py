"""Accepting-cycle detection on Karp–Miller graphs (repeated reachability).

Factored out of :func:`repro.vass.karp_miller.repeated_reachable` so the
verifier can reuse a graph it already built for several queries.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.graphs import strongly_connected_components
from repro.vass.karp_miller import KMGraph, KMNode


def accepting_cycle(
    graph: KMGraph, accepting: Callable[[KMNode], bool]
) -> tuple[KMNode, list[KMNode]] | None:
    """A node satisfying ``accepting`` lying on a cycle, if any.

    Non-ω coordinates are exact in KM labels, so every KM cycle is
    realizable arbitrarily often (ω coordinates are pumpable); an
    accepting node on a cycle therefore witnesses repeated reachability.

    The SCCs run over node indices (``KMNode`` is not hashable), with
    roots in ``graph.nodes`` order and successors in ``node.successors``
    order, so the lasso found — and the witness built from it — is a
    deterministic function of the graph.
    """
    nodes = graph.nodes
    for component in strongly_connected_components(
        range(len(nodes)),
        lambda index: [child.index for _tag, child in nodes[index].successors],
    ):
        first = nodes[component[0]]
        has_cycle = len(component) > 1 or any(
            child is first for _tag, child in first.successors
        )
        if not has_cycle:
            continue
        members = [nodes[index] for index in component]
        for node in members:
            if accepting(node):
                return node, members
    return None


def cycle_path(
    node: KMNode, component: list[KMNode]
) -> list[tuple[object, KMNode]]:
    """An ordered cycle through ``node`` inside its SCC.

    Returns the edge list ``[(tag, target), …]`` of a shortest cycle that
    leaves ``node`` and returns to it (for a self-loop: a single edge).
    :func:`accepting_cycle` reports the SCC as an unordered member list;
    witnesses need the actual edge sequence, which this BFS reconstructs.
    Raises ``ValueError`` when ``node`` lies on no cycle of the component
    (the caller picked a node outside an SCC with a cycle).
    """
    members = {n.index for n in component}
    # BFS over component edges from node's successors back to node
    back: dict[int, tuple[KMNode, object, KMNode]] = {}
    frontier: deque[KMNode] = deque()
    for tag, child in node.successors:
        if child.index not in members:
            continue
        if child is node:
            return [(tag, child)]
        if child.index not in back:
            back[child.index] = (node, tag, child)
            frontier.append(child)
    while frontier:
        current = frontier.popleft()
        for tag, child in current.successors:
            if child.index not in members:
                continue
            if child is node:
                steps: list[tuple[object, KMNode]] = [(tag, child)]
                walk = current
                while walk is not node:
                    source, source_tag, target = back[walk.index]
                    steps.append((source_tag, target))
                    walk = source
                steps.reverse()
                return steps
            if child.index not in back:
                back[child.index] = (current, tag, child)
                frontier.append(child)
    raise ValueError("node lies on no cycle of the given component")
