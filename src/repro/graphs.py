"""Strongly connected components (Tarjan 1972), iterative.

Both graph questions the paper asks are SCC questions: Definition 1's
schema class (:mod:`repro.database.fkgraph`) and Lemma 21's lasso paths
(an accepting Karp–Miller node on a cycle, :mod:`repro.vass.repeated`;
the same test on the LTL automaton, :mod:`repro.ltl.automaton`).  This
module depends on nothing else in the package.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, TypeVar

Node = TypeVar("Node", bound=Hashable)


def strongly_connected_components(
    nodes: Iterable[Node], successors: Callable[[Node], Iterable[Node]]
) -> list[list[Node]]:
    """The SCCs of the graph, in reverse topological order.

    Roots are visited in ``nodes`` order and successors in the order
    ``successors`` yields them, so the result is a deterministic function
    of both orders.  Every edge between two components points to one
    emitted earlier (sinks come first).  Each component lists its members
    in the order Tarjan's stack pops them.  Iterative, so deep graphs do
    not hit the recursion limit.
    """
    index: dict[Node, int] = {}
    lowlink: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    components: list[list[Node]] = []

    def visit(node: Node) -> tuple[Node, Iterator[Node]]:
        index[node] = lowlink[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        return node, iter(successors(node))

    for root in nodes:
        if root in index:
            continue
        work = [visit(root)]
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    work.append(visit(child))
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            else:
                work.pop()
                if lowlink[node] == index[node]:
                    component: list[Node] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components
