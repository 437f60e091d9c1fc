"""Tarjan's SCCs (`repro.graphs`), and the package running on the
standard library alone."""

import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.graphs import strongly_connected_components


@st.composite
def digraphs(draw) -> tuple[list[str], dict[str, list[str]]]:
    """Up to 8 string-named nodes and 20 edges, self-loops and parallel
    edges included."""
    nodes = [f"n{i}" for i in range(draw(st.integers(1, 8)))]
    node = st.sampled_from(nodes)
    successors: dict[str, list[str]] = {name: [] for name in nodes}
    for source, target in draw(st.lists(st.tuples(node, node), max_size=20)):
        successors[source].append(target)
    return nodes, successors


def _reachable(successors: dict[str, list[str]], start: str) -> set[str]:
    seen = {start}
    stack = [start]
    while stack:
        for target in successors[stack.pop()]:
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return seen


class TestStronglyConnectedComponents:
    @settings(max_examples=300, deadline=None)
    @given(digraphs())
    def test_components_partition_the_nodes(self, graph):
        nodes, successors = graph
        components = strongly_connected_components(nodes, successors.__getitem__)
        members = [member for component in components for member in component]
        assert all(components)
        assert sorted(members) == sorted(nodes)

    @settings(max_examples=300, deadline=None)
    @given(digraphs())
    def test_shared_component_iff_mutually_reachable(self, graph):
        nodes, successors = graph
        components = strongly_connected_components(nodes, successors.__getitem__)
        component_of = {
            member: position
            for position, component in enumerate(components)
            for member in component
        }
        reach = {node: _reachable(successors, node) for node in nodes}
        for a in nodes:
            for b in nodes:
                mutual = b in reach[a] and a in reach[b]
                assert (component_of[a] == component_of[b]) == mutual

    @settings(max_examples=300, deadline=None)
    @given(digraphs())
    def test_cross_edges_point_to_earlier_components(self, graph):
        nodes, successors = graph
        components = strongly_connected_components(nodes, successors.__getitem__)
        component_of = {
            member: position
            for position, component in enumerate(components)
            for member in component
        }
        for source in nodes:
            for target in successors[source]:
                assert component_of[target] <= component_of[source]

    def test_deep_graph_needs_no_recursion(self):
        size = 5 * sys.getrecursionlimit()
        chain = strongly_connected_components(
            range(size), lambda i: [i + 1] if i + 1 < size else []
        )
        assert chain == [[i] for i in reversed(range(size))]
        ring = strongly_connected_components(range(size), lambda i: [(i + 1) % size])
        assert len(ring) == 1 and sorted(ring[0]) == list(range(size))


_STANDARD_LIBRARY_ONLY = """
import repro.service.cli
from repro.database.fkgraph import ForeignKeyGraph, SchemaClass
from repro.examples.travel import discount_policy_property_lite, travel_lite
from repro.ltl.automaton import build_automaton
from repro.ltl.formulas import Always, Eventually, Prop
from repro.verifier import Verifier, VerifierConfig
from repro.workloads.schemas import cyclic_schema

assert ForeignKeyGraph(cyclic_schema(4)).classify() is SchemaClass.CYCLIC
automaton = build_automaton(Always(Eventually(Prop("p"))))
assert automaton.accepts_lasso([], [{"p": True}, {}])
has = travel_lite(False)
result = Verifier(has, VerifierConfig(km_budget=60_000)).verify(
    discount_policy_property_lite(has)
)
assert not result.holds
print("ok")
"""


def test_runs_on_the_standard_library_alone():
    """The package has no runtime dependency.  ``python -S`` leaves
    site-packages off ``sys.path``, and still the CLI imports, and schema
    classification, LTL lasso acceptance and the travel-lite verification
    (whose KM searches run the lasso query) all work."""
    root = Path(__file__).parent.parent
    completed = subprocess.run(
        [sys.executable, "-S", "-c", _STANDARD_LIBRARY_ONLY],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        cwd=str(root),
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"
