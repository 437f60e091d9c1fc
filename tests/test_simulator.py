"""The concrete simulator, and cross-validation against the verifier:
simulated trees always validate, and property verdicts agree with the
symbolic verifier on the lite travel example."""

import pytest

from repro.examples.travel import (
    discount_policy_property_lite,
    travel_database,
    travel_lite,
)
from repro.hltl.eval_tree import evaluate_on_tree
from repro.runtime.simulator import SimulationConfig, Simulator
from repro.runtime.tree import validate_run_tree
from repro.verifier import VerifierConfig, verify


@pytest.fixture(scope="module")
def db():
    return travel_database()


@pytest.mark.slow
class TestSimulatorSoundness:
    def test_simulated_trees_validate(self, db):
        has = travel_lite(fixed=False)
        sim = Simulator(has, db, SimulationConfig(max_steps=25, seed=7))
        for tree in sim.sample_trees(8):
            validate_run_tree(tree, db)

    def test_fixed_variant_trees_validate(self, db):
        has = travel_lite(fixed=True)
        sim = Simulator(has, db, SimulationConfig(max_steps=25, seed=3))
        for tree in sim.sample_trees(8):
            validate_run_tree(tree, db)

    def test_runs_make_progress(self, db):
        has = travel_lite(fixed=False)
        sim = Simulator(has, db, SimulationConfig(max_steps=30, seed=1))
        lengths = [len(tree.root.run.steps) for tree in sim.sample_trees(5)]
        assert max(lengths) > 1


@pytest.mark.slow
class TestCrossValidation:
    def test_buggy_violation_realized_concretely(self, db):
        """The verifier says the lite policy is violated; random simulation
        finds a concrete violating tree, confirming the counterexample is
        not spurious."""
        has = travel_lite(fixed=False)
        prop = discount_policy_property_lite(has)
        result = verify(has, prop, VerifierConfig(km_budget=100000))
        assert not result.holds

        sim = Simulator(has, db, SimulationConfig(max_steps=30, seed=0))
        found_violation = False
        for tree in sim.sample_trees(30):
            validate_run_tree(tree, db)
            if not evaluate_on_tree(prop, tree, db):
                found_violation = True
                break
        assert found_violation

    def test_fixed_variant_never_violates_concretely(self, db):
        """The verifier proves the fixed policy; no simulated tree may
        violate it."""
        has = travel_lite(fixed=True)
        prop = discount_policy_property_lite(has)
        result = verify(has, prop, VerifierConfig(km_budget=100000))
        assert result.holds

        sim = Simulator(has, db, SimulationConfig(max_steps=25, seed=0))
        for tree in sim.sample_trees(15):
            validate_run_tree(tree, db)
            assert evaluate_on_tree(prop, tree, db)


class TestShadowedVariables:
    def test_tree_through_shadowing_post_condition_linearizes(self, db):
        """Cancel.CancelFlight's post-condition binds ∃lc_cid, shadowing
        Cancel's own lc_cid.  Pre-fix the simulated state dropped the task
        variable, and linearizing the tree raised KeyError."""
        from repro.runtime import labels
        from repro.runtime.global_run import linearize

        has = travel_lite(fixed=False)
        cancel_flight = labels.internal("Cancel", "CancelFlight")
        sim = Simulator(has, db, SimulationConfig(max_steps=25, seed=11))
        tree = next(
            tree
            for tree in sim.sample_trees(10)
            if any(
                step.service == cancel_flight
                for node in tree.walk()
                for step in node.run.steps
            )
        )
        for node in tree.walk():
            for step in node.run.steps:
                assert set(node.run.task.variables) <= set(step.state.valuation)
        assert len(list(linearize(has, tree, limit=1))) == 1
