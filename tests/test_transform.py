"""Specification transforms: Lemma 30/31 and ∃ desugaring."""

import pytest

from repro.database.schema import DatabaseSchema, Relation, numeric
from repro.errors import SpecificationError
from repro.has import HAS, ClosingService, InternalService, OpeningService, Task
from repro.has.restrictions import validate_has
from repro.hltl.formulas import HLTLProperty, HLTLSpec, child, cond
from repro.logic.conditions import And, Eq, Exists, Not, Or, RelationAtom, TRUE
from repro.logic.terms import NULL, id_var, num_var
from repro.ltl.formulas import Always, Eventually
from repro.transform import (
    desugar_exists,
    eliminate_global_variables,
    separate_passed_and_returned,
)
from repro.verifier import VerifierConfig, verify

DB = DatabaseSchema((Relation("ITEMS", (numeric("price"),)),))


def _system_with_child():
    c_x = id_var("c_x")
    p_x = id_var("p_x")
    p_r = id_var("p_r")
    child_task = Task(
        name="C",
        variables=(c_x,),
        services=(InternalService("w", post=Not(Eq(c_x, NULL))),),
        opening=OpeningService(pre=TRUE, input_map={c_x: p_x}),
        closing=ClosingService(pre=Not(Eq(c_x, NULL)), output_map={p_r: c_x}),
    )
    root = Task(
        name="R",
        variables=(p_x, p_r),
        services=(InternalService("reset", post=Eq(p_r, NULL)),),
        children=(child_task,),
    )
    return HAS(DB, root)


class TestGlobalVariables:
    def test_eliminates_globals(self):
        has = _system_with_child()
        g = id_var("g")
        prop = HLTLProperty(
            HLTLSpec(
                "R",
                Always(cond(Not(Eq(id_var("p_r"), g))))
                | Eventually(child("C", cond(Eq(id_var("c_x"), g)))),
            ),
            global_variables=(g,),
        )
        new_has, new_prop = eliminate_global_variables(has, prop)
        assert not new_prop.global_variables
        validate_has(new_has)
        # every task gained one variable carrying g
        for task in new_has.tasks():
            assert any(v.name.endswith("__g_g") for v in task.variables)
        # the transformed property verifies without error
        verify(new_has, new_prop, VerifierConfig(km_budget=20000))

    def test_noop_without_globals(self):
        has = _system_with_child()
        prop = HLTLProperty(HLTLSpec("R", Always(cond(TRUE))))
        same_has, same_prop = eliminate_global_variables(has, prop)
        assert same_has is has and same_prop is prop


class TestSeparation:
    def test_separates_overlap(self):
        """When a parent variable is both passed and returned, Lemma 31(i)
        introduces a checked copy."""
        c_x = id_var("c_x")
        shared = id_var("shared")
        child_task = Task(
            name="C",
            variables=(c_x,),
            services=(InternalService("w", post=Not(Eq(c_x, NULL))),),
            opening=OpeningService(pre=TRUE, input_map={c_x: shared}),
            closing=ClosingService(pre=TRUE, output_map={shared: c_x}),
        )
        root = Task(name="R", variables=(shared,), children=(child_task,))
        has = HAS(DB, root)
        separated = separate_passed_and_returned(has)
        validate_has(separated)
        new_child = separated.task("C")
        passed = set(new_child.opening.input_map.values())
        returned = set(new_child.closing.output_map.keys())
        assert not passed & returned

    def test_noop_when_disjoint(self):
        has = _system_with_child()
        separated = separate_passed_and_returned(has)
        child_task = separated.task("C")
        assert set(child_task.opening.input_map.values()) == {id_var("p_x")}


class TestDesugarExists:
    def test_post_condition_hoisted(self):
        x = id_var("x")
        c = id_var("c")
        p = num_var("p")
        svc = InternalService(
            "pick", post=Exists((c, p), RelationAtom("ITEMS", (c, p)))
        )
        root = Task(name="R", variables=(x,), services=(svc,))
        has = HAS(DB, root)
        flat = desugar_exists(has)
        new_root = flat.root
        assert c in new_root.variables
        assert p in new_root.variables
        post = new_root.service("pick").post
        from repro.has.restrictions import _contains_exists

        assert not _contains_exists(post)
        validate_has(flat)

    def test_two_services_binding_one_name_share_the_variable(self):
        x, c, p = id_var("x"), id_var("c"), num_var("p")
        services = tuple(
            InternalService(name, post=Exists((c, p), RelationAtom("ITEMS", (c, p))))
            for name in ("a", "b")
        )
        has = HAS(DB, Task(name="R", variables=(x,), services=services))
        flat = desugar_exists(has)
        assert flat.root.variables == (x, c, p)
        validate_has(flat)

    def test_shadowing_exists_keeps_the_task_variable_free(self):
        """``∃x,p. ITEMS(x,p)`` in a task that owns ``x`` leaves the task's
        ``x`` unconstrained (it may be an OTHER id); hoisting must rename
        the bound ``x`` apart, or the property below flips to holding."""
        db = DatabaseSchema(
            (Relation("ITEMS", (numeric("price"),)), Relation("OTHER", (numeric("w"),)))
        )
        x, p, q = id_var("x"), num_var("p"), num_var("q")
        pick = Exists((x, p), RelationAtom("ITEMS", (x, p)))
        svc = InternalService("pick", post=pick)
        has = HAS(db, Task(name="R", variables=(x,), services=(svc,)))
        flat = desugar_exists(has)
        assert flat.root.variables[0] == x and len(flat.root.variables) == 3
        an_item = Exists((q,), RelationAtom("ITEMS", (x, q)))
        prop = HLTLProperty(HLTLSpec("R", Always(cond(Or(Eq(x, NULL), an_item)))))
        config = VerifierConfig(km_budget=20000)
        assert verify(has, prop, config).holds is False
        assert verify(flat, prop, config).holds is False

    def test_desugared_system_verifies_identically(self):
        x = id_var("x")
        c = id_var("c")
        p = num_var("p")
        svc = InternalService(
            "pick",
            post=Exists((c, p), And(RelationAtom("ITEMS", (c, p)), Eq(x, c))),
        )
        root = Task(name="R", variables=(x,), services=(svc,))
        has = HAS(DB, root)
        flat = desugar_exists(has)
        # property: x is always null or an ITEMS id — should hold in both
        prop1 = HLTLProperty(
            HLTLSpec(
                "R",
                Always(cond(Or(Eq(x, NULL), Exists((num_var("q"),), RelationAtom("ITEMS", (x, num_var("q"))))))),
            )
        )
        r1 = verify(has, prop1, VerifierConfig(km_budget=20000))
        r2 = verify(flat, prop1, VerifierConfig(km_budget=20000))
        assert r1.holds == r2.holds is True
