"""The ``.has`` scenario DSL: parser, printer, loader, corpus export.

The load-bearing invariants:

* **serialized losslessness** — for every supported model object,
  ``to_dict(parse(render(x))) == to_dict(x)``, so DSL-loaded scenarios
  keep the exact job content hash of their Python-built twins;
* **parse fixed point** — ``render(parse(render(x))) == render(x)``;
* **verdict parity** — a DSL-loaded job verifies byte-identically
  (same key, same semantic outcome bytes) to the Python-built job.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.database.fkgraph import SchemaClass
from repro.dsl import (
    DslSyntaxError,
    load_document,
    loads,
    parse_condition,
    parse_formula,
    render_condition,
    render_config,
    render_document,
    render_formula,
    render_instance,
    render_scenario,
)
from repro.errors import SpecificationError
from repro.examples.travel import (
    discount_policy_property,
    discount_policy_property_lite,
    travel_booking,
    travel_database,
    travel_lite,
)
from repro.fuzz.gen import GenConfig, generate_scenario
from repro.logic.conditions import And, ArithAtom, Eq, Exists, Not, Or
from repro.logic.terms import NULL, Const, VarKind, id_var, num_var
from repro.ltl.formulas import AndF, FalseF, OrF, Release, TrueF, Until, propositions
from repro.service.jobs import VerificationJob
from repro.service.pool import execute_job
from repro.service.serialize import canonical_json, to_dict
from repro.verifier.config import VerifierConfig
from repro.workloads import table1_workload, table2_workload

KINDS = {"x": VarKind.ID, "y": VarKind.ID, "p": VarKind.NUMERIC, "q": VarKind.NUMERIC}


def same_dict(a, b) -> bool:
    return canonical_json(to_dict(a)) == canonical_json(to_dict(b))


def roundtrip_scenario(has, prop, config=None, instances=()):
    text = render_scenario(has, [(prop, None)], instances=instances, config=config)
    doc = loads(text)
    assert same_dict(doc.system, has), "system dict drifted through the DSL"
    assert same_dict(doc.properties[0].prop, prop), "property dict drifted"
    if config is not None:
        assert same_dict(doc.config, config)
    assert render_document(doc) == text, "printed form is not a parse fixed point"
    return doc


class TestModelRoundTrips:
    def test_travel_lite_both_variants(self):
        for fixed in (False, True):
            has = travel_lite(fixed)
            roundtrip_scenario(has, discount_policy_property_lite(has))

    def test_travel_full_both_variants(self):
        for fixed in (False, True):
            has = travel_booking(fixed)
            roundtrip_scenario(has, discount_policy_property(has))

    @pytest.mark.parametrize("schema_class", list(SchemaClass))
    def test_table_workloads(self, schema_class):
        for builder in (table1_workload, table2_workload):
            for with_sets in (False, True):
                for violated in (False, True):
                    spec = builder(
                        schema_class, depth=2, with_sets=with_sets, violated=violated
                    )
                    roundtrip_scenario(spec.has, spec.prop)

    def test_table_deep_chain_variant(self):
        spec = table2_workload(SchemaClass.CYCLIC, depth=3, chain=2)
        roundtrip_scenario(spec.has, spec.prop)

    def test_fuzz_generated_scenarios(self):
        config = VerifierConfig(
            km_budget=777, time_limit_seconds=1.5, concretize_witnesses=False
        )
        deep = GenConfig(max_depth=3, arith_weight=1.0, set_weight=0.5)
        for seed in range(3):
            for index in range(8):
                scenario = generate_scenario(
                    seed, index, deep if seed % 2 else GenConfig()
                )
                roundtrip_scenario(
                    scenario.has,
                    scenario.prop,
                    config=config,
                    instances=[
                        (f"db{k}", db) for k, db in enumerate(scenario.databases)
                    ],
                )

    def test_instance_roundtrip_is_text_fixed_point(self):
        db = travel_database()
        text = render_instance("demo", db)
        has = travel_lite(False)
        doc = loads(render_scenario(has, [], instances=[("demo", db)]))
        assert render_instance(*doc.instances[0]) == text


class TestJobHashAndVerdictParity:
    def test_travel_lite_same_job_hash(self):
        has = travel_lite(False)
        prop = discount_policy_property_lite(has)
        config = VerifierConfig(km_budget=60_000, time_limit_seconds=120.0)
        doc = roundtrip_scenario(has, prop, config=config)
        built = VerificationJob(has=has, prop=prop, config=config)
        loaded = doc.jobs()[0]
        assert loaded.key() == built.key()

    def test_travel_lite_verifies_byte_identically(self):
        has = travel_lite(False)
        prop = discount_policy_property_lite(has)
        config = VerifierConfig(km_budget=60_000, time_limit_seconds=120.0)
        doc = roundtrip_scenario(has, prop, config=config)
        built = execute_job(VerificationJob(has=has, prop=prop, config=config))
        loaded = execute_job(doc.jobs()[0])
        # names differ (suite naming), nothing else may
        built.name = loaded.name
        assert loaded.semantic_bytes() == built.semantic_bytes()
        assert loaded.status == "violated"

    def test_table1_cell_verifies_byte_identically(self):
        spec = table1_workload(SchemaClass.ACYCLIC, depth=2, violated=True)
        config = VerifierConfig(km_budget=60_000)
        doc = roundtrip_scenario(spec.has, spec.prop, config=config)
        built = execute_job(
            VerificationJob(has=spec.has, prop=spec.prop, config=config)
        )
        loaded = execute_job(doc.jobs()[0])
        built.name = loaded.name
        assert loaded.key == built.key
        assert loaded.semantic_bytes() == built.semantic_bytes()


class TestConditionLanguage:
    def c(self, text):
        return parse_condition(text, KINDS)

    def test_eq_vs_arith_disambiguation(self):
        assert self.c("p = 0") == Eq(num_var("p"), Const(Fraction(0)))
        assert self.c("p != q") == Not(Eq(num_var("p"), num_var("q")))
        arith = self.c("p + 0 = 0")
        assert isinstance(arith, ArithAtom)
        assert arith.constraint.expr.coefficient(num_var("p")) == 1
        assert self.c("p - q = 0") != self.c("p = q")

    def test_arith_equality_never_prints_as_eq(self):
        from repro.arith.constraints import Rel, compare
        from repro.arith.linexpr import var as linvar

        atom = ArithAtom(compare(linvar(num_var("p")), Rel.EQ, 0))
        text = render_condition(atom)
        assert parse_condition(text, KINDS) == atom
        assert parse_condition(text, KINDS) != Eq(num_var("p"), Const(Fraction(0)))

    def test_rational_coefficients_roundtrip(self):
        cond = self.c("3/2*p - q + 5/3 >= 0")
        assert render_condition(cond) == "3/2*p - q + 5/3 >= 0"
        assert parse_condition(render_condition(cond), KINDS) == cond

    def test_null_and_wildcard(self):
        assert self.c("x = null") == Eq(id_var("x"), NULL)
        rendered = render_condition(self.c("x != null"))
        assert rendered == "x != null"

    def test_boolean_structure_and_flattening(self):
        cond = self.c("x = null and (p >= 0 or q <= 0) and y != null")
        assert isinstance(cond, And) and len(cond.parts) == 3
        assert isinstance(cond.parts[1], Or)
        assert parse_condition(render_condition(cond), KINDS) == cond

    def test_implies_sugar(self):
        assert self.c("x = null -> p >= 0") == Or(
            Not(Eq(id_var("x"), NULL)), self.c("p >= 0")
        )

    def test_degenerate_nary_conditions(self):
        single = And(Eq(id_var("x"), NULL))
        assert render_condition(single) == "all(x = null)"
        assert parse_condition("all(x = null)", KINDS) == single
        assert parse_condition(render_condition(Or()), KINDS) == Or()

    def test_exists_binders_scope_and_print(self):
        cond = self.c("exists c: id, f: num . x = c and f >= 0")
        assert isinstance(cond, Exists)
        assert cond.bound == (id_var("c"), num_var("f"))
        assert parse_condition(render_condition(cond), KINDS) == cond

    def test_unknown_variable_is_a_located_error(self):
        with pytest.raises(DslSyntaxError, match="unknown variable 'zz'"):
            self.c("zz = null")

    def test_ill_sorted_equality_rejected(self):
        with pytest.raises(DslSyntaxError, match="invalid equality"):
            self.c("x = p")

    def test_arith_over_id_variable_rejected(self):
        with pytest.raises(DslSyntaxError, match="non-numeric"):
            self.c("x + p >= 0")

    def test_float_literal_rejected_in_conditions(self):
        with pytest.raises(DslSyntaxError, match="exact rationals"):
            self.c("p >= 1.5")


class TestFormulaLanguage:
    def f(self, text):
        return parse_formula(text, KINDS)

    def test_eventually_always_encodings(self):
        assert self.f("F {p >= 0}") == Until(TrueF(), self.f("{p >= 0}"))
        assert self.f("G {p >= 0}") == Release(FalseF(), self.f("{p >= 0}"))
        assert render_formula(self.f("G F {p >= 0}")) == "G F {p >= 0}"

    def test_ltl_connectives_do_not_flatten(self):
        flat = self.f("{p >= 0} and {q >= 0} and {p <= 0}")
        nested = self.f("({p >= 0} and {q >= 0}) and {p <= 0}")
        assert isinstance(flat, AndF) and len(flat.parts) == 3
        assert isinstance(nested, AndF) and len(nested.parts) == 2
        assert flat != nested
        assert parse_formula(render_formula(flat), KINDS) == flat
        assert parse_formula(render_formula(nested), KINDS) == nested

    def test_until_right_associative(self):
        formula = self.f("{p >= 0} U {q >= 0} U {p <= 0}")
        assert isinstance(formula, Until)
        assert isinstance(formula.right, Until)
        assert parse_formula(render_formula(formula), KINDS) == formula

    def test_service_refs_and_child_formulas(self):
        from repro.runtime import labels

        formula = self.f("G (open(Cancel) -> [G not svc(Cancel.Refund)]@Cancel)")
        rendered = render_formula(formula)
        assert "open(Cancel)" in rendered and "svc(Cancel.Refund)" in rendered
        assert parse_formula(rendered, KINDS) == formula
        refs = {getattr(p, "ref", None) for p in propositions(formula)}
        assert labels.opening("Cancel") in refs

    def test_degenerate_nary_formulas(self):
        single = AndF(TrueF())
        assert render_formula(single) == "all(true)"
        assert parse_formula("any(false)", KINDS) == OrF(FalseF())


class TestDocumentLevel:
    def test_minimal_document(self):
        doc = loads(
            """
            system shop {
              schema { relation ITEMS(price: num) }
              task Shop {
                vars item: id, price: num
                service Pick { post: ITEMS(item, price) }
              }
            }
            property "picked-row-exists" on Shop {
              expect: holds
              formula: G {item = null or ITEMS(item, price)}
            }
            """
        )
        assert doc.system.name == "shop"
        entry = doc.property_named("picked-row-exists")
        assert entry.expect == "holds" and entry.expected_holds is True
        job = doc.jobs()[0]
        assert execute_job(job).status == "holds"

    def test_file_config_wins_over_default(self):
        doc = loads(
            """
            system s { schema { relation R(a: num) }
              task T { vars x: id, p: num service Go { post: R(x, p) } } }
            property p1 on T { formula: G {x = null or R(x, p)} }
            config { km_budget: 7 }
            """
        )
        jobs = doc.jobs(default_config=VerifierConfig(km_budget=99_999))
        assert jobs[0].config.km_budget == 7

    def test_default_config_used_when_file_has_none(self):
        doc = loads(
            """
            system s { schema { relation R(a: num) }
              task T { vars x: id, p: num service Go { post: R(x, p) } } }
            property p1 on T { formula: G {x = null or R(x, p)} }
            """
        )
        jobs = doc.jobs(default_config=VerifierConfig(km_budget=123))
        assert jobs[0].config.km_budget == 123

    def test_config_roundtrip_only_lists_non_defaults(self):
        config = VerifierConfig(km_budget=55, time_limit_seconds=2.5)
        text = render_config(config)
        assert "km_budget: 55" in text and "time_limit_seconds: 2.5" in text
        assert "max_summaries" not in text

    def test_validation_catches_out_of_scope_property(self):
        # cx belongs to the child task; a root-spec condition cannot use it
        with pytest.raises(SpecificationError, match="out-of-scope"):
            loads(
                """
                system s { schema { relation R(a: num) }
                  task T { vars x: id, p: num
                    task C { vars cx: id }
                  } }
                property bad on T { formula: G {cx = null} }
                """
            )

    def test_dangling_instance_fk_rejected(self):
        with pytest.raises(DslSyntaxError, match="dangles"):
            loads(
                """
                system s {
                  schema { relation A(v: num, b: ref B) relation B(w: num) }
                  task T { vars x: id service Go { } }
                }
                instance bad { A a1 (v: 1, b: missing) }
                """
            )

    def test_reserved_word_variable_rejected(self):
        with pytest.raises(DslSyntaxError, match="reserved"):
            loads(
                """
                system s { schema { relation R(a: num) }
                  task T { vars exists: id } }
                """
            )

    def test_kind_conflict_across_tasks_rejected(self):
        with pytest.raises(DslSyntaxError, match="one kind per name"):
            loads(
                """
                system s { schema { relation R(a: num) }
                  task T { vars x: id
                    task C { vars x: num }
                  } }
                """
            )

    def test_unknown_config_field_rejected(self):
        with pytest.raises(DslSyntaxError, match="unknown config field"):
            loads(
                """
                system s { schema { relation R(a: num) }
                  task T { vars x: id } }
                config { warp_speed: 9 }
                """
            )

    @pytest.mark.parametrize("value", ["fourty", '"40"'])
    def test_string_config_value_rejected(self, value):
        # no config field takes a string: a word or quoted value must fail
        # at parse time, not load, key and then fail inside the verifier
        text = (
            "system s { schema { relation R(a: num) } task T { vars x: id } }\n"
            "config {\n"
            f"  km_budget: {value}\n"
            "}\n"
        )
        with pytest.raises(DslSyntaxError, match="expected a config value") as excinfo:
            loads(text, source="f.has")
        assert "f.has:3:" in str(excinfo.value)

    def test_syntax_error_carries_location(self):
        with pytest.raises(DslSyntaxError) as excinfo:
            loads("system s {\n  schema { relation 9bad(a: num) }\n}", source="f.has")
        assert "f.has:2:" in str(excinfo.value)

    def test_duplicate_instance_names_rejected(self):
        with pytest.raises(DslSyntaxError, match="duplicate instance name"):
            loads(
                """
                system s { schema { relation R(a: num) }
                  task T { vars x: id } }
                instance db { R r1 (a: 1) }
                instance db { R r2 (a: 2) }
                """
            )

    def test_duplicate_property_names_rejected(self):
        # two properties named p would make the ::p selector ambiguous
        with pytest.raises(DslSyntaxError, match="duplicate property name"):
            loads(
                """
                system s { schema { relation R(a: num) }
                  task T { vars x: id, p: num } }
                property p1 on T { formula: G {x = null} }
                property p1 on T { formula: F {x = null} }
                """
            )

    def test_two_systems_rejected(self):
        with pytest.raises(DslSyntaxError, match="exactly one system"):
            loads(
                """
                system a { schema { relation R(v: num) } task T { vars x: id } }
                system b { schema { relation Q(v: num) } task U { vars y: id } }
                """
            )


class TestCorpusExport:
    def test_has_corpus_entry_matches_json_job_key(self, tmp_path):
        from repro.fuzz import BoundedConfig, corpus_entry, run_campaign
        from repro.fuzz.harness import corpus_entry_has, write_corpus_entry_has

        campaign = run_campaign(
            11,
            3,
            verifier_config=VerifierConfig(km_budget=20_000),
            bounded_config=BoundedConfig(time_budget_seconds=None),
            out_dir=tmp_path / "reports",
        )
        assert not campaign.discrepancies
        for outcome in campaign.outcomes:
            entry = corpus_entry(outcome, VerifierConfig(km_budget=20_000))
            path = write_corpus_entry_has(
                tmp_path, outcome, VerifierConfig(km_budget=20_000)
            )
            doc = load_document(path)
            job = doc.jobs()[0]
            assert job.key() == entry["job_key"], (
                "readable .has corpus entry must content-hash identically "
                "to the JSON corpus record"
            )
            assert doc.properties[0].expect == outcome.symbolic_status
            # the emitted file is itself a parse fixed point
            text = path.read_text()
            body = text.split("\n\n", 1)[1]
            assert render_document(doc) == body
