"""Cache-correctness properties and the benchmark harness.

The hot-path pass (canonical-key memoization, FM satisfiability /
projection caches, successor memoization) is only admissible if every
cache is *invisible*: same verdicts, same keys, same projections as the
uncached code.  These tests pin that down —

* a mutated-then-rekeyed :class:`ConstraintStore` never serves a stale
  canonical key (dirty-bit invalidation, property-tested over random
  assertion sequences);
* storing ``e >= 0`` / ``e > 0`` as ``-e <= 0`` / ``-e < 0`` changes no
  canonical key or consistency verdict, and a condition's memoized
  rewrite plan yields the same branches as recomputing it;
* Fourier–Motzkin projection with the cache enabled equals projection
  with it disabled on randomized systems, and the component-wise
  satisfiability decision equals the monolithic one;
* verification with the successor memo disabled is byte-identical to
  the default;
* the ``bench --record / --compare`` harness round-trips its JSON and
  flags regressions (and only regressions), and the overhead gate's
  harness leaves the instrumentation in its production state;
* ``VerifierConfig`` round-trips through its serialized form.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.arith import fm
from repro.arith.constraints import Constraint, Rel
from repro.arith.linexpr import LinExpr, var
from repro.database.fkgraph import SchemaClass
from repro.database.schema import DatabaseSchema, Relation, foreign_key, numeric
from repro.errors import ConditionError
from repro.logic.conditions import Not
from repro.logic.terms import id_var, num_var
from repro.perf.bench import (
    OVERHEAD_SWITCHES,
    compare_records,
    compare_directories,
    family_names,
    load_record,
    measure_overhead,
    record_families,
    run_family,
)
from repro.perf.counters import COUNTERS, PerfCounters
from repro.service.serialize import from_dict, to_dict
from repro.symbolic.apply import apply_condition
from repro.symbolic.store import ConstraintStore, Inconsistent, clear_canonical_caches
from repro.verifier import Verifier, VerifierConfig, task_vass
from repro.workloads import table1_workload

from tests.test_store_properties import IDS, NUMS, SCHEMA, apply_ops, op_sequences

# ----------------------------------------------------------------------
# canonical-key staleness
# ----------------------------------------------------------------------


class TestCanonicalKeyFreshness:
    @given(op_sequences(), op_sequences())
    @settings(max_examples=120, deadline=None)
    def test_mutated_then_rekeyed_store_never_serves_stale_key(
        self, prefix, suffix
    ):
        """Interleaving canonical_key() calls with mutations must end at
        the same key as replaying all mutations with no intermediate
        reads — the dirty bit may never let a pre-mutation key leak."""
        interleaved = ConstraintStore(SCHEMA)
        if not apply_ops(interleaved, prefix):
            return
        interleaved.canonical_key()  # populate the cache mid-sequence
        if not apply_ops(interleaved, suffix):
            return
        interleaved.canonical_key()  # and again, twice
        key = interleaved.canonical_key()

        replayed = ConstraintStore(SCHEMA)
        assert apply_ops(replayed, prefix) and apply_ops(replayed, suffix)
        assert replayed.canonical_key() == key

    @given(op_sequences())
    @settings(max_examples=80, deadline=None)
    def test_copy_and_global_cache_clear_reproduce_the_key(self, ops):
        """The key survives copy() and does not depend on the global
        interning / per-constraint memo state."""
        store = ConstraintStore(SCHEMA)
        if not apply_ops(store, ops):
            return
        key = store.canonical_key()
        clone = store.copy()
        clone._canon_cache = None  # force a recompute
        assert clone.canonical_key() == key
        clear_canonical_caches()
        fresh = store.copy()
        fresh._canon_cache = None
        assert fresh.canonical_key() == key

    def test_every_mutator_invalidates(self):
        """Each store mutator drops the cached key (spot check on the
        dirty bit wiring)."""
        u, v = id_var("u"), id_var("v")
        n = num_var("n")
        store = ConstraintStore(SCHEMA)
        mutations = [
            lambda s: s.node_of(u) and None,
            lambda s: s.assert_not_null(s.node_of(u)),
            lambda s: s.assert_anchor(s.node_of(u), "F"),
            lambda s: s.assert_eq(s.nav(s.node_of(u), "price"), s.node_of(n)),
            lambda s: s.assert_neq(s.node_of(u), s.node_of(v)),
            lambda s: s.add_linear(LinExpr({s.node_of(n): 1}, -2), Rel.LE),
            lambda s: s.bind(v, s.node_of(u)),
            lambda s: s.pin(("p",), s.node_of(u)),
            lambda s: s.unpin_prefix(("p",)),
        ]
        previous = store.canonical_key()
        seen = {previous}
        for index, mutate in enumerate(mutations):
            mutate(store)
            key = store.canonical_key()
            recomputed = store.copy()
            recomputed._canon_cache = None
            assert recomputed.canonical_key() == key, f"mutation {index}"
            seen.add(key)
        assert len(seen) > 2  # the sequence genuinely changed the store


# ----------------------------------------------------------------------
# hot-path representation: stored relation form, condition plans
# ----------------------------------------------------------------------


@st.composite
def ge_gt_constraints(draw):
    """``(coefficient of a, coefficient of b, constant, rel)`` for a
    non-constant ``e >= 0`` / ``e > 0`` over the numeric variables."""
    nonzero = st.integers(min_value=-3, max_value=3).filter(bool)
    return (
        draw(nonzero),
        draw(st.integers(min_value=-3, max_value=3)),
        draw(st.fractions(min_value=-4, max_value=4, max_denominator=3)),
        draw(st.sampled_from([Rel.GE, Rel.GT])),
    )


class TestStoredRelationForm:
    @given(op_sequences(), ge_gt_constraints())
    @settings(max_examples=150, deadline=None)
    def test_ge_gt_and_negated_le_lt_are_indistinguishable(self, ops, drawn):
        """``add_constraint`` stores ``e >= 0`` / ``e > 0`` as ``-e <= 0``
        / ``-e < 0``.  A store given either spelling, and a store holding
        the constraint exactly as given (the representation before the
        rewrite), must agree on canonical key and consistency — also
        after restrict, whose FM projection sees the two lists."""
        a, b = NUMS
        ca, cb, constant, rel = drawn
        base = ConstraintStore(SCHEMA)
        if not apply_ops(base, ops):
            return
        expr = LinExpr({base.node_of(a): ca, base.node_of(b): cb}, constant)
        given_ge = base.copy()
        given_ge.add_linear(expr, rel)
        given_le = base.copy()
        given_le.add_linear(-expr, rel.flip())
        as_given = base.copy()
        as_given._numeric.append(Constraint(expr, rel))
        as_given._numeric_dirty = True
        as_given._canon_cache = None

        stores = (given_ge, given_le, as_given)
        assert len({s.canonical_key() for s in stores}) == 1
        assert len({s.is_consistent() for s in stores}) == 1
        if given_ge.is_consistent():
            restricted = [s.restrict([a, IDS[0]]) for s in stores]
            assert len({s.canonical_key() for s in restricted}) == 1


def _gallery_conditions():
    """Every service, guard and precondition of the gallery systems,
    each with its negation (the NNF rewrite's other half)."""
    from repro.service.suites import build_suite

    seen = {}
    for job in build_suite("gallery"):
        has = job.has
        if has.name in seen:
            continue
        conditions = [has.precondition]
        for task in has.tasks():
            conditions += [task.opening.pre, task.closing.pre]
            for service in task.services:
                conditions += [service.pre, service.post]
        seen[has.name] = (has.database, conditions)
    for schema, conditions in seen.values():
        for condition in conditions:
            yield schema, condition
            yield schema, Not(condition)


def _branch_keys(schema, condition):
    try:
        return [
            branch.canonical_key()
            for branch in apply_condition(ConstraintStore(schema), condition)
        ]
    except ConditionError as error:
        return ("raises", str(error))


class TestConditionPlanInvisibility:
    def test_warm_plan_matches_recomputed_rewrite(self):
        """``apply_condition`` memoizes its rewrite on the condition.
        Applying a condition whose plan is warm must yield the same
        branch keys, in the same order, as an equal condition object
        built afresh (``rename({})`` copies the tree), whose rewrite is
        recomputed."""
        checked = 0
        for schema, condition in _gallery_conditions():
            cold = _branch_keys(schema, condition.rename({}))
            first = _branch_keys(schema, condition)
            warm = _branch_keys(schema, condition)
            assert first == warm == cold, repr(condition)
            checked += 1
        assert checked > 100


# ----------------------------------------------------------------------
# Fourier–Motzkin caches
# ----------------------------------------------------------------------

UNKNOWNS = ("x", "y", "z", "w")


@st.composite
def constraint_systems(draw):
    constraints = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        coeffs = {
            unknown: draw(st.integers(min_value=-3, max_value=3))
            for unknown in draw(
                st.sets(st.sampled_from(UNKNOWNS), min_size=0, max_size=3)
            )
        }
        constant = draw(st.integers(min_value=-4, max_value=4))
        rel = draw(st.sampled_from(list(Rel)))
        constraints.append(Constraint(LinExpr(coeffs, constant), rel))
    return constraints


@st.composite
def keep_sets(draw):
    return set(draw(st.sets(st.sampled_from(UNKNOWNS), min_size=0, max_size=4)))


class TestFMCaches:
    @given(constraint_systems(), keep_sets())
    @settings(max_examples=200, deadline=None)
    def test_projection_cache_equals_uncached(self, constraints, keep):
        fm.clear_caches()
        cold_kept, cold_exact = fm.project_components(constraints, keep)
        warm_kept, warm_exact = fm.project_components(constraints, keep)
        raw_kept, raw_exact = fm.project_components_uncached(constraints, keep)
        assert cold_kept == warm_kept == raw_kept
        assert cold_exact == warm_exact == raw_exact

    @given(constraint_systems())
    @settings(max_examples=200, deadline=None)
    def test_componentwise_sat_equals_monolithic(self, constraints):
        fm.clear_caches()
        componentwise = fm.is_satisfiable(constraints)
        normalized = fm._normalize(list(constraints))
        monolithic = (
            False if normalized is None else fm._is_satisfiable_uncached(normalized)
        )
        assert componentwise == monolithic
        # and the cached re-query agrees
        assert fm.is_satisfiable(constraints) == componentwise

    @given(constraint_systems())
    @settings(max_examples=100, deadline=None)
    def test_sat_agrees_with_sample_existence(self, constraints):
        fm.clear_caches()
        assert fm.is_satisfiable(constraints) == (
            fm.sample_solution(constraints) is not None
        )

    def test_projection_cache_counts_hits(self):
        fm.clear_caches()
        x = var("x")
        system = [Constraint(x - 1, Rel.LE)]
        before = COUNTERS.snapshot()
        fm.project_components(system, {"x"})
        fm.project_components(system, {"x"})
        delta = COUNTERS.since(before)
        assert delta["fm_proj_misses"] == 1
        assert delta["fm_proj_hits"] == 1


# ----------------------------------------------------------------------
# verifier-level cache invisibility
# ----------------------------------------------------------------------


def _semantic_fingerprint(result):
    return (
        result.holds,
        result.witness_kind,
        [repr(step) for step in result.witness],
        result.loop_start,
        result.stats.km_nodes,
        result.stats.summaries,
    )


class TestVerifierCacheInvisibility:
    def test_successor_memo_is_byte_identical(self, monkeypatch):
        spec = table1_workload(
            SchemaClass.CYCLIC, depth=2, with_sets=True, violated=True
        )
        config = VerifierConfig(km_budget=60_000)
        with_memo = Verifier(spec.has, config).verify(spec.prop)
        monkeypatch.setattr(task_vass, "SUCCESSOR_MEMO_LIMIT", 0)
        without_memo = Verifier(spec.has, config).verify(spec.prop)
        assert _semantic_fingerprint(with_memo) == _semantic_fingerprint(
            without_memo
        )
        assert with_memo.holds == spec.expected_holds

    def test_run_is_hash_seed_independent(self):
        """The search is reproducible across processes: verdict, witness,
        and node counts must not depend on PYTHONHASHSEED (set/frozenset
        iteration orders).  Historically the automaton tableau, store
        absorption, and FM elimination each leaked hash order into the
        exploration; this pins the fix."""
        import subprocess
        import sys

        script = (
            "import json\n"
            "from repro.examples.travel import travel_lite, "
            "discount_policy_property_lite\n"
            "from repro.verifier import Verifier, VerifierConfig\n"
            "has = travel_lite(False)\n"
            "r = Verifier(has, VerifierConfig(km_budget=60000))"
            ".verify(discount_policy_property_lite(has))\n"
            "print(json.dumps([r.holds, r.witness_kind, "
            "[repr(s) for s in r.witness], r.stats.km_nodes, "
            "r.stats.summaries]))\n"
        )
        outputs = set()
        for seed in ("0", "1", "4242"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={
                    "PYTHONHASHSEED": seed,
                    "PYTHONPATH": "src",
                },
                cwd=str(__import__("pathlib").Path(__file__).parent.parent),
                check=True,
            )
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1, f"hash-seed-dependent outcomes: {outputs}"

    def test_budget_abort_does_not_poison_summary_memo(self):
        """A BudgetExceeded raised mid-summary must not leave the empty
        placeholder memoized: the memo outlives the verify() call, and a
        truncated summary would silently drop child behaviors from a
        later run on the same Verifier."""
        from repro.errors import BudgetExceeded

        spec = table1_workload(
            SchemaClass.ACYCLIC, depth=2, with_sets=True, violated=True
        )
        verifier = Verifier(spec.has, VerifierConfig(km_budget=3))
        with pytest.raises(BudgetExceeded):
            verifier.verify(spec.prop)
        for (task, _input_key, _beta), summary in verifier._summaries.items():
            assert summary.km_nodes > 0, (
                f"truncated placeholder summary for {task!r} survived the abort"
            )
        verifier.config = VerifierConfig(km_budget=60_000)
        result = verifier.verify(spec.prop)
        assert result.holds == spec.expected_holds

    def test_summaries_reused_across_properties(self):
        """R_T summaries persist on the Verifier across verify() calls:
        re-checking a property whose child specs were already summarized
        recomputes no summaries (the β key determines B(T, β) exactly,
        so the reuse is sound across property automata sharing a task)."""
        spec = table1_workload(SchemaClass.ACYCLIC, depth=2, with_sets=True)
        verifier = Verifier(spec.has, VerifierConfig(km_budget=60_000))
        first = verifier.verify(spec.prop)
        assert first.stats.summaries > 0
        second = verifier.verify(spec.prop)
        assert second.stats.summaries == 0
        assert second.stats.summary_hits > 0
        assert first.holds == second.holds


# ----------------------------------------------------------------------
# config serialization stability
# ----------------------------------------------------------------------


class TestConfigKeyStability:
    def test_default_roundtrip(self):
        assert from_dict(to_dict(VerifierConfig())) == VerifierConfig()


# ----------------------------------------------------------------------
# the bench harness
# ----------------------------------------------------------------------


class TestBenchHarness:
    def test_family_names_are_stable(self):
        assert set(family_names()) >= {"table1", "table2", "travel-lite"}

    def test_unknown_family_raises(self):
        try:
            run_family("no-such-family")
        except KeyError as exc:
            assert "no-such-family" in str(exc)
        else:
            raise AssertionError("expected KeyError")

    def test_record_and_load_roundtrip(self, tmp_path):
        paths = record_families(
            tmp_path, families=["travel-lite"], reps=1, log=lambda _line: None
        )
        assert [p.name for p in paths] == ["BENCH_travel-lite.json"]
        record = load_record(paths[0])
        assert record["family"] == "travel-lite"
        assert record["wall_seconds"] > 0
        assert record["km_nodes"] > 0
        statuses = {job["status"] for job in record["jobs"]}
        assert statuses == {"violated", "holds"}
        assert set(record["rates"]) == set(PerfCounters.rates({}).keys())

    def test_compare_flags_only_regressions(self):
        current = {
            "family": "f",
            "wall_seconds": 1.0,
            "km_nodes": 10,
            "jobs": [{"name": "j", "status": "holds", "km_nodes": 10}],
        }
        same = dict(current)
        regressions, drifts, _notes = compare_records(current, same)
        assert regressions == [] and drifts == []
        fast_baseline = dict(current, wall_seconds=0.5)
        regressions, drifts, _notes = compare_records(current, fast_baseline)
        assert len(regressions) == 1 and "×2.00" in regressions[0]
        assert drifts == []
        # within threshold: not a regression
        close_baseline = dict(current, wall_seconds=0.9)
        regressions, drifts, _notes = compare_records(current, close_baseline)
        assert regressions == [] and drifts == []
        # verdict drift is semantic, not perf
        drifted = dict(
            current,
            jobs=[{"name": "j", "status": "violated", "km_nodes": 10}],
        )
        regressions, drifts, _notes = compare_records(current, drifted)
        assert regressions == []
        assert any("fingerprint" in line for line in drifts)

    def test_compare_directories_soft_on_missing_baseline(self, tmp_path):
        current_dir = tmp_path / "current"
        baseline_dir = tmp_path / "baseline"
        current_dir.mkdir()
        baseline_dir.mkdir()
        record = {
            "schema_version": 1,
            "family": "f",
            "deterministic": True,
            "wall_seconds": 1.0,
            "km_nodes": 10,
            "jobs": [],
        }
        (current_dir / "BENCH_f.json").write_text(json.dumps(record))
        regressions, drifts, notes = compare_directories(
            current_dir, baseline_dir
        )
        assert regressions == [] and drifts == []
        assert any("no baseline" in note for note in notes)

    def test_measure_overhead_restores_production_state(self):
        """Each switch of the overhead gate measures real walls on both
        sides and leaves the instrumentation as production runs it:
        tracing off, the attribution and coverage registries on."""
        from repro.fuzz.coverage import COVERAGE
        from repro.obs import trace
        from repro.obs.attribution import ATTRIBUTION

        for switch in OVERHEAD_SWITCHES:
            result = measure_overhead(switch, "travel-lite", reps=1)
            assert result["switch"] == switch
            assert result["off_seconds"] > 0 and result["on_seconds"] > 0
            assert not trace.enabled()
            assert ATTRIBUTION.enabled and COVERAGE.enabled
        with pytest.raises(ValueError, match="no-such-switch"):
            measure_overhead("no-such-switch")

    def test_tracked_baselines_load(self):
        """The baselines committed under benchmarks/baselines/ stay
        readable by the current schema."""
        from pathlib import Path

        baseline_dir = Path(__file__).resolve().parent.parent / (
            "benchmarks/baselines"
        )
        records = sorted(baseline_dir.glob("BENCH_*.json"))
        assert records, "tracked baselines missing"
        for path in records:
            record = load_record(path)
            assert record["family"] in family_names()


class TestBenchCLI:
    def test_record_then_compare_exit_codes(self, tmp_path, capsys):
        from repro.service.cli import main

        out_dir = tmp_path / "records"
        code = main(
            [
                "bench",
                "--record",
                "--families",
                "travel-lite",
                "--reps",
                "1",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        assert (out_dir / "BENCH_travel-lite.json").exists()
        # compare against itself: no regression
        code = main(
            ["bench", "--compare", str(out_dir), "--out", str(out_dir)]
        )
        assert code == 0
        # halve the baseline wall → synthetic >15% regression → exit 3
        baseline_dir = tmp_path / "baseline"
        baseline_dir.mkdir()
        record = json.loads((out_dir / "BENCH_travel-lite.json").read_text())
        record["wall_seconds"] = record["wall_seconds"] / 4
        (baseline_dir / "BENCH_travel-lite.json").write_text(json.dumps(record))
        code = main(
            ["bench", "--compare", str(baseline_dir), "--out", str(out_dir)]
        )
        assert code == 3
        output = capsys.readouterr().out
        assert "REGRESSION" in output
        # verdict drift in the baseline → exit 4 (semantic, not perf)
        drift_dir = tmp_path / "drift-baseline"
        drift_dir.mkdir()
        drifted = json.loads((out_dir / "BENCH_travel-lite.json").read_text())
        drifted["jobs"] = [
            dict(job, status="holds") for job in drifted["jobs"]
        ]
        (drift_dir / "BENCH_travel-lite.json").write_text(json.dumps(drifted))
        code = main(
            ["bench", "--compare", str(drift_dir), "--out", str(out_dir)]
        )
        assert code == 4
        assert "SEMANTIC DRIFT" in capsys.readouterr().out

    def test_bench_needs_record_or_compare(self, capsys):
        """``bench`` has one mode: without --record or --compare it is a
        usage error, not a run."""
        from repro.service.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["bench", "table1"])
        assert exc.value.code == 2
        assert "--record" in capsys.readouterr().err

    def test_positional_family_is_honored(self, tmp_path):
        from repro.service.cli import main

        out_dir = tmp_path / "records"
        code = main(
            [
                "bench",
                "travel-lite",
                "--record",
                "--reps",
                "1",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        assert sorted(p.name for p in out_dir.glob("BENCH_*.json")) == [
            "BENCH_travel-lite.json"
        ]
