"""The batch verification service: jobs, cache, pool, runner, CLI."""

from __future__ import annotations

import json

import pytest

from repro.database.fkgraph import SchemaClass
from repro.errors import BudgetExceeded
from repro.service.cache import ResultCache
from repro.service.jobs import (
    JobOutcome,
    STATUS_BUDGET_EXCEEDED,
    STATUS_HOLDS,
    VerificationJob,
    job_from_spec,
)
from repro.service.pool import execute_job
from repro.service.runner import run_batch
from repro.service.suites import build_suite, suite_names
from repro.service.cli import main as cli_main
from repro.verifier import VerifierConfig
from repro.workloads import table1_workload

CONFIG = VerifierConfig(km_budget=30_000, time_limit_seconds=60)


def _quick_jobs():
    return build_suite("quick", config=CONFIG)


class TestJobs:
    def test_key_ignores_name_and_expectation(self):
        spec = table1_workload(SchemaClass.ACYCLIC, depth=2)
        a = job_from_spec(spec, CONFIG)
        b = VerificationJob(
            has=spec.has, prop=spec.prop, config=CONFIG, name="renamed",
            expected_holds=None,
        )
        assert a.key() == b.key()

    def test_key_depends_on_config(self):
        spec = table1_workload(SchemaClass.ACYCLIC, depth=2)
        a = job_from_spec(spec, VerifierConfig(km_budget=100))
        b = job_from_spec(spec, VerifierConfig(km_budget=200))
        assert a.key() != b.key()

    def test_payload_roundtrip_preserves_key(self):
        job = _quick_jobs()[0]
        clone = VerificationJob.from_payload(job.payload())
        assert clone.key() == job.key()
        assert clone.name == job.name

    def test_outcome_roundtrip(self):
        outcome = JobOutcome(
            name="n", key="k", status=STATUS_HOLDS, holds=True, km_nodes=7,
            summaries=2, wall_seconds=0.5, expected_holds=True,
        )
        clone = JobOutcome.from_dict(outcome.to_dict())
        assert clone == outcome
        assert clone.semantic_bytes() == outcome.semantic_bytes()

    def test_semantic_dict_excludes_timing_and_provenance(self):
        outcome = JobOutcome(name="n", key="k", status=STATUS_HOLDS, holds=True)
        semantic = outcome.semantic_dict()
        assert "wall_seconds" not in semantic
        assert "cache_hit" not in semantic


class TestExecution:
    def test_execute_job_matches_direct_verification(self):
        from repro.verifier import verify

        spec = table1_workload(SchemaClass.ACYCLIC, depth=2, violated=True)
        job = job_from_spec(spec, CONFIG)
        outcome = execute_job(job)
        direct = verify(spec.has, spec.prop, CONFIG)
        assert outcome.holds == direct.holds is False
        assert outcome.witness_kind == direct.witness_kind
        assert outcome.km_nodes == direct.stats.km_nodes

    def test_budget_exceeded_is_captured_not_raised(self):
        spec = table1_workload(SchemaClass.CYCLIC, depth=2, with_sets=True)
        job = job_from_spec(spec, VerifierConfig(km_budget=3))
        outcome = execute_job(job)
        assert outcome.status == STATUS_BUDGET_EXCEEDED
        assert outcome.holds is None
        assert "budget" in outcome.error

    def test_malformed_payload_becomes_error_outcome(self):
        from repro.service.jobs import STATUS_ERROR
        from repro.service.pool import execute_payload

        outcome = JobOutcome.from_dict(
            execute_payload({"name": "broken", "key": "k", "has": {"t": "nope"}})
        )
        assert outcome.status == STATUS_ERROR
        assert outcome.name == "broken"
        assert outcome.key == "k"
        assert outcome.error

    def test_batch_survives_budget_exceeded_jobs(self):
        spec = table1_workload(SchemaClass.ACYCLIC, depth=2)
        good = job_from_spec(spec, CONFIG)
        bad = job_from_spec(
            table1_workload(SchemaClass.CYCLIC, depth=2, with_sets=True),
            VerifierConfig(km_budget=3),
        )
        report = run_batch([bad, good], workers=1)
        assert report.budget_exceeded == 1
        assert [o.status for o in report.outcomes][1] == STATUS_HOLDS


class TestParallelParity:
    def test_workers4_matches_workers1_byte_identical(self):
        jobs = _quick_jobs()
        serial = run_batch(jobs, workers=1)
        parallel = run_batch(jobs, workers=4)
        assert [o.name for o in parallel.outcomes] == [o.name for o in serial.outcomes]
        for a, b in zip(parallel.outcomes, serial.outcomes):
            assert a.semantic_bytes() == b.semantic_bytes()

    def test_run_jobs_order_is_input_order(self):
        jobs = _quick_jobs()
        outcomes = run_batch(jobs, workers=4).outcomes
        assert [o.name for o in outcomes] == [j.name for j in jobs]


class TestCache:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        jobs = _quick_jobs()
        cache = ResultCache(tmp_path / "cache")
        first = run_batch(jobs, workers=1, cache=cache)
        assert first.cache_hits == 0
        second = run_batch(jobs, workers=1, cache=cache)
        assert second.cache_hits == len(jobs)
        for a, b in zip(first.outcomes, second.outcomes):
            assert a.semantic_bytes() == b.semantic_bytes()

    def test_disk_cache_survives_new_instance(self, tmp_path):
        jobs = _quick_jobs()[:2]
        directory = tmp_path / "cache"
        run_batch(jobs, workers=1, cache=ResultCache(directory))
        fresh = ResultCache(directory)  # empty memory tier, warm disk tier
        report = run_batch(jobs, workers=1, cache=fresh)
        assert report.cache_hits == len(jobs)

    def test_memory_only_cache(self):
        jobs = _quick_jobs()[:2]
        cache = ResultCache()
        run_batch(jobs, workers=1, cache=cache)
        report = run_batch(jobs, workers=1, cache=cache)
        assert report.cache_hits == len(jobs)

    def test_duplicate_jobs_verified_once(self):
        spec = table1_workload(SchemaClass.ACYCLIC, depth=2)
        job = job_from_spec(spec, CONFIG)
        cache = ResultCache()
        report = run_batch([job, job, job], workers=1, cache=cache)
        assert report.total == 3
        assert report.cache_hits == 2  # first is live, rest deduped

    def test_non_verdict_outcomes_are_not_cached(self):
        bad = job_from_spec(
            table1_workload(SchemaClass.CYCLIC, depth=2, with_sets=True),
            VerifierConfig(km_budget=3),
        )
        cache = ResultCache()
        first = run_batch([bad], workers=1, cache=cache)
        assert first.budget_exceeded == 1
        second = run_batch([bad], workers=1, cache=cache)
        assert second.cache_hits == 0  # re-attempted, not served from cache

    def test_wrong_shape_cache_file_is_a_miss(self, tmp_path):
        jobs = _quick_jobs()[:1]
        directory = tmp_path / "cache"
        run_batch(jobs, workers=1, cache=ResultCache(directory))
        (victim,) = directory.glob("*/*.json")
        victim.write_text('["valid json", "wrong shape"]')
        report = run_batch(jobs, workers=1, cache=ResultCache(directory))
        assert report.cache_hits == 0
        assert report.outcomes[0].status == STATUS_HOLDS

    def test_cache_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = _quick_jobs()[:1]
        run_batch(jobs, workers=1, cache=cache)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0


class TestReport:
    def test_jsonl_export(self, tmp_path):
        jobs = _quick_jobs()
        report = run_batch(jobs, workers=1)
        out = tmp_path / "report.jsonl"
        report.to_jsonl(out)
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == len(jobs) + 1  # jobs + aggregate
        assert lines[-1]["aggregate"] is True
        assert lines[-1]["total"] == len(jobs)
        assert {line["name"] for line in lines[:-1]} == {j.name for j in jobs}

    def test_expected_verdicts_hold(self):
        report = run_batch(_quick_jobs(), workers=1)
        assert report.errors == 0
        assert report.unexpected == []

    def test_merged_stats(self):
        report = run_batch(_quick_jobs(), workers=1)
        stats = report.merged_stats()
        assert stats.km_nodes == sum(o.km_nodes for o in report.outcomes)


class TestSuites:
    def test_suite_names(self):
        assert set(suite_names()) >= {"table1", "table2", "travel", "mixed", "quick"}

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            build_suite("nope")

    def test_table1_suite_shape(self):
        jobs = build_suite("table1", config=CONFIG)
        assert len(jobs) == 18
        assert len({j.key() for j in jobs}) == len(jobs)

    def test_quick_flag_trims(self):
        assert len(build_suite("table1", quick=True, config=CONFIG)) < 18

    def test_travel_hard_job_ends_on_its_km_budget(self):
        """The full travel job is boxed by a KM budget, not a wall clock,
        so its outcome and node count do not depend on machine speed; the
        suite's time limit stays as the safety net."""
        job = build_suite("travel")[-1]
        assert job.name.endswith("(tight budget)")
        assert job.config.time_limit_seconds == 120.0
        outcome = execute_job(job)
        assert outcome.status == STATUS_BUDGET_EXCEEDED
        assert outcome.error == "root search exhausted the KM budget"
        assert outcome.km_nodes > job.config.km_budget


class TestCLI:
    def test_suite_command(self, tmp_path, capsys):
        jsonl = tmp_path / "out.jsonl"
        code = cli_main(
            [
                "suite",
                "quick",
                "--workers",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--jsonl",
                str(jsonl),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 jobs" in out
        assert jsonl.exists()
        # repeated invocation: everything cached
        code = cli_main(
            ["suite", "quick", "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 cache hits" in out

    def test_verify_command(self, capsys):
        code = cli_main(["verify", "travel-lite-fixed", "--time-limit", "60"])
        assert code == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_verify_violated_exit_code(self, capsys):
        code = cli_main(["verify", "travel-lite", "--time-limit", "60"])
        assert code == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_verify_json_output(self, capsys):
        code = cli_main(["verify", "travel-lite", "--time-limit", "60", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "violated"
        assert payload["witness_json"]["status"] in ("confirmed", "non_concretizable")

    def test_verify_job_file_roundtrip(self, tmp_path, capsys):
        dump = tmp_path / "job.json"
        code = cli_main(
            ["verify", "travel-lite-fixed", "--time-limit", "60",
             "--dump-job", str(dump)]
        )
        assert code == 0
        capsys.readouterr()
        code = cli_main(["verify", str(dump), "--time-limit", "60"])
        assert code == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_unknown_target(self):
        with pytest.raises(SystemExit):
            cli_main(["verify", "no-such-example"])
