"""Cross-job summary reuse: the persistent store tier, its codec, the
reuse-parity contract (warm runs are observationally invisible), and the
summary-limit soundness fixes that rode along.

The edit-adjacent pairs come from the fuzzer's grow operators
(:func:`repro.fuzz.gen.grow_scenarios`): a base scenario plus an
``add service`` mutant is exactly the "verify, edit one service,
re-verify" workflow the store accelerates.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import BudgetExceeded
from repro.fuzz.gen import GenConfig, generate_scenario, grow_scenarios
from repro.service.cache import SummaryStore
from repro.service.jobs import (
    STATUS_BUDGET_EXCEEDED,
    VerificationJob,
)
from repro.service.pool import execute_job
from repro.service.summaries import decode_record
from repro.verifier import Verifier, VerifierConfig, engine, task_vass

CONFIG = VerifierConfig(km_budget=60_000, time_limit_seconds=60.0)
GEN_CONFIG = GenConfig(max_depth=3, max_children=2)


def _scenario(seed: int, index: int = 0):
    return generate_scenario(seed, index, GEN_CONFIG)


def _edited(scenario):
    """The first single-service edit of ``scenario`` (deterministic)."""
    return next(
        m
        for m in grow_scenarios(scenario, limit=12)
        if m.mutations[-1].startswith("add service")
    )


def _job(scenario, config: VerifierConfig = CONFIG) -> VerificationJob:
    return VerificationJob(
        has=scenario.has, prop=scenario.prop, config=config, name=scenario.name
    )


# ----------------------------------------------------------------------
# store tier (same contracts as ResultCache)
# ----------------------------------------------------------------------
class TestSummaryStoreTier:
    def test_roundtrip_and_contains(self, tmp_path):
        store = SummaryStore(tmp_path)
        record = {"v": 1, "payload": [1, 2, 3]}
        assert store.get("ab" + "0" * 62) is None
        store.put("ab" + "0" * 62, record)
        assert "ab" + "0" * 62 in store
        assert len(store) == 1
        # a fresh handle over the same directory sees the record
        fresh = SummaryStore(tmp_path)
        assert fresh.get("ab" + "0" * 62) == record

    def test_corrupt_file_is_miss_not_exception(self, tmp_path):
        store = SummaryStore(tmp_path)
        key = "cd" + "0" * 62
        store.put(key, {"v": 1})
        path = tmp_path / key[:2] / f"{key}.json"
        path.write_text('{"v": 1, "trunca')  # torn write / disk corruption
        fresh = SummaryStore(tmp_path)
        assert fresh.get(key) is None
        assert fresh.misses == 1

    def test_non_dict_json_is_miss(self, tmp_path):
        store = SummaryStore(tmp_path)
        key = "ef" + "0" * 62
        path = tmp_path / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True)
        path.write_text("[1, 2, 3]")
        assert store.get(key) is None

    def test_memory_only_store(self):
        store = SummaryStore()
        store.put("k", {"v": 1})
        assert store.get("k") == {"v": 1}
        assert len(store) == 1
        store.clear()
        assert store.get("k") is None


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------
class TestCodec:
    def test_persisted_records_decode_and_validate(self):
        sc = _scenario(6, 0)
        store = SummaryStore()
        Verifier(sc.has, CONFIG, summary_store=store).verify(sc.prop)
        assert len(store._memory) > 0
        for record in store._memory.values():
            decoded = decode_record(record, sc.has.database)
            assert decoded is not None
            root_key, entries = decoded
            # the root entry is last, and every entry's decoded outputs
            # already passed the canonical-key integrity check
            assert entries[-1][0] == root_key
            for _key, outputs, nonreturning, km_nodes, _deps in entries:
                assert isinstance(nonreturning, bool)
                assert km_nodes >= 0
                for out_key, out_store in outputs.items():
                    assert out_store.canonical_key() == out_key

    def test_records_survive_json_roundtrip(self):
        sc = _scenario(1, 1)
        store = SummaryStore()
        Verifier(sc.has, CONFIG, summary_store=store).verify(sc.prop)
        for record in store._memory.values():
            wire = json.loads(json.dumps(record, sort_keys=True))
            assert decode_record(wire, sc.has.database) is not None

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda r: r.update(v=99),
            lambda r: r.update(root=len(r["entries"])),
            lambda r: r["entries"][-1].update(km_nodes=-1),
            lambda r: r["entries"][-1].update(outputs=[["nope", {}]]),
            lambda r: r.pop("entries"),
        ],
    )
    def test_tampered_record_is_rejected_not_raised(self, tamper):
        sc = _scenario(1, 1)
        store = SummaryStore()
        Verifier(sc.has, CONFIG, summary_store=store).verify(sc.prop)
        key = next(iter(store._memory))
        record = json.loads(json.dumps(store._memory[key]))
        tamper(record)
        assert decode_record(record, sc.has.database) is None


# ----------------------------------------------------------------------
# reuse parity: warm runs are observationally invisible
# ----------------------------------------------------------------------
class TestReuseParity:
    @pytest.mark.parametrize("seed,index", [(1, 1), (6, 0), (7, 1)])
    def test_edited_warm_matches_cold_semantics(self, seed, index):
        base = _scenario(seed, index)
        edited = _edited(base)
        cold = execute_job(_job(edited))
        store = SummaryStore()
        execute_job(_job(base), summary_store=store)
        warm = execute_job(_job(edited), summary_store=store)
        # verdict, witness, km/summary totals: byte-identical
        assert warm.semantic_bytes() == cold.semantic_bytes()
        # the untouched subtrees really came from the store…
        stats = warm.stats or {}
        assert stats.get("summaries_reused", 0) > 0
        assert (warm.counters or {}).get("summary_store_hits", 0) > 0
        # …so the warm run explored strictly fewer fresh KM nodes
        fresh = warm.km_nodes - stats.get("km_nodes_reused", 0)
        assert fresh < cold.km_nodes

    def test_unedited_reverify_reuses_every_summary(self):
        sc = _scenario(6, 0)
        store = SummaryStore()
        cold = execute_job(_job(sc), summary_store=store)
        warm = execute_job(_job(sc), summary_store=store)
        assert warm.semantic_bytes() == cold.semantic_bytes()
        stats = warm.stats or {}
        assert stats.get("summaries_reused") == warm.summaries > 0
        assert stats.get("km_nodes_reused") > 0

    def test_reuse_across_directory_backed_processes(self, tmp_path):
        """A store directory filled by one handle is warm for a fresh
        handle — the cross-job (and cross-process) contract."""
        base = _scenario(6, 0)
        edited = _edited(base)
        execute_job(_job(base), summary_store=SummaryStore(tmp_path))
        cold = execute_job(_job(edited))
        warm = execute_job(_job(edited), summary_store=SummaryStore(tmp_path))
        assert warm.semantic_bytes() == cold.semantic_bytes()
        assert (warm.stats or {}).get("summaries_reused", 0) > 0

    def test_corrupt_store_degrades_to_cold_never_raises(self, tmp_path):
        base = _scenario(1, 1)
        execute_job(_job(base), summary_store=SummaryStore(tmp_path))
        files = sorted(tmp_path.glob("*/*.json"))
        assert files
        for path in files:
            path.write_text(path.read_text()[: len(path.read_text()) // 2])
        cold = execute_job(_job(base))
        warm = execute_job(_job(base), summary_store=SummaryStore(tmp_path))
        assert warm.status == cold.status
        assert warm.semantic_bytes() == cold.semantic_bytes()
        assert (warm.stats or {}).get("summaries_reused", 0) == 0
        assert (warm.counters or {}).get("summary_store_misses", 0) > 0

    def test_config_change_invalidates_by_construction(self):
        """Key-relevant config fields participate in the persistent key,
        so a run under a different budget never sees foreign records."""
        sc = _scenario(1, 1)
        store = SummaryStore()
        execute_job(_job(sc), summary_store=store)
        other = VerifierConfig(km_budget=59_999, time_limit_seconds=60.0)
        warm = execute_job(_job(sc, other), summary_store=store)
        assert (warm.stats or {}).get("summaries_reused", 0) == 0

    def test_hashseed_stable_store_bytes(self, tmp_path):
        """The persisted keys and record bytes must not depend on
        PYTHONHASHSEED (set iteration order, dict seeding)."""
        script = (
            "import sys\n"
            "from repro.fuzz.gen import GenConfig, generate_scenario\n"
            "from repro.service.cache import SummaryStore\n"
            "from repro.verifier import Verifier, VerifierConfig\n"
            "sc = generate_scenario(6, 0, GenConfig(max_depth=3, max_children=2))\n"
            "cfg = VerifierConfig(km_budget=60_000, time_limit_seconds=60.0)\n"
            "Verifier(sc.has, cfg, summary_store=SummaryStore(sys.argv[1]))"
            ".verify(sc.prop)\n"
        )
        digests = []
        for hashseed in ("1", "2"):
            out = tmp_path / f"store-{hashseed}"
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(Path("src").resolve()), env.get("PYTHONPATH")) if p
            )
            subprocess.run(
                [sys.executable, "-c", script, str(out)],
                check=True,
                env=env,
                cwd=Path(__file__).resolve().parent.parent,
            )
            digest = {
                f"{path.parent.name}/{path.name}": hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
                for path in out.glob("*/*.json")
            }
            assert digest
            digests.append(digest)
        assert digests[0] == digests[1]


# ----------------------------------------------------------------------
# summary-limit soundness (the bugfix satellites)
# ----------------------------------------------------------------------
class TestLimitSoundness:
    def test_output_overflow_refuses_instead_of_truncating(self):
        """Pre-fix, a summary hitting max_outputs_per_summary silently
        dropped output types — hiding child behaviors from the parent
        and potentially flipping the verdict.  Overflow must now refuse
        with BudgetExceeded, never return a verdict."""
        sc = _scenario(6, 0)  # has summaries with 2 distinct output types
        config = VerifierConfig(
            km_budget=60_000, time_limit_seconds=60.0, max_outputs_per_summary=1
        )
        with pytest.raises(BudgetExceeded, match="max_outputs_per_summary"):
            Verifier(sc.has, config).verify(sc.prop)

    def test_output_overflow_is_budget_status_through_pool(self):
        sc = _scenario(6, 0)
        config = VerifierConfig(
            km_budget=60_000, time_limit_seconds=60.0, max_outputs_per_summary=1
        )
        outcome = execute_job(_job(sc, config))
        assert outcome.status == STATUS_BUDGET_EXCEEDED
        assert outcome.holds is None
        assert "max_outputs_per_summary" in outcome.error

    def test_condition_branch_overflow_refuses_instead_of_truncating(self):
        """Pre-fix, a condition with more refinements than
        max_condition_branches silently kept the first ones, so the search
        returned a verdict over a subset of the branches.  Overflow must
        refuse with BudgetExceeded, like every other limit."""
        sc = _scenario(1, 1)  # a condition of its root task splits in two
        config = VerifierConfig(
            km_budget=60_000, time_limit_seconds=60.0, max_condition_branches=1
        )
        with pytest.raises(BudgetExceeded, match="max_condition_branches"):
            Verifier(sc.has, config).verify(sc.prop)
        outcome = execute_job(_job(sc, config))
        assert outcome.status == STATUS_BUDGET_EXCEEDED
        assert "max_condition_branches" in outcome.error

    def test_max_summaries_overflow_is_budget_status(self):
        """Pre-fix this raised a bare VerificationError, which the pool
        reported as an *error* outcome; it is a budget, so it must map
        to budget_exceeded like the KM budget does."""
        sc = _scenario(1, 1)
        config = VerifierConfig(
            km_budget=60_000, time_limit_seconds=60.0, max_summaries=1
        )
        outcome = execute_job(_job(sc, config))
        assert outcome.status == STATUS_BUDGET_EXCEEDED
        assert outcome.holds is None
        assert "summary memo limit" in outcome.error

    def test_store_install_respects_max_summaries(self):
        """Installing a persisted closure re-enforces the reader's own
        max_summaries — a permissive writer can't overflow a strict
        reader's memo."""
        sc = _scenario(6, 0)
        store = SummaryStore()
        execute_job(_job(sc), summary_store=store)
        strict = VerifierConfig(
            km_budget=60_000, time_limit_seconds=60.0, max_summaries=2
        )
        outcome = execute_job(_job(sc, strict), summary_store=store)
        assert outcome.status == STATUS_BUDGET_EXCEEDED

    def test_child_input_memo_cap_is_invisible(self, monkeypatch):
        """The memo is a pure cache: disabling it (limit 0) must not
        change the verdict or the exploration."""
        sc = _scenario(6, 0)
        default = Verifier(sc.has, CONFIG)
        r_default = default.verify(sc.prop)
        assert len(default._child_input_memo) > 0
        monkeypatch.setattr(engine, "CHILD_INPUT_MEMO_LIMIT", 0)
        capped = Verifier(sc.has, CONFIG)
        r_capped = capped.verify(sc.prop)
        assert len(capped._child_input_memo) == 0
        assert r_capped.holds == r_default.holds
        assert r_capped.stats.km_nodes == r_default.stats.km_nodes
        assert r_capped.stats.summaries == r_default.stats.summaries

    # the later deadline refuses after two child summaries completed
    @pytest.mark.parametrize(("limit", "memoized"), [(5, 0), (25, 2)])
    def test_deadline_refuses_with_partial_stats_and_a_sound_memo(
        self, monkeypatch, limit, memoized
    ):
        """The deadline surfaces as BudgetExceeded like every other limit:
        the refusal carries the states explored so far, every summary left
        in the memo is complete, and the same Verifier then verifies
        without the limit exactly as a fresh one does.  A clock that
        advances 1 s per read makes the refusal point deterministic."""
        sc = _scenario(6, 0)
        unlimited = replace(CONFIG, time_limit_seconds=None)
        fresh = Verifier(sc.has, unlimited)
        expected = fresh.verify(sc.prop)

        reads = itertools.count()
        monkeypatch.setattr(task_vass.time, "monotonic", lambda: float(next(reads)))
        verifier = Verifier(sc.has, replace(CONFIG, time_limit_seconds=limit))
        with pytest.raises(BudgetExceeded, match="time limit") as refusal:
            verifier.verify(sc.prop)
        monkeypatch.undo()
        assert refusal.value.states_explored > 0
        assert len(verifier._summaries) == memoized
        for key, summary in verifier._summaries.items():
            reference = fresh._summaries[key]
            assert list(summary.outputs) == list(reference.outputs)
            assert summary.nonreturning == reference.nonreturning
            assert summary.km_nodes == reference.km_nodes

        verifier.config = unlimited
        again = verifier.verify(sc.prop)
        assert again.holds == expected.holds
        assert again.witness_kind == expected.witness_kind
        assert again.loop_start == expected.loop_start
        assert again.witness == expected.witness


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_verify_summary_cache_warms_across_invocations(self, tmp_path, capsys):
        from repro.service.cli import main as cli_main

        cache = tmp_path / "summaries"
        args = ["verify", "travel-lite-fixed", "--time-limit", "60",
                "--summary-cache", str(cache), "--json"]
        assert cli_main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["stats"]["summaries_reused"] == 0
        assert any(cache.glob("*/*.json"))
        assert cli_main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["stats"]["summaries_reused"] == second["stats"]["summaries"] > 0
        assert second["status"] == first["status"] == "holds"
        assert second["km_nodes"] == first["km_nodes"]
