"""Process-level parallelism: sharded suites over flock-guarded caches.

The verifier runs one thread per process; a suite is spread across
processes with ``--workers N`` (the process pool) or ``--shard k/N``
(independent runs that share the on-disk caches). This file pins that
single-thread contract, which lets the engine's process-global caches
and registries go unlocked, and the two contracts the sharded path
rests on: the advisory ``flock`` on the on-disk result cache and
summary store keeps records intact under real multi-process
contention, and ``--shard k/N`` + ``--merge-jsonl`` reassemble a suite
report byte-identical to an unsharded run.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.examples.travel import discount_policy_property_lite, travel_lite
from repro.obs import trace
from repro.obs.progress import Heartbeat
from repro.perf.counters import COUNTERS
from repro.service.cache import ResultCache, SummaryStore, _advisory_write_lock
from repro.service.jobs import JobOutcome, VerificationJob
from repro.service.runner import (
    merge_shard_jsonl,
    parse_shard,
    run_batch,
    shard_jobs,
)
from repro.service.suites import build_suite
from repro.verifier import Verifier, VerifierConfig

REPO_ROOT = Path(__file__).parent.parent


# ----------------------------------------------------------------------
# one thread per process
# ----------------------------------------------------------------------
class TestSingleThreadedEngine:
    def test_verification_starts_no_thread(self, monkeypatch):
        """A traced verify with a listener attached (the ``--progress``
        path) and an in-process batch run start no thread: the phase
        timers, attribution context, interning maps and trace sink are
        only ever touched from the one thread of their process."""
        started: list[str] = []
        real_start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        heartbeat = Heartbeat(stream=io.StringIO())
        trace.add_listener(heartbeat)
        trace.start(io.StringIO())
        try:
            has = travel_lite(False)
            result = Verifier(has, VerifierConfig(km_budget=60_000)).verify(
                discount_policy_property_lite(has)
            )
        finally:
            trace.stop()
            trace.remove_listener(heartbeat)
        assert not result.holds
        report = run_batch(build_suite("quick"), workers=1)
        assert report.total == 4 and not report.errors
        assert started == []


# ----------------------------------------------------------------------
# advisory flock on the on-disk caches
# ----------------------------------------------------------------------
def _outcome(key: str) -> JobOutcome:
    return JobOutcome(
        name=f"job-{key[:8]}", key=key, status="holds", holds=True,
        km_nodes=7, summaries=3,
    )


_HAMMER_SCRIPT = """
import sys
from repro.service.cache import ResultCache, SummaryStore
from repro.service.jobs import JobOutcome

cache_dir, summary_dir, worker = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = ResultCache(cache_dir)
store = SummaryStore(summary_dir)
for i in range(25):
    shared = format(i, "064x")                 # every worker fights for these
    private = format(1000 + worker * 100 + i, "064x")
    for key in (shared, private):
        cache.put(key, JobOutcome(
            name=f"w{worker}-{i}", key=key, status="holds", holds=True,
            km_nodes=worker, summaries=i,
        ))
        store.put(key, {"worker": worker, "i": i, "payload": "y" * 256})
print(cache.lock_waits + store.lock_waits)
"""


class TestAdvisoryFileLock:
    def test_lock_waits_are_counted(self, tmp_path):
        """Deterministic contention: one thread camps on the lock while
        the main thread writes — the write must block, succeed, and count
        exactly the wait it experienced."""
        if __import__("importlib").util.find_spec("fcntl") is None:
            pytest.skip("no fcntl on this platform")
        cache = ResultCache(tmp_path)
        held = threading.Event()
        release = threading.Event()

        def camper():
            with _advisory_write_lock(cache):
                held.set()
                release.wait(timeout=5.0)

        thread = threading.Thread(target=camper)
        baseline_waits = COUNTERS.flock_waits
        thread.start()
        try:
            assert held.wait(timeout=5.0)
            timer = threading.Timer(0.2, release.set)
            timer.start()
            cache.put("ab" * 32, _outcome("ab" * 32))  # blocks until release
            timer.cancel()
        finally:
            release.set()
            thread.join()
        assert cache.lock_waits == 1
        assert COUNTERS.flock_waits == baseline_waits + 1
        assert cache.get("ab" * 32) is not None

    def test_uncontended_writes_never_wait(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(5):
            key = format(i, "064x")
            cache.put(key, _outcome(key))
        assert cache.lock_waits == 0

    @pytest.mark.slow
    def test_four_processes_hammer_one_cache_dir(self, tmp_path):
        """Multi-process contention: 4 processes write overlapping keys
        into one ResultCache and one SummaryStore concurrently;
        afterwards every record — shared and private — reads back and
        decodes clean."""
        cache_dir = tmp_path / "cache"
        summary_dir = tmp_path / "summaries"
        procs = [
            subprocess.Popen(
                [
                    sys.executable, "-c", _HAMMER_SCRIPT,
                    str(cache_dir), str(summary_dir), str(worker),
                ],
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": "0"},
                cwd=str(REPO_ROOT),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for worker in range(4)
        ]
        for proc in procs:
            stdout, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr
            assert int(stdout.strip()) >= 0  # lock_waits surfaced per process

        cache = ResultCache(cache_dir)
        store = SummaryStore(summary_dir)
        keys = [format(i, "064x") for i in range(25)] + [
            format(1000 + worker * 100 + i, "064x")
            for worker in range(4)
            for i in range(25)
        ]
        for key in keys:
            outcome = cache.get(key)
            assert outcome is not None, f"cache record {key[:8]} lost/corrupt"
            assert outcome.status == "holds"
            record = store.get(key)
            assert record is not None, f"summary record {key[:8]} lost/corrupt"
            assert record["payload"] == "y" * 256
        assert cache.misses == 0
        assert store.misses == 0


# ----------------------------------------------------------------------
# suite sharding + merge determinism
# ----------------------------------------------------------------------
class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("1/1") == (1, 1)
        assert parse_shard("2/4") == (2, 4)
        for bad in ("", "3", "0/4", "5/4", "a/b", "2/0", "-1/4", "1/4/2"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_shards_partition_the_suite(self):
        jobs = build_suite("gallery")
        shards = [shard_jobs(jobs, k, 3) for k in (1, 2, 3)]
        # disjoint + covering, order preserved inside each shard
        assert sum(len(shard) for shard in shards) == len(jobs)
        merged = sorted(
            (job for shard in shards for job in shard),
            key=lambda job: jobs.index(job),
        )
        assert merged == list(jobs)
        for shard in shards:
            indices = [jobs.index(job) for job in shard]
            assert indices == sorted(indices)
        # deterministic: same spec, same split
        assert [job.name for job in shard_jobs(jobs, 2, 3)] == [
            job.name for job in shards[1]
        ]
        # single shard is the identity
        assert shard_jobs(jobs, 1, 1) == list(jobs)

    def test_shard_assignment_is_content_keyed(self):
        jobs = build_suite("quick")
        for job in jobs:
            owner = int(job.key(), 16) % 3 + 1
            for index in (1, 2, 3):
                members = shard_jobs(jobs, index, 3)
                assert (job in members) == (index == owner)

    @pytest.mark.slow
    def test_sharded_merge_is_byte_identical_to_unsharded(self, tmp_path):
        """The headline sharding contract: 3 shard runs against a shared
        cache + summary store, merged, must reproduce the unsharded
        run's per-job semantic bytes in suite order — and again when the
        shared summary store is pre-warmed."""
        jobs = build_suite("quick")
        unsharded = run_batch(
            jobs,
            cache=ResultCache(tmp_path / "unsharded-cache"),
            summary_store=SummaryStore(tmp_path / "unsharded-summaries"),
        )
        expected = [outcome.semantic_bytes() for outcome in unsharded.outcomes]

        def run_shards(tag: str, summary_dir: Path) -> list[Path]:
            shared_cache = ResultCache(tmp_path / f"{tag}-cache")
            store = SummaryStore(summary_dir)
            paths = []
            for index in (1, 2, 3):
                report = run_batch(
                    shard_jobs(jobs, index, 3),
                    cache=shared_cache,
                    summary_store=store,
                )
                path = tmp_path / f"{tag}-shard-{index}.jsonl"
                report.to_jsonl(path)
                paths.append(path)
            return paths

        merged = merge_shard_jsonl(jobs, run_shards("cold", tmp_path / "s1"))
        assert [o.semantic_bytes() for o in merged.outcomes] == expected
        assert [o.name for o in merged.outcomes] == [job.name for job in jobs]
        # aggregates derived from semantic fields must agree too
        assert merged.violations == unsharded.violations
        assert merged.errors == unsharded.errors
        assert merged.merged_stats().km_nodes == unsharded.merged_stats().km_nodes

        # pre-warmed shared summary store: reuse must stay invisible
        warmed = merge_shard_jsonl(jobs, run_shards("warm", tmp_path / "s1"))
        assert [o.semantic_bytes() for o in warmed.outcomes] == expected

    def test_merge_rejects_incomplete_and_foreign_shards(self, tmp_path):
        jobs = build_suite("quick")
        shard_one = shard_jobs(jobs, 1, 2)
        report = run_batch(shard_one)
        path = tmp_path / "shard-1.jsonl"
        report.to_jsonl(path)
        if len(shard_one) < len(jobs):
            with pytest.raises(ValueError, match="incomplete"):
                merge_shard_jsonl(jobs, [path])
        # records that belong to no job in the merged suite are an error:
        # merge everything except the last shard job, leaving its record over
        with pytest.raises(ValueError, match="different suite"):
            merge_shard_jsonl(shard_one[:-1], [path])

    def test_merge_preserves_duplicate_key_order(self, tmp_path):
        """Jobs sharing a content key land on one shard and their records
        are consumed in occurrence order, so per-request provenance
        (names, expectations) survives the merge."""
        has = travel_lite(True)
        prop = discount_policy_property_lite(has)
        twins = [
            VerificationJob(has=has, prop=prop, name="first-twin"),
            VerificationJob(has=has, prop=prop, name="second-twin"),
        ]
        report = run_batch(twins, cache=ResultCache(tmp_path / "cache"))
        path = tmp_path / "twins.jsonl"
        report.to_jsonl(path)
        merged = merge_shard_jsonl(twins, [path])
        assert [o.name for o in merged.outcomes] == ["first-twin", "second-twin"]

    @pytest.mark.slow
    def test_cli_shard_merge_round_trip(self, tmp_path):
        """End-to-end through ``python -m repro``: two shard runs with a
        shared cache/summary store, merged with --merge-jsonl, match an
        unsharded CLI run's semantic JSONL bytes."""
        env = {"PYTHONPATH": "src", "PYTHONHASHSEED": "0"}

        def cli(*argv: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                capture_output=True,
                text=True,
                env=env,
                cwd=str(REPO_ROOT),
            )

        plain = cli("suite", "quick", "--jsonl", str(tmp_path / "plain.jsonl"))
        assert plain.returncode == 0, plain.stderr + plain.stdout
        for index in (1, 2):
            result = cli(
                "suite", "quick",
                "--shard", f"{index}/2",
                "--cache-dir", str(tmp_path / "cache"),
                "--summary-cache", str(tmp_path / "summaries"),
                "--jsonl", str(tmp_path / f"shard-{index}.jsonl"),
            )
            assert result.returncode == 0, result.stderr + result.stdout
            assert f"shard {index}/2" in result.stdout
        merged = cli(
            "suite", "quick",
            "--merge-jsonl",
            str(tmp_path / "shard-1.jsonl"), str(tmp_path / "shard-2.jsonl"),
            "--jsonl", str(tmp_path / "merged.jsonl"),
        )
        assert merged.returncode == 0, merged.stderr + merged.stdout
        assert "merged 4 outcomes from 2 shard file(s)" in merged.stdout

        def semantic_lines(path: Path) -> list[str]:
            lines = []
            for line in path.read_text().splitlines():
                data = json.loads(line)
                if data.get("aggregate"):
                    continue
                lines.append(
                    json.dumps(
                        JobOutcome.from_dict(data).semantic_dict(),
                        sort_keys=True,
                    )
                )
            return lines

        assert semantic_lines(tmp_path / "merged.jsonl") == semantic_lines(
            tmp_path / "plain.jsonl"
        )

    def test_shard_and_merge_are_mutually_exclusive(self):
        from repro.service.cli import main as cli_main

        with pytest.raises(SystemExit):
            cli_main(
                ["suite", "quick", "--shard", "1/2", "--merge-jsonl", "x.jsonl"]
            )
