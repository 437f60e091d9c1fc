"""Process-level parallelism: one thread per process, and the ``flock``
under concurrent writers.

The verifier runs one thread per process; a suite is spread across
processes with ``--workers N`` (the process pool). This file pins that
single-thread contract, which lets the engine's process-global caches
and registries go unlocked, and the advisory ``flock`` on the on-disk
result cache and summary store, which keeps records intact when several
processes write one cache directory at once.
"""

from __future__ import annotations

import io
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
from repro.service.jobs import JobOutcome
from repro.service.runner import run_batch
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
