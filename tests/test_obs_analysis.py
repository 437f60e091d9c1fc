"""The analysis layer on top of the trace substrate: search-cost
attribution and the Chrome trace-event export.

The attribution contract mirrors the tracer's: always on, semantically
invisible (A/B-tested with the registry disabled), and — minus its
seconds fields — deterministic across runs and PYTHONHASHSEED values.
The exporter is a pure function of the parsed event list, so a golden
file in ``tests/golden/`` pins its exact output bytes.
"""

from __future__ import annotations

import io
import itertools
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.examples.travel import discount_policy_property_lite, travel_lite
from repro.obs import metrics, trace
from repro.obs.attribution import ATTRIBUTION, UNATTRIBUTED, AttributionRegistry
from repro.obs.export import MAIN_PID, WORKERS_PID, export_trace, to_chrome
from repro.obs.report import load_events, render, scrub_event, summarize
from repro.perf.phases import PhaseTimers
from repro.service.jobs import VerificationJob
from repro.verifier.config import VerifierConfig

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def _tracer_off():
    """Every test starts and ends with the tracer inactive."""
    trace.stop()
    yield
    trace.stop()


def _tag(task, service):
    """A StepTag-shaped object (duck typing is the registry's contract)."""
    return SimpleNamespace(task=task, service=service)


def _lite_job(name="lite"):
    has = travel_lite(False)
    return VerificationJob(
        has=has,
        prop=discount_policy_property_lite(has),
        config=VerifierConfig(km_budget=60_000),
        name=name,
    )


# ======================================================================
# the attribution registry (unit)
# ======================================================================
class TestAttributionRegistry:
    def test_expansions_and_successors_by_key(self):
        reg = AttributionRegistry()
        reg.record_expansion(_tag("T", "T.svc"), depth=2)
        reg.record_expansion(_tag("T", "T.svc"), depth=4)
        reg.record_successor(_tag("T", "T.svc"))
        reg.record_expansion(None, depth=0)  # root node: no tag
        snap = reg.snapshot()
        assert set(snap) == {"'T.svc'", UNATTRIBUTED[1]}
        entry = snap["'T.svc'"]
        assert entry["task"] == "T"
        assert entry["expansions"] == 2
        assert entry["successors"] == 1
        assert entry["depth_sum"] == 6
        assert snap[UNATTRIBUTED[1]]["expansions"] == 1

    def test_foreign_tags_fall_into_unattributed(self):
        reg = AttributionRegistry()
        reg.record_expansion("opaque string tag", depth=1)
        reg.record_expansion(SimpleNamespace(task="T"), depth=1)  # no service
        assert set(reg.snapshot()) == {UNATTRIBUTED[1]}
        assert reg.snapshot()[UNATTRIBUTED[1]]["expansions"] == 2

    def test_snapshot_keys_sorted(self):
        reg = AttributionRegistry()
        for service in ("zz", "aa", "mm"):
            reg.record_expansion(_tag("T", service), depth=0)
        assert list(reg.snapshot()) == ["'aa'", "'mm'", "'zz'"]

    def test_phase_samples_credited_to_context(self):
        reg = AttributionRegistry()
        reg._on_phase("fm", 0.5)  # no context: dropped
        reg.set_context("T", "T.svc")
        reg._on_phase("fm", 0.25)
        reg._on_phase("canon", 0.125)
        reg._on_phase("expand", 9.0)  # only fm/canon are credited
        reg.clear_context()
        reg._on_phase("fm", 0.5)  # context cleared: dropped
        (entry,) = reg.snapshot().values()
        assert entry["fm_seconds"] == pytest.approx(0.25)
        assert entry["canon_seconds"] == pytest.approx(0.125)

    def test_every_activation_credited(self, monkeypatch):
        """The cell holds the exact total: with a clock that advances 1
        per read, 1,000 fm activations credit 1,000 seconds."""
        monkeypatch.setattr(
            "repro.perf.phases.perf_counter", itertools.count().__next__
        )
        reg = AttributionRegistry()
        timers = PhaseTimers()
        timers.observer = reg._on_phase
        reg.set_context("T", "T.svc")
        for _ in range(1000):
            timers.end("fm", timers.begin("fm"))
        (entry,) = reg.snapshot().values()
        assert entry["fm_seconds"] == 1000
        assert timers.snapshot()["fm"] == {"calls": 1000, "seconds": 1000}

    def test_disabled_registry_records_nothing(self):
        reg = AttributionRegistry()
        reg.enabled = False
        reg.record_expansion(_tag("T", "s"), depth=1)
        reg.record_successor(_tag("T", "s"))
        reg.set_context("T", "s")
        reg._on_phase("fm", 1.0)
        assert reg.snapshot() == {}

    def test_since_reports_deltas_and_drops_idle_rows(self):
        reg = AttributionRegistry()
        reg.record_expansion(_tag("A", "a"), depth=1)
        reg.record_expansion(_tag("B", "b"), depth=1)
        baseline = reg.snapshot()
        reg.record_expansion(_tag("B", "b"), depth=3)
        delta = metrics.delta(reg.snapshot(), baseline)
        assert list(delta) == ["'b'"]  # 'a' saw no activity in the window
        assert delta["'b'"]["expansions"] == 1
        assert delta["'b'"]["depth_sum"] == 3
        assert delta["'b'"]["task"] == "B"

    def test_scrub_drops_sampled_seconds_keeps_counts(self):
        record = {
            "ev": "job_finish",
            "attribution": {
                "'s'": {
                    "task": "T", "expansions": 5, "successors": 7,
                    "depth_sum": 9, "fm_seconds": 0.1, "canon_seconds": 0.2,
                }
            },
        }
        scrubbed = scrub_event(record)
        entry = scrubbed["attribution"]["'s'"]
        assert entry == {
            "task": "T", "expansions": 5, "successors": 7, "depth_sum": 9,
        }


# ======================================================================
# attribution end to end: the ≥95% bar and the invisibility A/B
# ======================================================================
def _semantic_outcome(job):
    from repro.service.pool import execute_job

    outcome = execute_job(job)
    return outcome.semantic_bytes(), outcome.key


def _gallery_job():
    from repro.dsl import load_document

    gallery = (
        Path(__file__).parent.parent
        / "src" / "repro" / "workloads" / "gallery"
    )
    doc = load_document(gallery / "library_loans.has")
    return doc.jobs(default_config=VerifierConfig(km_budget=60_000))[0]


def _traced_job_finish(make_job):
    # start cold: node serials restart per store, so global cache entries
    # left by earlier tests can collide and legitimately short-circuit
    # parts of the exploration, shrinking the expansion counts this
    # helper measures (same cold-start rule as repro.perf.bench)
    from repro.arith import fm
    from repro.symbolic import store as symbolic_store

    fm.clear_caches()
    symbolic_store.clear_canonical_caches()
    sink = io.StringIO()
    trace.start(sink)
    try:
        _semantic_outcome(make_job())
    finally:
        trace.stop()
    events = [json.loads(line) for line in sink.getvalue().splitlines()]
    return next(e for e in events if e["ev"] == "job_finish")


class TestAttributionEndToEnd:
    def test_travel_lite_attribution_share(self):
        """The acceptance bar: ≥95% of expansions attributed to named
        (task, service) pairs; the remainder are exploration roots."""
        attribution = _traced_job_finish(_lite_job)["attribution"]
        total = sum(e["expansions"] for e in attribution.values())
        unattributed = attribution.get(UNATTRIBUTED[1], {}).get("expansions", 0)
        assert total > 0
        assert (total - unattributed) / total >= 0.95
        for label, entry in attribution.items():
            if label != UNATTRIBUTED[1]:
                assert entry["task"], f"attributed row {label} names no task"

    def test_attribution_counts_deterministic_across_runs(self):
        """Expansion/successor/depth counts never depend on timing; only
        the seconds channels carry wall-clock noise."""

        def counts(finish):
            return {
                label: (e["task"], e["expansions"], e["successors"],
                        e["depth_sum"])
                for label, e in finish["attribution"].items()
            }

        first = counts(_traced_job_finish(_lite_job))
        second = counts(_traced_job_finish(_lite_job))
        assert first == second and first

    @pytest.mark.parametrize(
        "make_job", [_lite_job, _gallery_job], ids=["travel-lite", "gallery"]
    )
    def test_disabled_registry_parity(self, make_job):
        """The A/B contract for the new instrumentation: verdict, witness,
        KM counts, job hash, and semantic bytes are byte-identical with
        the attribution registry on or off."""
        enabled, key_on = _semantic_outcome(make_job())
        ATTRIBUTION.enabled = False
        try:
            disabled, key_off = _semantic_outcome(make_job())
        finally:
            ATTRIBUTION.enabled = True
        assert key_off == key_on
        assert disabled == enabled

    def test_report_renders_hotspot_table(self):
        finish = _traced_job_finish(_lite_job)
        summary = summarize([finish])
        text = render(summary)
        assert "search hotspots (by construct):" in text
        assert "attributed" in text and "(task, service) pairs" in text


_ATTR_SCRIPT = """\
import io, json
from repro.examples.travel import travel_lite, discount_policy_property_lite
from repro.obs import trace
from repro.obs.report import scrub_event
from repro.service.jobs import VerificationJob
from repro.service.pool import execute_job
from repro.verifier.config import VerifierConfig

sink = io.StringIO()
trace.start(sink)
has = travel_lite(False)
job = VerificationJob(
    has=has,
    prop=discount_policy_property_lite(has),
    config=VerifierConfig(km_budget=60_000),
    name="lite",
)
execute_job(job)
trace.stop()
for line in sink.getvalue().splitlines():
    record = json.loads(line)
    if record.get("ev") == "job_finish":
        print(json.dumps(scrub_event(record)["attribution"], sort_keys=True))
"""


@pytest.mark.slow
def test_attribution_is_hash_seed_independent():
    """The scrubbed attribution table (labels, counts, depths —
    everything but raw seconds) is byte-stable across PYTHONHASHSEED
    values."""
    outputs = set()
    for seed in ("0", "1", "4242"):
        result = subprocess.run(
            [sys.executable, "-c", _ATTR_SCRIPT],
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": seed, "PYTHONPATH": "src"},
            cwd=str(Path(__file__).parent.parent),
            check=True,
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1, "hash-seed-dependent attribution table"


# ======================================================================
# the Chrome export: synthetic traces with fixed timestamps
# ======================================================================
def _synthetic_serial_events():
    """A two-job serial suite with nested spans and fixed times — the
    golden-file fixture (regenerate with ``tests/golden/regen.py``).
    Its phase and attribution rows keep an older trace layout (``timed``,
    ``*_sampled_seconds``): the export copies record fields it does not
    map into ``args`` untouched, so they pin only that losslessness."""
    return [
        {"ev": "suite_start", "t": 0.0, "total": 2, "workers": 1},
        {"ev": "job_start", "t": 0.05, "name": "alpha", "key": "k-alpha"},
        {"ev": "span", "t": 0.1, "dur": 0.2, "name": "explore",
         "what": "root search", "km_nodes": 1000},
        {"ev": "km_progress", "t": 0.3, "label": "root search",
         "nodes": 1000, "frontier": 40},
        {"ev": "span", "t": 0.06, "dur": 0.4, "name": "verify",
         "property": "p1",
         "phases": {"expand": {"calls": 10, "timed": 10, "seconds": 0.3},
                    "fm": {"calls": 100, "timed": 20, "seconds": 0.04}}},
        {"ev": "job_finish", "t": 0.5, "name": "alpha", "key": "k-alpha",
         "status": "holds", "km_nodes": 1000, "wall_seconds": 0.45,
         "total_seconds": 0.45,
         "phases": {"expand": {"calls": 10, "timed": 10, "seconds": 0.3},
                    "fm": {"calls": 100, "timed": 20, "seconds": 0.04}},
         "attribution": {"'T.s'": {"task": "T", "expansions": 990,
                                   "successors": 1200, "depth_sum": 5000,
                                   "fm_sampled_seconds": 0.01,
                                   "fm_samples": 20,
                                   "canon_sampled_seconds": 0.0,
                                   "canon_samples": 0}}},
        {"ev": "job_start", "t": 0.55, "name": "beta", "key": "k-beta"},
        {"ev": "job_finish", "t": 0.9, "name": "beta", "key": "k-beta",
         "status": "violated", "km_nodes": 300, "wall_seconds": 0.35,
         "total_seconds": 0.35},
        {"ev": "suite_done", "t": 0.95, "total": 2, "cache_hits": 0,
         "violations": 1, "budget_exceeded": 0, "errors": 0,
         "wall_seconds": 0.9},
    ]


def _synthetic_parallel_events():
    """A two-worker suite: job starts never reach the parent's trace, so
    lanes are reconstructed from submit/finish intervals."""
    return [
        {"ev": "suite_start", "t": 0.0, "total": 2, "workers": 2},
        {"ev": "job_submit", "t": 0.01, "name": "alpha", "key": "k-alpha"},
        {"ev": "job_submit", "t": 0.02, "name": "beta", "key": "k-beta"},
        {"ev": "job_finish", "t": 0.61, "name": "alpha", "key": "k-alpha",
         "status": "holds", "km_nodes": 10, "wall_seconds": 0.58,
         "total_seconds": 0.58},
        {"ev": "job_finish", "t": 0.66, "name": "beta", "key": "k-beta",
         "status": "holds", "km_nodes": 12, "wall_seconds": 0.62,
         "total_seconds": 0.62},
        {"ev": "suite_done", "t": 0.7, "total": 2, "cache_hits": 0,
         "violations": 0, "budget_exceeded": 0, "errors": 0,
         "wall_seconds": 0.7},
    ]


class TestChromeExport:
    def test_structure_and_monotonic_timestamps(self):
        document = to_chrome(_synthetic_serial_events())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        timed = [e for e in events if e["ph"] != "M"]
        # metadata first, then the timed events in timestamp order
        assert events[: len(meta)] == meta
        assert all(isinstance(e["ts"], int) for e in timed)
        assert [e["ts"] for e in timed] == sorted(e["ts"] for e in timed)
        names = {e["name"] for e in timed if e["ph"] == "X"}
        assert {"verify", "explore", "alpha", "beta"} <= names
        assert all(e["pid"] == MAIN_PID for e in timed)  # serial: one track
        spans = {e["name"]: e for e in timed if e["ph"] == "X"}
        assert isinstance(spans["verify"]["dur"], int)
        # instants carry scope "t" and their record fields under args
        instants = {e["name"]: e for e in timed if e["ph"] == "i"}
        assert {"suite_start", "km_progress", "suite_done"} <= set(instants)
        assert instants["km_progress"]["s"] == "t"
        assert instants["km_progress"]["args"]["nodes"] == 1000

    def test_lossless_args(self):
        """Every field the mapping doesn't consume rides along in args."""
        document = to_chrome(_synthetic_serial_events())
        alpha = next(
            e for e in document["traceEvents"]
            if e.get("cat") == "job" and e["name"] == "alpha"
        )
        assert alpha["args"]["status"] == "holds"
        assert alpha["args"]["km_nodes"] == 1000
        assert alpha["args"]["attribution"]["'T.s'"]["expansions"] == 990

    def test_worker_lane_mapping(self):
        document = to_chrome(_synthetic_parallel_events())
        events = document["traceEvents"]
        jobs = [e for e in events if e.get("cat") == "job"]
        assert all(e["pid"] == WORKERS_PID for e in jobs)
        # the intervals overlap, so the two jobs land on distinct lanes
        assert {e["tid"] for e in jobs} == {1, 2}
        lanes = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
            and e["pid"] == WORKERS_PID
        }
        assert lanes == {1: "worker lane 1", 2: "worker lane 2"}
        process = next(
            e for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
            and e["pid"] == WORKERS_PID
        )
        assert process["args"]["name"] == "repro workers"
        # reconstructed starts: finish.t - total_seconds, clamped to submit
        alpha = next(e for e in jobs if e["name"] == "alpha")
        assert alpha["ts"] == 30_000  # max(0.61 - 0.58, 0.01) = 0.03 s
        assert alpha["dur"] == 580_000

    def test_golden_file(self, tmp_path):
        out = tmp_path / "trace.chrome.json"
        export_trace(_synthetic_serial_events(), out)
        golden = GOLDEN / "trace_serial.chrome.json"
        assert out.read_text() == golden.read_text()


# ======================================================================
# CLI: the report flags end to end
# ======================================================================
class TestCliAnalysis:
    def _main(self, argv, capsys):
        from repro.service.cli import main

        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def _trace(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        code, _out, _err = self._main(
            ["verify", "travel-lite-fixed", "--trace", str(path)], capsys
        )
        assert code == 0
        return path

    def test_report_shows_hotspots(self, tmp_path, capsys):
        trace_path = self._trace(tmp_path, capsys)
        code, out, _err = self._main(["report", str(trace_path)], capsys)
        assert code == 0
        assert "search hotspots (by construct):" in out
        code, out, _err = self._main(
            ["report", str(trace_path), "--json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        total = sum(
            e["expansions"] for e in data["attribution"].values()
        )
        assert total > 0

    def test_chrome_export_roundtrip(self, tmp_path, capsys):
        trace_path = self._trace(tmp_path, capsys)
        chrome = tmp_path / "trace.chrome.json"
        code, out, _err = self._main(
            ["report", str(trace_path), "--chrome", str(chrome)], capsys
        )
        assert code == 0
        assert f"chrome export written to {chrome}" in out
        document = json.loads(chrome.read_text())
        assert any(e["ph"] == "X" for e in document["traceEvents"])
        assert chrome.read_text() == (
            json.dumps(to_chrome(load_events(trace_path)), sort_keys=True) + "\n"
        )

    def test_flag_validation(self, tmp_path, capsys):
        code, _out, err = self._main(["report"], capsys)
        assert code == 2
        assert "FILE.jsonl" in err  # the trace argument is required
        trace_path = tmp_path / "t.jsonl"
        trace_path.write_text('{"ev": "suite_start", "t": 0.0}\n')
        for removed in (["--export", "chrome"], ["--history", "h"]):
            code, _out, _err = self._main(
                ["report", str(trace_path), *removed], capsys
            )
            assert code == 2, removed

    def test_unwritable_trace_exits_2(self, tmp_path, capsys):
        target = tmp_path / "no_such_dir" / "t.jsonl"
        code, _out, err = self._main(
            ["verify", "travel-lite-fixed", "--trace", str(target)], capsys
        )
        assert code == 2
        assert "cannot write trace" in err

    def test_export_write_failure_exits_2(self, tmp_path, capsys):
        trace_path = self._trace(tmp_path, capsys)
        code, _out, err = self._main(
            ["report", str(trace_path),
             "--chrome", str(tmp_path / "no_such_dir" / "out.json")],
            capsys,
        )
        assert code == 2
        assert "cannot write export" in err
