"""The observability stack: tracer, phase timers, heartbeat, report —
and the contract that makes them safe to leave on: **instrumentation is
observationally invisible**.  Verdicts, witnesses, KM node counts, job
hashes, and semantic outcome bytes must be byte-identical with tracing
on or off (A/B-tested here), and the trace itself — minus its timing
fields — must be deterministic across PYTHONHASHSEED values (pinned by
a subprocess test, same scheme as ``tests/test_perf.py``)."""

from __future__ import annotations

import io
import itertools
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.examples.travel import discount_policy_property_lite, travel_lite
from repro.obs import metrics, trace
from repro.obs.attribution import AttributionRegistry
from repro.obs.progress import Heartbeat
from repro.obs.report import load_events, render, scrub_event, summarize
from repro.perf.counters import PerfCounters
from repro.perf.phases import PhaseTimers
from repro.service.jobs import JobOutcome, VerificationJob
from repro.service.runner import run_batch
from repro.verifier.config import VerifierConfig
from repro.verifier.engine import Verifier
from repro.verifier.result import VerificationStats

GALLERY = (
    Path(__file__).parent.parent
    / "src"
    / "repro"
    / "workloads"
    / "gallery"
)


@pytest.fixture(autouse=True)
def _tracer_off():
    """Every test starts and ends with the tracer inactive."""
    trace.stop()
    yield
    trace.stop()


# ======================================================================
# the tracer itself
# ======================================================================
class TestTracer:
    def test_off_by_default(self):
        assert not trace.enabled()
        trace.event("noise", x=1)  # must be a silent no-op

    def test_events_and_spans_to_sink(self):
        sink = io.StringIO()
        trace.start(sink)
        assert trace.enabled()
        trace.event("ping", n=7)
        with trace.span("work", what="test") as extra:
            extra["result"] = "ok"
        trace.stop()
        assert not trace.enabled()
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert [r["ev"] for r in records] == ["ping", "span"]
        assert records[0]["n"] == 7
        assert records[0]["t"] >= 0
        assert records[1]["name"] == "work"
        assert records[1]["what"] == "test"
        assert records[1]["result"] == "ok"
        assert records[1]["dur"] >= 0

    def test_span_records_error_and_reraises(self):
        sink = io.StringIO()
        trace.start(sink)
        with pytest.raises(ValueError):
            with trace.span("boom"):
                raise ValueError("no")
        trace.stop()
        (record,) = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert record["name"] == "boom"
        assert record["error"] == "ValueError"

    def test_span_noop_when_disabled(self):
        with trace.span("quiet") as extra:
            extra["anything"] = 1  # accepted, discarded

    def test_file_sink_owned_and_closed(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.start(path)
        trace.event("one")
        trace.stop()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["ev"] for r in records] == ["one"]

    def test_listener_receives_records_and_errors_are_swallowed(self):
        seen = []

        def bad_listener(record):
            raise RuntimeError("listener bug")

        trace.add_listener(bad_listener)
        trace.add_listener(seen.append)
        try:
            trace.start(None)  # listener-only trace
            trace.event("hello", k=1)
            trace.stop()
        finally:
            trace.remove_listener(bad_listener)
            trace.remove_listener(seen.append)
        assert len(seen) == 1 and seen[0]["ev"] == "hello"

    def test_fork_guard_pid(self, monkeypatch):
        trace.start(io.StringIO())
        assert trace.enabled()
        monkeypatch.setattr(
            "repro.obs.trace._STATE.pid", 999_999_999, raising=True
        )
        assert not trace.enabled()  # a "forked child" must stay silent


# ======================================================================
# phase timers
# ======================================================================
def _tick_clock(monkeypatch) -> None:
    """Replace the phase timers' clock with one that advances 1 per read,
    so every timed begin/end pair measures exactly one second."""
    monkeypatch.setattr(
        "repro.perf.phases.perf_counter", itertools.count().__next__
    )


class TestPhaseTimers:
    def test_basic_accounting(self):
        timers = PhaseTimers()
        token = timers.begin("fm")
        timers.end("fm", token)
        snap = timers.snapshot()
        assert set(snap["fm"]) == {"calls", "seconds"}
        assert snap["fm"]["calls"] == 1
        assert snap["fm"]["seconds"] >= 0

    def test_nested_activations_count_once(self, monkeypatch):
        _tick_clock(monkeypatch)
        timers = PhaseTimers()
        outer = timers.begin("expand")
        inner = timers.begin("expand")
        assert inner is None  # nested: not counted, not timed
        timers.end("expand", inner)
        timers.end("expand", outer)
        assert timers.snapshot()["expand"] == {"calls": 1, "seconds": 1}

    def test_every_activation_is_timed(self, monkeypatch):
        _tick_clock(monkeypatch)
        timers = PhaseTimers()
        for _ in range(1000):
            timers.end("canon", timers.begin("canon"))
        assert timers.snapshot()["canon"] == {"calls": 1000, "seconds": 1000}

    def test_since_reports_deltas_only(self, monkeypatch):
        _tick_clock(monkeypatch)
        timers = PhaseTimers()
        for name in ("fm", "expand"):
            timers.end(name, timers.begin(name))
        baseline = timers.snapshot()
        for name in ("fm", "canon"):
            timers.end(name, timers.begin(name))
        delta = metrics.delta(timers.snapshot(), baseline)
        assert set(delta) == {"fm", "canon"}  # expand idle: dropped
        assert delta["fm"] == {"calls": 1, "seconds": 1}


# ======================================================================
# scrubbing + report
# ======================================================================
class TestReport:
    def test_scrub_strips_timing_recursively(self):
        record = {
            "ev": "job_finish",
            "t": 1.5,
            "dur": 0.2,
            "wall_seconds": 0.2,
            "total_seconds": 0.21,
            "phases": {"fm": {"seconds": 0.1}},
            "rates": {"fm_sat": 0.5},
            "counters": {"fm_sat_hits": 3, "nested": {"x_seconds": 1}},
            "km_nodes": 42,
        }
        assert scrub_event(record) == {
            "ev": "job_finish",
            "counters": {"fm_sat_hits": 3, "nested": {}},
            "km_nodes": 42,
        }

    def test_load_events_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ev": "ok"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_events(path)
        path.write_text('{"no_ev_key": 1}\n')
        with pytest.raises(ValueError, match="not a trace record"):
            load_events(path)

    def test_summarize_and_breakdown_sum_to_wall(self):
        events = [
            {
                "ev": "job_finish",
                "name": "j1",
                "status": "holds",
                "km_nodes": 10,
                "total_seconds": 2.0,
                "phases": {
                    "fm": {"calls": 4, "seconds": 0.5},
                    "expand": {"calls": 1, "seconds": 1.5},
                },
                "counters": {"fm_sat_hits": 8, "fm_sat_misses": 2},
            },
            {
                "ev": "job_finish",
                "name": "j2",
                "status": "violated",
                "km_nodes": 20,
                "total_seconds": 1.0,
                "phases": {"fm": {"calls": 2, "seconds": 0.25}},
                "counters": {"fm_sat_hits": 2, "fm_sat_misses": 3},
            },
        ]
        summary = summarize(events)
        assert len(summary.jobs) == 2
        assert summary.wall_seconds == pytest.approx(3.0)
        assert summary.counters == {"fm_sat_hits": 10, "fm_sat_misses": 5}
        rows = summary.phase_breakdown()
        assert sum(seconds for _l, seconds, _c in rows) == pytest.approx(
            summary.wall_seconds
        )
        by_label = {label: seconds for label, seconds, _c in rows}
        assert by_label["fm"] == pytest.approx(0.75)
        # expand exclusive of nested fm/canon: 1.5 - 0.75 - 0
        assert by_label["expand (excl. fm/canon)"] == pytest.approx(0.75)
        text = render(summary)
        assert "per-phase time breakdown" in text
        assert "fm_sat" in text

    def test_summarize_falls_back_to_verify_spans(self):
        events = [
            {
                "ev": "span",
                "name": "verify",
                "dur": 4.0,
                "phases": {"fm": {"calls": 1, "seconds": 1.0}},
            }
        ]
        summary = summarize(events)
        assert summary.jobs == []
        assert summary.wall_seconds == pytest.approx(4.0)
        assert summary.phases["fm"]["seconds"] == pytest.approx(1.0)

    def test_rates_none_renders_na(self):
        rates = PerfCounters.rates({})
        assert all(rate is None for rate in rates.values())
        rates = PerfCounters.rates({"fm_sat_hits": 1, "fm_sat_misses": 1})
        assert rates["fm_sat"] == pytest.approx(0.5)
        assert rates["summary"] is None
        summary = summarize(
            [
                {
                    "ev": "job_finish",
                    "name": "j",
                    "total_seconds": 1.0,
                    "counters": {"fm_sat_hits": 0, "fm_sat_misses": 0},
                }
            ]
        )
        assert "n/a" in render(summary)


# ======================================================================
# heartbeat
# ======================================================================
class TestHeartbeat:
    def test_job_lines_and_throttled_progress(self):
        out = io.StringIO()
        beat = Heartbeat(stream=out, interval=1.0)
        beat({"ev": "job_start", "name": "jobA", "t": 0.0})
        beat({"ev": "km_progress", "t": 0.5, "label": "root", "nodes": 5})
        beat(
            {"ev": "km_progress", "t": 1.5, "label": "root", "nodes": 9,
             "frontier": 2}
        )
        beat(
            {"ev": "job_finish", "name": "jobA", "status": "holds",
             "km_nodes": 9, "wall_seconds": 1.6}
        )
        lines = out.getvalue().splitlines()
        assert lines[0] == "→ jobA"
        # t=0.5 throttled (within interval of job_start), t=1.5 printed
        assert len(lines) == 3
        assert "jobA · root" in lines[1] and "nodes=9" in lines[1]
        assert "frontier=2" in lines[1]
        assert lines[2] == "  jobA: holds km=9 1.6s"

    def test_parallel_jobs_keyed_not_mislabeled(self):
        """Under --workers N many jobs are in flight at once; finish
        lines must carry each job's own name (looked up by content key),
        a [k/N] suite counter, and a final suite summary."""
        out = io.StringIO()
        beat = Heartbeat(stream=out, interval=1.0)
        beat({"ev": "suite_start", "t": 0.0, "total": 3, "workers": 2})
        # submits are queued, not running: registered silently, no → line
        beat({"ev": "job_submit", "t": 0.01, "name": "a", "key": "ka"})
        beat({"ev": "job_submit", "t": 0.01, "name": "b", "key": "kb"})
        beat({"ev": "job_finish", "t": 0.5, "name": "b", "key": "kb",
              "status": "holds", "km_nodes": 5, "wall_seconds": 0.4})
        beat({"ev": "job_finish", "t": 0.6, "name": "a", "key": "ka",
              "status": "violated", "km_nodes": 7, "wall_seconds": 0.5})
        beat({"ev": "suite_done", "t": 0.7, "total": 3, "cache_hits": 1,
              "violations": 1, "budget_exceeded": 0, "errors": 0,
              "wall_seconds": 0.7})
        lines = out.getvalue().splitlines()
        assert lines[0] == "  b: holds km=5 0.4s  [1/3]"
        assert lines[1] == "  a: violated km=7 0.5s  [2/3]"
        assert lines[2] == (
            "suite done: 3 jobs · 1 cached · 1 violated"
            " · 0 over budget · 0 errors · 0.7s"
        )


# ======================================================================
# stats / outcome plumbing
# ======================================================================
class TestStatsPlumbing:
    def test_stats_to_dict_and_merge(self):
        a = VerificationStats(km_nodes=1, summaries=2, wall_seconds=0.5)
        b = VerificationStats(km_nodes=2, summaries=1, wall_seconds=0.25)
        a.merge(b)
        assert (a.km_nodes, a.summaries) == (3, 3)
        assert a.wall_seconds == pytest.approx(0.75)
        # phase times ride the outcome's ``phases``, not stats
        assert set(a.to_dict()) == {
            "km_nodes", "summaries", "summary_hits", "summaries_reused",
            "km_nodes_reused", "wall_seconds",
        }

    def test_outcome_roundtrip_keeps_metrics(self):
        outcome = JobOutcome(
            name="j", key="k", status="holds", holds=True,
            counters={"fm_sat_hits": 1}, phases={"fm": {"calls": 1}},
            stats={"km_nodes": 5}, total_seconds=1.25,
        )
        clone = JobOutcome.from_dict(outcome.to_dict())
        assert clone.counters == {"fm_sat_hits": 1}
        assert clone.phases == {"fm": {"calls": 1}}
        assert clone.stats == {"km_nodes": 5}
        assert clone.total_seconds == pytest.approx(1.25)

    def test_metrics_excluded_from_semantic_bytes(self):
        base = JobOutcome(name="j", key="k", status="holds", holds=True)
        loaded = JobOutcome(
            name="j", key="k", status="holds", holds=True,
            counters={"fm_sat_hits": 9}, phases={"fm": {"seconds": 1.0}},
            stats={"km_nodes": 5}, total_seconds=9.9,
        )
        assert base.semantic_bytes() == loaded.semantic_bytes()


def _lite_job(name="lite"):
    has = travel_lite(False)
    return VerificationJob(
        has=has,
        prop=discount_policy_property_lite(has),
        config=VerifierConfig(km_budget=60_000),
        name=name,
    )


class TestCrossProcessMetrics:
    @pytest.mark.slow
    def test_worker_counters_aggregate(self):
        """Under workers>1 the workers' COUNTERS die with their process;
        the deltas must ride back on each JobOutcome and aggregate."""
        report = run_batch([_lite_job()], workers=2)
        merged = report.merged_metrics()
        totals = merged["counters"]
        # consultation totals, not misses: global caches may already be
        # warm when the whole suite runs in one process
        assert (
            totals.get("fm_sat_hits", 0) + totals.get("fm_sat_misses", 0) > 0
        )
        assert totals.get("store_key_misses", 0) > 0  # per-store, always cold
        rates = report.merged_rates()
        assert rates["fm_sat"] is not None and 0 <= rates["fm_sat"] <= 1
        assert merged["phases"].get("expand", {}).get("calls", 0) >= 1
        assert "cache rates (all processes)" in report.format_report()

    def test_cache_hits_carry_no_metrics(self, tmp_path):
        from repro.service.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        job = _lite_job()
        run_batch([job], workers=1, cache=cache)
        warm = run_batch([job], workers=1, cache=cache)
        (outcome,) = warm.outcomes
        assert outcome.cache_hit
        assert outcome.counters is None and outcome.phases is None
        assert outcome.attribution is None
        assert warm.merged_metrics() == {kind: {} for kind in metrics.KINDS}
        assert all(rate is None for rate in warm.merged_rates().values())


# ======================================================================
# the one metrics read path
# ======================================================================
_COUNTER_NAMES = tuple(PerfCounters().snapshot())
_SERVICES = ("a", "b", "c")
#: One registry action: (what, which counter/phase/service, amount).  A
#: phase action is one begin/end pair, timed by the tick clock; a credit
#: hands the attribution hook whole seconds, as that clock measures them
#: (float seconds would let a tiny credit vanish into a large total).
_ACTION = st.one_of(
    st.tuples(st.just("count"), st.sampled_from(_COUNTER_NAMES), st.integers(1, 5)),
    st.tuples(st.just("phase"), st.sampled_from(("fm", "canon", "expand")), st.just(0)),
    st.tuples(st.just("expand"), st.sampled_from(_SERVICES), st.integers(0, 9)),
    st.tuples(st.just("successor"), st.sampled_from(_SERVICES), st.just(0)),
    st.tuples(st.just("credit"), st.sampled_from(_SERVICES), st.integers(0, 5)),
)
_WINDOW = st.lists(_ACTION, max_size=12)


def _act(registries, actions) -> None:
    counters, phases, attribution = registries
    for what, name, amount in actions:
        tag = SimpleNamespace(task="T", service=name)
        if what == "count":
            setattr(counters, name, getattr(counters, name) + amount)
        elif what == "phase":
            phases.end(name, phases.begin(name))
        elif what == "expand":
            attribution.record_expansion(tag, amount)
        elif what == "successor":
            attribution.record_successor(tag)
        else:
            attribution.set_context("T", name)
            attribution._on_phase("fm", amount)


def _snapshot(registries) -> dict:
    return {
        kind: registry.snapshot()
        for kind, registry in zip(metrics.KINDS, registries)
    }


def _deltas(now: dict, base: dict) -> dict:
    return {kind: metrics.delta(now[kind], base[kind]) for kind in metrics.KINDS}


def _counts(table: dict) -> dict:
    """A phase/attribution table minus its (float) seconds fields."""
    return {
        label: {k: v for k, v in row.items() if "seconds" not in k}
        for label, row in table.items()
    }


class TestMetricsReadPath:
    @given(_WINDOW, _WINDOW, _WINDOW)
    @settings(max_examples=100, deadline=None)
    def test_merged_window_deltas_equal_the_spanning_delta(
        self, before, first, second
    ):
        registries = (PerfCounters(), PhaseTimers(), AttributionRegistry())
        with pytest.MonkeyPatch.context() as monkeypatch:
            _tick_clock(monkeypatch)
            _act(registries, before)
            start = _snapshot(registries)
            _act(registries, first)
            middle = _snapshot(registries)
            _act(registries, second)
            end = _snapshot(registries)
        merged: dict = {}
        metrics.merge(merged, _deltas(middle, start))
        metrics.merge(merged, _deltas(end, middle))
        whole = _deltas(end, start)
        # flat counters: every name, zero included, and exact
        assert merged["counters"] == whole["counters"]
        assert set(whole["counters"]) == set(_COUNTER_NAMES)
        # rows: exactly the ones active in a window (idle rows absent; a
        # zero-second credit moves no number, so its row is idle)
        window = first + second
        assert set(whole["phases"]) == {n for w, n, _ in window if w == "phase"}
        assert set(whole["attribution"]) == {
            repr(n)
            for w, n, amount in window
            if w in ("expand", "successor") or (w == "credit" and amount)
        }
        for kind in ("phases", "attribution"):
            assert _counts(merged[kind]) == _counts(whole[kind])
            for label, row in whole[kind].items():
                for field, value in row.items():
                    if "seconds" in field:
                        assert merged[kind][label][field] == pytest.approx(value)

    def test_merge_accumulates_every_kind(self):
        row = {
            "task": "T", "expansions": 2, "successors": 3, "depth_sum": 4,
            "fm_seconds": 0.5, "canon_seconds": 0.0,
        }
        record = {
            "counters": {"fm_sat_hits": 2, "fm_sat_misses": 1},
            "phases": {"fm": {"calls": 3, "seconds": 0.25}},
            "attribution": {"'s'": row},
        }
        into: dict = {}
        metrics.merge(into, record)
        metrics.merge(into, record)
        assert into["counters"] == {"fm_sat_hits": 4, "fm_sat_misses": 2}
        assert into["phases"]["fm"]["calls"] == 6
        assert into["phases"]["fm"]["seconds"] == pytest.approx(0.5)
        cell = into["attribution"]["'s'"]
        assert cell["expansions"] == 4 and cell["depth_sum"] == 8
        assert cell["fm_seconds"] == pytest.approx(1.0)
        assert row["expansions"] == 2  # the merged row is a copy
        # a row's non-numbers keep their first value
        metrics.merge(into, {"attribution": {"'s'": {"task": "U", "expansions": 1}}})
        assert cell["task"] == "T" and cell["expansions"] == 5
        # a JobOutcome carries the same kinds as attributes
        metrics.merge(
            into,
            JobOutcome(name="j", key="k", status="holds", counters={"fm_sat_hits": 1}),
        )
        assert into["counters"]["fm_sat_hits"] == 5
        # trace files come from outside: kinds and rows that aren't dicts
        # are skipped
        metrics.merge(
            into,
            {"counters": "garbage", "phases": ["fm"], "attribution": {"'s'": 7}},
        )
        assert into["counters"] == {"fm_sat_hits": 5, "fm_sat_misses": 2}
        assert into["phases"]["fm"]["calls"] == 6 and cell["expansions"] == 5

    @pytest.mark.slow
    def test_batch_aggregate_and_trace_report_agree(self, tmp_path):
        """The ``--jsonl`` aggregate and ``repro report`` of the same
        traced ``workers=2`` run sum the same per-job deltas, so every
        count agrees — including the kinds that only ride the outcome."""
        jobs = []
        for fixed in (False, True):
            has = travel_lite(fixed)
            jobs.append(
                VerificationJob(
                    has=has,
                    prop=discount_policy_property_lite(has),
                    config=VerifierConfig(km_budget=60_000),
                    name=f"lite-{fixed}",
                )
            )
        trace_path = tmp_path / "trace.jsonl"
        trace.start(trace_path)
        try:
            report = run_batch(jobs, workers=2)
        finally:
            trace.stop()
        report.to_jsonl(tmp_path / "suite.jsonl")
        lines = (tmp_path / "suite.jsonl").read_text().splitlines()
        aggregate = json.loads(lines[-1])
        summary = summarize(load_events(trace_path))
        assert len(summary.jobs) == 2
        assert summary.counters and aggregate["counters"] == summary.counters
        for kind in ("phases", "attribution"):
            counts = _counts(getattr(summary, kind))
            assert counts and _counts(aggregate[kind]) == counts


# ======================================================================
# the big contract: tracing is observationally invisible
# ======================================================================
def _semantic_outcome(job):
    from repro.service.pool import execute_job

    outcome = execute_job(job)
    return outcome.semantic_bytes(), outcome.key

def _gallery_job():
    from repro.dsl import load_document

    doc = load_document(GALLERY / "library_loans.has")
    return doc.jobs(default_config=VerifierConfig(km_budget=60_000))[0]


class TestTracedUntracedParity:
    @pytest.mark.parametrize(
        "make_job", [_lite_job, _gallery_job], ids=["travel-lite", "gallery"]
    )
    def test_byte_identical_outcomes(self, make_job):
        """Verdict, witness, KM counts, job hash, and semantic bytes are
        byte-identical with tracing on or off (the A/B contract)."""
        job_off = make_job()
        untraced, key_off = _semantic_outcome(job_off)

        sink = io.StringIO()
        trace.start(sink)
        try:
            job_on = make_job()
            traced, key_on = _semantic_outcome(job_on)
        finally:
            trace.stop()
        assert key_on == key_off  # content-addressed job key
        assert traced == untraced  # semantic outcome bytes
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert any(e["ev"] == "job_finish" for e in events)

    def test_verifier_result_parity(self):
        """Engine-level check, independent of the service layer."""

        def run():
            has = travel_lite(False)
            result = Verifier(has, VerifierConfig(km_budget=60_000)).verify(
                discount_policy_property_lite(has)
            )
            return (
                result.holds,
                result.witness_kind,
                [repr(s) for s in result.witness],
                result.stats.km_nodes,
                result.stats.summaries,
            )

        untraced = run()
        trace.start(io.StringIO())
        try:
            traced = run()
        finally:
            trace.stop()
        assert traced == untraced


_TRACE_SCRIPT = """\
import io, json, sys
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
    print(json.dumps(scrub_event(json.loads(line)), sort_keys=True))
"""


@pytest.mark.slow
def test_trace_content_is_hash_seed_independent():
    """The trace minus its timing fields (scrub_event) is byte-stable
    across PYTHONHASHSEED values: event order, span names, node counts,
    and per-job counters must not leak hash order."""
    outputs = set()
    for seed in ("0", "1", "4242"):
        result = subprocess.run(
            [sys.executable, "-c", _TRACE_SCRIPT],
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": seed, "PYTHONPATH": "src"},
            cwd=str(Path(__file__).parent.parent),
            check=True,
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1, "hash-seed-dependent trace content"


# ======================================================================
# CLI: --trace/--progress flags and the report subcommand
# ======================================================================
class TestCli:
    def _main(self, argv, capsys):
        from repro.service.cli import main

        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_verify_trace_and_progress(self, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        code, _out, err = self._main(
            ["verify", "travel-lite-fixed", "--trace", str(out_path),
             "--progress"],
            capsys,
        )
        assert code == 0
        assert "→ " in err  # heartbeat on stderr
        assert f"trace written to {out_path}" in err
        events = load_events(out_path)
        assert any(e["ev"] == "job_finish" for e in events)

    def test_report_renders_breakdown(self, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        code, _out, _err = self._main(
            ["verify", "travel-lite-fixed", "--trace", str(out_path)], capsys
        )
        assert code == 0
        code, out, _err = self._main(["report", str(out_path)], capsys)
        assert code == 0
        assert "per-phase time breakdown" in out
        assert "total (wall)" in out
        code, out, _err = self._main(
            ["report", str(out_path), "--json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["jobs"] == 1
        assert {"breakdown", "counters", "phases", "rates"} <= set(data)

    def test_report_bad_file_exits_2(self, tmp_path, capsys):
        code, _out, err = self._main(
            ["report", str(tmp_path / "missing.jsonl")], capsys
        )
        assert code == 2
        assert "cannot read trace" in err
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        code, _out, err = self._main(["report", str(bad)], capsys)
        assert code == 2


# ======================================================================
# bench integration
# ======================================================================
class TestBenchSchema:
    def test_v1_baselines_still_load(self):
        from repro.perf.bench import load_record

        baselines = Path(__file__).parent.parent / "benchmarks" / "baselines"
        for path in sorted(baselines.glob("BENCH_*.json")):
            record = load_record(path)  # must not raise
            assert record["family"]

    def test_unknown_schema_rejected(self, tmp_path):
        from repro.perf.bench import load_record

        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ValueError, match="expected one of"):
            load_record(path)

    @pytest.mark.slow
    def test_record_carries_phases_and_null_rates(self):
        from repro.perf.bench import BENCH_SCHEMA_VERSION, run_family

        record = run_family("travel-lite", reps=1)
        assert record["schema_version"] == BENCH_SCHEMA_VERSION == 3
        assert record["phases"]["expand"]["seconds"] > 0
        for row in record["phases"].values():
            assert set(row) == {"calls", "seconds"}
        # every rate is a float in [0,1] or None — never a crash
        for rate in record["rates"].values():
            assert rate is None or 0.0 <= rate <= 1.0
