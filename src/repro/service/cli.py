"""The ``python -m repro`` command line.

Six subcommands drive the batch verification service:

* ``verify`` — one system + property (a built-in example, a ``.has``
  scenario file, a job JSON file, or a suite job reference), printed as
  a full verdict with witness, or as structured JSON with ``--json``;
  exit codes 0 (holds), 1 (violated), 2 (budget-exceeded / error) for
  scripts and CI;
* ``explain`` — the same targets, but on violation prints the concrete
  counterexample: a finite database plus a step-by-step run, validated
  by the simulator and the reference LTL evaluators and minimized
  (``repro.witness``);
* ``suite`` — a named job suite through the batch runner, with workers,
  result cache, and JSONL export;
* ``bench`` — the tracked benchmark harness (``repro.perf.bench``):
  ``--record`` writes one ``BENCH_<family>.json`` per family and
  ``--compare`` checks them against baselines, exit 3 on a wall-time
  regression and 4 on verdict-fingerprint drift;
* ``fuzz`` — the differential fuzzing campaign (``repro.fuzz``): seeded
  random scenarios cross-checked between the symbolic verifier and the
  bounded explicit-state reference checker, discrepancies shrunk and
  written as replayable reports (``--replay``); exit codes 0 (all
  agree), 1 (discrepancy found / replay reproduced), 2 (usage error);
* ``report`` — a ``--trace`` file summarized (per-phase breakdown, cache
  rates, search hotspots), optionally exported as Chrome trace-event
  JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from repro.errors import ReproError
from repro.service.cache import ResultCache
from repro.service.jobs import STATUS_HOLDS, STATUS_VIOLATED, VerificationJob
from repro.service.pool import execute_job
from repro.service.runner import run_batch
from repro.service.suites import build_suite, suite_names
from repro.verifier.config import VerifierConfig

DEFAULT_CACHE_DIR = ".repro-cache"


def _die(message: str) -> SystemExit:
    """Usage/target errors exit with code 2 — code 1 is reserved for the
    'property violated' verdict (the documented script contract)."""
    print(message, file=sys.stderr)
    return SystemExit(2)


def _example_job(name: str, config: VerifierConfig) -> VerificationJob:
    from repro.examples.travel import (
        discount_policy_property,
        discount_policy_property_lite,
        travel_booking,
        travel_lite,
    )

    builders = {
        "travel-lite": (travel_lite, False, discount_policy_property_lite),
        "travel-lite-fixed": (travel_lite, True, discount_policy_property_lite),
        "travel": (travel_booking, False, discount_policy_property),
        "travel-fixed": (travel_booking, True, discount_policy_property),
    }
    try:
        build, fixed, property_of = builders[name]
    except KeyError:
        known = ", ".join(sorted(builders))
        raise _die(
            f"unknown target {name!r}: expected a job JSON file or one of {known}"
        ) from None
    has = build(fixed)
    return VerificationJob(has=has, prop=property_of(has), config=config)


def _config_from_args(args: argparse.Namespace) -> VerifierConfig:
    return VerifierConfig(
        km_budget=args.km_budget,
        time_limit_seconds=args.time_limit,
    )


def _add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--km-budget",
        type=int,
        default=60_000,
        help="Karp–Miller node budget per task summary (default 60000)",
    )
    parser.add_argument(
        "--time-limit",
        type=float,
        default=120.0,
        help="per-job wall-clock limit in seconds (default 120)",
    )


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"on-disk result cache directory (default {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the result cache entirely",
    )


def _cache_from_args(args: argparse.Namespace) -> ResultCache | None:
    if args.no_cache:
        return None
    return ResultCache(args.cache_dir)


def _add_summary_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--summary-cache",
        metavar="DIR",
        help="persistent cross-job task-summary store: re-verifying after "
        "an edit reuses the summaries of untouched task subtrees (keyed "
        "by subtree content, so reuse is observationally invisible — "
        "verdicts and witnesses stay byte-identical)",
    )


def _summary_store_from_args(args: argparse.Namespace):
    if not args.summary_cache:
        return None
    from repro.service.cache import SummaryStore

    return SummaryStore(args.summary_cache)


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE.jsonl",
        help="write a structured trace (spans, km progress, per-job "
        "events) to FILE.jsonl; analyze with `python -m repro report`",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream heartbeat lines to stderr while the run is live "
        "(elapsed, km nodes, current exploration)",
    )


@contextmanager
def _tracing(args: argparse.Namespace):
    """Enable the tracer/heartbeat around a command, per its flags.

    Tracing is observationally invisible: verdicts, witnesses, node
    counts, and job hashes are identical with or without these flags
    (docs/observability.md)."""
    from repro.obs import trace

    trace_path = getattr(args, "trace", None)
    progress = getattr(args, "progress", False)
    if not trace_path and not progress:
        yield
        return
    heartbeat = None
    if progress:
        from repro.obs.progress import Heartbeat

        heartbeat = Heartbeat()
        trace.add_listener(heartbeat)
    try:
        trace.start(trace_path)
    except OSError as exc:
        # an unwritable --trace path is a usage error (exit 2), not a
        # traceback — same contract as a missing report file
        if heartbeat is not None:
            trace.remove_listener(heartbeat)
        raise _die(
            f"{trace_path}: cannot write trace ({exc.strerror or exc})"
        ) from None
    try:
        yield
    finally:
        trace.stop()
        if heartbeat is not None:
            trace.remove_listener(heartbeat)
        if trace_path:
            print(f"trace written to {trace_path}", file=sys.stderr)


def _job_from_has_target(target: str, config: VerifierConfig) -> VerificationJob:
    """A job from a ``.has`` scenario file; ``file.has::prop`` selects one
    of several properties by name.  A ``config`` block in the file wins
    over the CLI budget flags (budget-boxed scenarios depend on that)."""
    from repro.dsl import load_document

    path_text, _, selector = target.partition("::")
    path = Path(path_text)
    if not path.is_file():
        raise _die(f"{path}: scenario file not found")
    try:
        doc = load_document(path)
    except ReproError as exc:
        raise _die(str(exc)) from None
    if not doc.properties:
        raise _die(f"{path}: the scenario declares no properties")
    jobs = doc.jobs(default_config=config)
    if selector:
        try:
            entry = doc.property_named(selector)
        except ReproError as exc:
            raise _die(str(exc)) from None
        return jobs[doc.properties.index(entry)]
    if len(jobs) > 1:
        known = ", ".join(e.prop.name for e in doc.properties)
        raise _die(
            f"{path} declares {len(jobs)} properties; pick one with "
            f"{path}::<name> (declared: {known})"
        )
    return jobs[0]


def _job_from_target(target: str, config: VerifierConfig) -> VerificationJob:
    """A job from a job JSON file, a ``.has`` scenario file, a
    ``suite/selector`` reference, or a built-in example name."""
    if target.partition("::")[0].endswith(".has"):
        return _job_from_has_target(target, config)
    if Path(target).suffix == ".json":
        if not Path(target).exists():
            raise _die(f"{target}: job file not found")
        try:
            payload = json.loads(Path(target).read_text())
            return VerificationJob.from_payload(payload).with_config(config)
        except (ValueError, KeyError, TypeError, ReproError) as exc:
            raise _die(f"{target}: not a valid job file ({exc})") from None
    if "/" in target:
        suite_name, _, selector = target.partition("/")
        try:
            jobs = build_suite(suite_name, config=config)
        except KeyError as exc:
            raise _die(exc.args[0]) from None
        if selector.isdigit():
            index = int(selector)
            if not 0 <= index < len(jobs):
                raise _die(
                    f"{target}: suite {suite_name!r} has jobs 0…{len(jobs) - 1}"
                )
            return jobs[index]
        exact = [job for job in jobs if job.name == selector]
        if exact:
            return exact[0]
        matches = [job for job in jobs if selector in job.name]
        if not matches:
            known = ", ".join(job.name for job in jobs)
            raise _die(f"{target}: no job matches (suite jobs: {known})")
        names = {job.name for job in matches}
        if len(names) > 1:
            raise _die(
                f"{target}: ambiguous selector, matches "
                + ", ".join(sorted(names))
            )
        return matches[0]
    return _example_job(target, config)


def _verdict_exit_code(outcome) -> int:
    """Exit codes for scripts and CI: 0 holds, 1 violated, 2 budget
    exceeded / error."""
    if outcome.status == STATUS_HOLDS:
        return 0
    if outcome.status == STATUS_VIOLATED:
        return 1
    return 2


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    job = _job_from_target(args.target, config)
    if not args.json:
        print(f"verifying {job.name}  (key {job.key()[:16]}…)")
    with _tracing(args):
        outcome = execute_job(job, summary_store=_summary_store_from_args(args))
    if args.json:
        print(json.dumps(outcome.to_dict(), sort_keys=True, indent=1))
    else:
        print(outcome.one_line())
        for step in outcome.witness:
            print(f"    {step}")
        if outcome.error:
            print(f"  {outcome.error}")
    if args.dump_job:
        Path(args.dump_job).write_text(json.dumps(job.payload(), sort_keys=True))
        if not args.json:
            print(f"job payload written to {args.dump_job}")
    return _verdict_exit_code(outcome)


def _cmd_explain(args: argparse.Namespace) -> int:
    """Verify one target and print (or export) the concrete counterexample."""
    from repro.verifier.engine import Verifier
    from repro.witness import ConcreteWitness, concretize

    config = _config_from_args(args)
    job = _job_from_target(args.target, config)
    print(f"explaining {job.name}  (key {job.key()[:16]}…)")
    with _tracing(args):
        try:
            result = Verifier(
                job.has,
                job.config,
                summary_store=_summary_store_from_args(args),
            ).verify(job.prop)
        except ReproError as exc:
            print(f"  {type(exc).__name__}: {exc}")
            return 2
        if result.holds:
            print(result.explain())
            print("nothing to explain: no counterexample exists within the model")
            return 0
        try:
            # traced: the witness materialize/replay/minimize spans are
            # only reachable through this pipeline
            witness = concretize(
                job.has,
                job.prop,
                result,
                shrink=not args.no_minimize,
                time_budget=config.time_limit_seconds,
            )
        except Exception as exc:  # noqa: BLE001 — exit contract: 2, not a traceback
            print(result.explain())
            print(f"concretization failed: {type(exc).__name__}: {exc}")
            return 2
    print(witness.render())
    if args.export:
        Path(args.export).write_text(
            json.dumps(witness.to_dict(), sort_keys=True, indent=1)
        )
        print(f"concrete witness JSON written to {args.export}")
    if isinstance(witness, ConcreteWitness) and witness.confirmed:
        return 1
    return 2


def _cmd_suite(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    try:
        jobs = build_suite(args.name, quick=args.quick, config=config)
    except KeyError as exc:
        raise _die(exc.args[0]) from None
    except ReproError as exc:
        # a .has file in the suite path failed to parse or validate
        raise _die(str(exc)) from None
    cache = _cache_from_args(args)
    print(
        f"suite {args.name!r}: {len(jobs)} jobs, workers={args.workers}, "
        f"cache={'off' if cache is None else args.cache_dir}"
    )
    on_outcome = None
    if args.verbose:
        on_outcome = lambda outcome: print(  # noqa: E731
            f"  done: {outcome.one_line()}", flush=True
        )
    summary_store = _summary_store_from_args(args)
    with _tracing(args):
        report = run_batch(
            jobs,
            workers=args.workers,
            cache=cache,
            on_outcome=on_outcome,
            summary_store=summary_store,
        )
    print(report.format_report())
    lock_waits = (cache.lock_waits if cache is not None else 0) + (
        summary_store.lock_waits if summary_store is not None else 0
    )
    if lock_waits:
        print(f"cache write-lock contention: {lock_waits} wait(s)")
    if args.jsonl:
        report.to_jsonl(args.jsonl)
        print(f"per-job JSONL written to {args.jsonl}")
    if report.errors or report.unexpected:
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """``bench --record / --compare``: the tracked-baseline harness.

    ``--record`` runs the named families and writes one
    ``BENCH_<family>.json`` per family into ``--out``; ``--compare DIR``
    then checks those records against the same-named baselines in DIR.
    Exit codes extend the verify contract without clashing with it
    (0 holds / 1 violated / 2 budget-error): **3** — a family regressed
    in wall time beyond ``--threshold``; **4** — a family's verdict
    fingerprint drifted, which is a semantic change, not noise.  Missing
    baselines are reported but never fail (the soft-gate contract)."""
    from repro.perf import bench as perf_bench

    if not args.record and not args.compare:
        raise _die("bench: pass --record, --compare BASELINE_DIR, or both")
    known = perf_bench.family_names()
    if args.families:
        if args.name:
            raise _die(
                "pass either a positional family name or --families, not both"
            )
        families = [f.strip() for f in args.families.split(",") if f.strip()]
    elif args.name:
        families = [args.name]
    else:
        families = list(known)
    unknown = [f for f in families if f not in known]
    if unknown:
        raise _die(
            f"unknown bench families {', '.join(unknown)} "
            f"(known: {', '.join(known)})"
        )
    out_dir = Path(args.out)
    if args.record:
        try:
            # record_families logs progress to stderr, keeping stdout
            # parseable for scripted callers
            with _tracing(args):
                perf_bench.record_families(out_dir, families, reps=args.reps)
        except RuntimeError as exc:
            raise _die(f"bench recording failed: {exc}") from None
    if not args.compare:
        return 0
    if not out_dir.exists() or not list(out_dir.glob("BENCH_*.json")):
        raise _die(
            f"{out_dir}: no BENCH_*.json records to compare "
            "(run with --record, or point --out at recorded files)"
        )
    # compare only the families this invocation selected: --out may hold
    # stale records for other families from earlier runs
    selected = (
        families if (args.record or args.families or args.name) else None
    )
    regressions, drifts, notes = perf_bench.compare_directories(
        out_dir, args.compare, threshold=args.threshold, families=selected
    )
    for note in notes:
        print(f"  {note}")
    if drifts:
        print("SEMANTIC DRIFT (verdict fingerprints changed — not a perf issue):")
        for line in drifts:
            print(f"  {line}")
    if regressions:
        print(f"REGRESSION beyond {args.threshold:.0%} threshold:")
        for line in regressions:
            print(f"  {line}")
    if drifts:
        return 4
    if regressions:
        return 3
    print("no regressions beyond threshold")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential fuzzing campaign / discrepancy replay."""
    import contextlib

    from repro.fuzz import (
        BoundedConfig,
        GenConfig,
        corpus_entry,
        load_report,
        replay_report,
        run_campaign,
        write_corpus_entry,
        write_corpus_entry_has,
    )
    from repro.fuzz.coverage import FEATURES
    from repro.fuzz.harness import write_coverage_map
    from repro.fuzz.mutations import inject, mutation_names

    if args.export_corpus and args.inject_bug:
        raise _die(
            "--export-corpus cannot be combined with --inject-bug: corpus "
            "entries record expected verdicts, and a mutated verifier would "
            "poison them"
        )
    if args.replay and args.export_corpus:
        raise _die(
            "--replay does not run a campaign and cannot export corpus "
            "entries; drop --export-corpus (see docs/testing.md for the "
            "discrepancy→corpus recipe)"
        )
    mutation = contextlib.nullcontext()
    if args.inject_bug:
        if args.inject_bug not in mutation_names():
            raise _die(
                f"unknown mutation {args.inject_bug!r} "
                f"(known: {', '.join(mutation_names())})"
            )
        mutation = inject(args.inject_bug)

    if args.replay:
        if not Path(args.replay).exists():
            raise _die(f"{args.replay}: report file not found")
        try:
            report = load_report(args.replay)
        except ValueError as exc:
            raise _die(str(exc)) from None
        try:
            with mutation:
                reproduced, outcome, notes = replay_report(report)
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            # a malformed/truncated report is a usage error (exit 2) —
            # exit 1 is reserved for "discrepancy reproduced"
            raise _die(
                f"{args.replay}: not a replayable report "
                f"({type(exc).__name__}: {exc})"
            ) from None
        for note in notes:
            print(f"  note: {note}")
        print(outcome.one_line())
        if notes:
            print(f"replay of {report['name']}: NOT EXACT (see notes)")
            return 2
        if reproduced:
            print(
                f"replay of {report['name']}: discrepancy "
                f"{report['kind']!r} REPRODUCED"
            )
            return 1
        print(f"replay of {report['name']}: discrepancy no longer reproduces")
        return 0

    if args.count < 1:
        raise _die("--count must be at least 1")
    gen_config = GenConfig(max_depth=args.max_depth)
    # --budget 0 disables the wall clock: verdicts then depend only on
    # the deterministic km/expansion caps (what CI wants — no spurious
    # discrepancies on slow runners)
    wall = args.budget if args.budget > 0 else None
    verifier_config = VerifierConfig(
        km_budget=args.km_budget, time_limit_seconds=wall
    )
    bounded_config = BoundedConfig(time_budget_seconds=wall)
    on_outcome = None
    if args.verbose:
        on_outcome = lambda outcome: print(  # noqa: E731
            f"  {outcome.one_line()}", flush=True
        )
    if args.min_novelty < 1:
        raise _die("--min-novelty must be at least 1")
    with mutation, _tracing(args):
        campaign = run_campaign(
            args.seed,
            args.count,
            gen_config=gen_config,
            verifier_config=verifier_config,
            bounded_config=bounded_config,
            out_dir=args.out,
            shrink=not args.no_shrink,
            on_outcome=on_outcome,
            guided=args.guided,
            min_novelty=args.min_novelty,
        )
    print(campaign.format_report())
    if args.coverage_out:
        path = write_coverage_map(args.coverage_out, campaign)
        print(f"coverage map written to {path}")
    if args.export_corpus:
        written = 0
        seen_jobs: set[str] = set()
        for outcome in campaign.outcomes:
            if outcome.discrepancy is None:
                entry = corpus_entry(outcome, verifier_config, bounded_config)
                # distinct (seed, index) pairs — and grown mutants — can
                # collapse to the same verification job; one entry each
                if entry["job_key"] in seen_jobs:
                    continue
                seen_jobs.add(entry["job_key"])
                if args.corpus_format == "has":
                    write_corpus_entry_has(
                        args.export_corpus, outcome, verifier_config
                    )
                else:
                    write_corpus_entry(args.export_corpus, entry)
                written += 1
        print(
            f"{written} {args.corpus_format} corpus entries written to "
            f"{args.export_corpus}"
        )
    if args.coverage_floor:
        floor_path = Path(args.coverage_floor)
        if not floor_path.exists():
            raise _die(f"{args.coverage_floor}: coverage floor file not found")
        floor = json.loads(floor_path.read_text())
        floor_features = set(floor.get("features", ()))
        unknown = sorted(floor_features - set(FEATURES))
        if unknown:
            raise _die(
                f"{args.coverage_floor}: floor names unknown coverage "
                f"features: {', '.join(unknown)}"
            )
        missing = sorted(floor_features - set(campaign.coverage))
        if missing:
            print(
                f"coverage REGRESSION: {len(missing)} floor feature(s) "
                f"not reached: {', '.join(missing)}"
            )
            return 1
        print(
            f"coverage floor held: all {len(floor_features)} floor "
            f"features reached ({len(campaign.coverage)} total)"
        )
    return 1 if campaign.discrepancies else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import load_events, render, summarize
    from repro.perf.counters import PerfCounters

    try:
        events = load_events(args.trace)
    except OSError as exc:
        raise _die(f"{args.trace}: cannot read trace ({exc.strerror or exc})")
    except ValueError as exc:
        raise _die(str(exc))
    summary = summarize(events)

    if args.chrome:
        from repro.obs.export import export_trace

        try:
            export_trace(events, args.chrome)
        except OSError as exc:
            raise _die(f"{args.chrome}: cannot write export ({exc.strerror or exc})")

    if args.json:
        document = {
            "events": summary.events,
            "jobs": len(summary.jobs),
            "wall_seconds": summary.wall_seconds,
            "phases": summary.phases,
            "breakdown": [
                {"phase": label, "seconds": seconds, "calls": calls}
                for label, seconds, calls in summary.phase_breakdown()
            ],
            "counters": summary.counters,
            "rates": PerfCounters.rates(summary.counters),
            "attribution": summary.attribution,
        }
        print(json.dumps(document, sort_keys=True))
    else:
        print(render(summary, top=args.top))
        if args.chrome:
            print(f"chrome export written to {args.chrome}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Batch verification service for Hierarchical Artifact Systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    target_help = (
        "built-in example (travel-lite, travel-lite-fixed, travel, "
        "travel-fixed), a .has scenario file (file.has, or "
        "file.has::<property> when it declares several), a job JSON "
        "file, or a suite job reference (<suite>/<index> or "
        "<suite>/<name-substring>)"
    )

    verify = sub.add_parser(
        "verify",
        help="verify one system + property "
        "(exit code: 0 holds, 1 violated, 2 budget-exceeded/error)",
    )
    verify.add_argument("target", help=target_help)
    verify.add_argument(
        "--json",
        action="store_true",
        help="print the structured JobOutcome JSON instead of the report",
    )
    verify.add_argument(
        "--dump-job",
        metavar="PATH",
        help="also write the job's serialized payload to PATH",
    )
    _add_budget_arguments(verify)
    _add_summary_cache_arguments(verify)
    _add_trace_arguments(verify)
    verify.set_defaults(func=_cmd_verify)

    explain = sub.add_parser(
        "explain",
        help="verify one target and print its concrete, replay-validated, "
        "minimized counterexample (exit code: 0 holds, 1 confirmed "
        "violation, 2 non-concretizable/budget/error)",
    )
    explain.add_argument("target", help=target_help)
    explain.add_argument(
        "--export",
        metavar="PATH",
        help="write the concrete witness JSON to PATH",
    )
    explain.add_argument(
        "--no-minimize",
        action="store_true",
        help="skip trace minimization (print the raw materialized run)",
    )
    _add_budget_arguments(explain)
    _add_summary_cache_arguments(explain)
    _add_trace_arguments(explain)
    explain.set_defaults(func=_cmd_explain)

    suite = sub.add_parser("suite", help="run a named job suite")
    suite.add_argument(
        "name",
        nargs="?",
        default="quick",
        help=f"suite name: {', '.join(suite_names())} (default: quick), "
        "or a path to a .has scenario file / a directory of them",
    )
    suite.add_argument("--workers", type=int, default=1, help="process pool size")
    suite.add_argument(
        "--quick", action="store_true", help="trim the suite to its fastest jobs"
    )
    suite.add_argument("--jsonl", metavar="PATH", help="export per-job JSONL report")
    suite.add_argument(
        "--verbose", action="store_true", help="print each job as it finishes"
    )
    _add_cache_arguments(suite)
    _add_budget_arguments(suite)
    _add_summary_cache_arguments(suite)
    _add_trace_arguments(suite)
    suite.set_defaults(func=_cmd_suite)

    bench = sub.add_parser(
        "bench",
        help="the tracked benchmark harness: --record BENCH_<family>.json "
        "records, --compare them against baselines (exit 3 on "
        ">threshold regression, 4 on verdict-fingerprint drift)",
    )
    bench.add_argument(
        "name",
        nargs="?",
        default=None,
        help="a single family to record/compare (default: all)",
    )
    bench.add_argument(
        "--record",
        action="store_true",
        help="run the benchmark families and write BENCH_<family>.json "
        "records (wall time, KM nodes, cache hit rates) into --out",
    )
    bench.add_argument(
        "--compare",
        metavar="BASELINE_DIR",
        help="compare the records in --out against the baselines in "
        "BASELINE_DIR; exit 3 on a >--threshold perf regression, exit 4 "
        "on verdict-fingerprint drift (a semantic change)",
    )
    bench.add_argument(
        "--out",
        default="bench-records",
        help="directory for BENCH_<family>.json records (default bench-records)",
    )
    bench.add_argument(
        "--families",
        help="comma-separated bench families for --record/--compare "
        "(default: all; see docs/performance.md)",
    )
    bench.add_argument(
        "--reps",
        type=int,
        default=3,
        help="repetitions per family; wall time is the best rep (default 3)",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="relative wall-time regression tolerance for --compare "
        "(default 0.15 = 15%%)",
    )
    _add_trace_arguments(bench)
    bench.set_defaults(func=_cmd_bench)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random scenarios cross-checked between "
        "the symbolic verifier and a bounded explicit-state reference "
        "checker (exit code: 0 all agree, 1 discrepancy/reproduced, 2 "
        "usage error)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default 0)"
    )
    fuzz.add_argument(
        "--count", type=int, default=25, help="scenarios to generate (default 25)"
    )
    fuzz.add_argument(
        "--budget",
        type=float,
        default=10.0,
        help="per-scenario wall-clock budget in seconds, applied to both "
        "checkers (default 10; 0 disables the wall clock so verdicts "
        "depend only on the deterministic --km-budget/expansion caps — "
        "use 0 in CI)",
    )
    fuzz.add_argument(
        "--km-budget",
        type=int,
        default=20_000,
        help="Karp–Miller node budget per scenario (default 20000)",
    )
    fuzz.add_argument(
        "--max-depth",
        type=int,
        default=2,
        help="maximum task-hierarchy depth of generated systems (default 2)",
    )
    fuzz.add_argument(
        "--out",
        default="fuzz-reports",
        help="directory for discrepancy reports (default fuzz-reports)",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip scenario shrinking on discrepancies",
    )
    fuzz.add_argument(
        "--guided",
        action="store_true",
        help="coverage-guided campaign: track the coverage frontier "
        "(repro.fuzz.coverage), score scenarios by novel features, and "
        "grow mutants of novel survivors targeting uncovered verifier "
        "regions (same total scenario budget as a uniform campaign)",
    )
    fuzz.add_argument(
        "--min-novelty",
        type=int,
        default=1,
        metavar="N",
        help="with --guided: only grow mutants of scenarios that fired "
        "at least N frontier-novel coverage features (default 1)",
    )
    fuzz.add_argument(
        "--coverage-out",
        metavar="FILE",
        help="write the campaign's coverage map (which verifier regions "
        "fired, per scenario and in aggregate) as JSON",
    )
    fuzz.add_argument(
        "--coverage-floor",
        metavar="FILE",
        help="after the campaign, fail (exit 1) unless every feature in "
        "this checked-in coverage map is reached",
    )
    fuzz.add_argument(
        "--export-corpus",
        metavar="DIR",
        help="write each agreeing scenario as a regression corpus entry",
    )
    fuzz.add_argument(
        "--corpus-format",
        choices=("json", "has"),
        default="json",
        help="corpus entry format: machine-replayable JSON (default) or "
        "readable .has scenario files (repro.dsl; loadable by verify/suite)",
    )
    fuzz.add_argument(
        "--replay",
        metavar="REPORT",
        help="replay a discrepancy report: regenerate its scenario from the "
        "embedded seed + GenConfig and re-run the differential check "
        "(exit 1 when the discrepancy reproduces, 0 when it no longer "
        "does, 2 when regeneration is not exact)",
    )
    fuzz.add_argument(
        "--inject-bug",
        metavar="NAME",
        help="apply a named verifier mutation (repro.fuzz.mutations) for "
        "the campaign/replay — used to smoke-test the oracle itself",
    )
    fuzz.add_argument(
        "--verbose", action="store_true", help="print each scenario as it finishes"
    )
    _add_trace_arguments(fuzz)
    fuzz.set_defaults(func=_cmd_fuzz)

    report = sub.add_parser(
        "report",
        help="summarize a --trace JSONL file: per-phase time breakdown, "
        "cache hit rates, search hotspots, slowest jobs; export to "
        "Chrome trace-event JSON (exit 2 on a missing/bad file)",
    )
    report.add_argument(
        "trace",
        metavar="FILE.jsonl",
        help="trace file to analyze",
    )
    report.add_argument(
        "--json",
        action="store_true",
        help="print the summary as JSON instead of the table",
    )
    report.add_argument(
        "--top",
        type=int,
        default=5,
        help="number of slowest jobs to list (default 5)",
    )
    report.add_argument(
        "--chrome",
        metavar="FILE",
        help="also write the trace as Chrome trace-event JSON (open in "
        "ui.perfetto.dev or chrome://tracing)",
    )
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
