"""The tracked benchmark harness: record families, compare baselines.

A *family* is a named, deterministic bundle of verification jobs.  Four
families are service suites (:func:`repro.service.suites.build_suite`),
so the suite module alone decides which jobs they run: ``table1`` and
``table2`` (the Table 1/2 grids), ``travel-lite`` (the quick ``travel``
suite: the Appendix A travel-lite pair) and ``scenario-families`` (the
``families`` suite).  The ``incremental`` family instead measures the
verify → edit one service → re-verify workflow through the persistent
summary store (fuzz-derived edit-adjacent pairs; see
:func:`_incremental_pairs`).  ``run_family`` executes one family
in-process, timing :meth:`Verifier.verify` directly (no pool, result
cache or witness work), and measures

* **wall time** — best of ``reps`` repetitions of the whole bundle
  (min, not mean: the minimum is the least noisy estimator of the code's
  actual cost under scheduler jitter);
* **KM nodes** — total symbolic states constructed (deterministic:
  no family is wall-clock-boxed);
* **cache hit rates** — from :mod:`repro.perf.counters`, measured on the
  first repetition only (later reps would over-report warm-cache rates
  that a fresh process never sees);
* **verdict fingerprint** — per-job (name, status, km_nodes), asserted
  stable so a "speedup" that changed semantics is caught immediately.

``record_families`` writes one ``BENCH_<family>.json`` per family;
``compare_records`` flags wall-time regressions beyond a threshold
(default 15%) against a previously recorded baseline directory.  The
JSON schema is documented in docs/performance.md; the tracked baselines
live in ``benchmarks/baselines/``.
"""

from __future__ import annotations

import io
import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.arith import fm
from repro.errors import BudgetExceeded, ReproError
from repro.fuzz.coverage import COVERAGE
from repro.obs import metrics, trace
from repro.obs.attribution import ATTRIBUTION
from repro.perf.counters import PerfCounters
from repro.service.jobs import VerificationJob
from repro.service.suites import build_suite
from repro.symbolic import store as symbolic_store
from repro.verifier.config import VerifierConfig
from repro.verifier.engine import Verifier
from repro.verifier.result import VerificationStats

#: Bump when the BENCH_*.json layout changes incompatibly.
#: v2 added a per-phase timing block (``"phases"``) and null rates for
#: never-consulted caches; v3 made ``"phases"`` the plain exact
#: ``{phase: {calls, seconds}}`` table.  :func:`compare_records` reads
#: neither block, so v1 and v2 records stay loadable.
BENCH_SCHEMA_VERSION = 3

#: Schema versions :func:`load_record` accepts (old baselines included).
_ACCEPTED_SCHEMA_VERSIONS = frozenset({1, 2, BENCH_SCHEMA_VERSION})


def _incremental_pairs() -> list[tuple[str, VerificationJob, VerificationJob]]:
    """Edit-adjacent scenario pairs for the ``incremental`` family.

    Each pair is a fuzz-generated base scenario plus the first
    ``add service`` mutant from the grow operators — the canonical
    "verify, edit one service, re-verify" workflow the persistent
    summary store accelerates.  Both sides are fully deterministic
    (seed-derived), so the family's verdict fingerprint is stable.
    The seeds are chosen so every base terminates within budget with a
    multi-task summary set and the warm re-verify actually reuses
    subtrees the edit cannot reach."""
    from repro.fuzz.gen import GenConfig, generate_scenario, grow_scenarios

    gen_config = GenConfig(max_depth=3, max_children=2)
    config = VerifierConfig(km_budget=60_000, time_limit_seconds=120.0)
    pairs: list[tuple[str, VerificationJob, VerificationJob]] = []
    for seed, index in ((1, 1), (6, 0), (7, 1)):
        base = generate_scenario(seed, index, gen_config)
        mutant = next(
            m
            for m in grow_scenarios(base, limit=12)
            if m.mutations[-1].startswith("add service")
        )
        pairs.append(
            (
                base.name,
                VerificationJob(base.has, base.prop, config, f"{base.name}::base"),
                VerificationJob(
                    mutant.has, mutant.prop, config, f"{base.name}::edited"
                ),
            )
        )
    return pairs


def _verify(
    job: VerificationJob, summary_store=None
) -> tuple[str, int, VerificationStats]:
    """One job through :meth:`Verifier.verify`: its fingerprint status,
    KM nodes, and the verifier's stats (empty on an error)."""
    verifier = Verifier(job.has, job.config, summary_store=summary_store)
    interrupted = 0
    try:
        status = "holds" if verifier.verify(job.prop).holds else "violated"
    except BudgetExceeded as exc:
        status = "budget_exceeded"
        # completed explorations plus the one the budget interrupted
        interrupted = exc.states_explored
    except ReproError as exc:  # pragma: no cover - defensive
        return f"error: {type(exc).__name__}", 0, VerificationStats()
    return status, verifier.stats.km_nodes + interrupted, verifier.stats


def _run_incremental(
    pairs: Iterable[tuple[str, VerificationJob, VerificationJob]]
) -> tuple[float, int, list[dict]]:
    """One pass over the edit-adjacent pairs: for each, a cold verify of
    the base (filling a fresh in-memory summary store), a cold verify of
    the edited scenario (the reference cost), and a warm re-verify of the
    edited scenario against the filled store.  The warm row records how
    much exploration the store saved (``km_nodes_reused``) on top of the
    credited totals — cold and warm ``km_nodes`` agree by construction,
    so the fingerprint also pins reuse being observationally invisible."""
    from repro.service.cache import SummaryStore

    outcomes: list[dict] = []
    km_total = 0
    started = time.perf_counter()
    for name, base, edited in pairs:
        # memory-only and per-pair: every rep starts from the same empty
        # store, keeping the family deterministic across repetitions
        store = SummaryStore()
        for label, job, job_store in (
            ("cold-fill", base, store),
            ("edited-cold", edited, None),
            ("edited-warm", edited, store),
        ):
            status, km, stats = _verify(job, job_store)
            km_total += km
            outcomes.append(
                {
                    "name": f"{name}::{label}",
                    "status": status,
                    "km_nodes": km,
                    "km_nodes_fresh": km - stats.km_nodes_reused,
                    "summaries_reused": stats.summaries_reused,
                }
            )
    return time.perf_counter() - started, km_total, outcomes


#: ``incremental`` maps to pairs, not jobs — see :data:`_RUNNERS`.
_FAMILIES: dict[str, Callable[[], list]] = {
    "table1": lambda: build_suite("table1"),
    "table2": lambda: build_suite("table2"),
    "travel-lite": lambda: build_suite("travel", quick=True),
    "scenario-families": lambda: build_suite("families"),
    "incremental": _incremental_pairs,
}

#: Per-family pass runner; everything not listed uses :func:`_run_jobs`.
_RUNNERS: dict[str, Callable[[Iterable], tuple[float, int, list[dict]]]] = {
    "incremental": _run_incremental,
}


def family_names() -> tuple[str, ...]:
    return tuple(_FAMILIES)


def _run_jobs(jobs: Iterable[VerificationJob]) -> tuple[float, int, list[dict]]:
    """One pass over the jobs: (wall seconds, total KM nodes, verdicts)."""
    outcomes: list[dict] = []
    km_total = 0
    started = time.perf_counter()
    for job in jobs:
        status, km, _stats = _verify(job)
        km_total += km
        outcomes.append({"name": job.name, "status": status, "km_nodes": km})
    return time.perf_counter() - started, km_total, outcomes


def run_family(name: str, reps: int = 3) -> dict:
    """Run one family ``reps`` times; return the BENCH record dict."""
    try:
        jobs = _FAMILIES[name]()
    except KeyError:
        known = ", ".join(sorted(_FAMILIES))
        raise KeyError(f"unknown bench family {name!r} (known: {known})") from None
    # start every family cold: node serials restart per store, so another
    # family's (or an earlier run's) global cache entries would otherwise
    # be hit here, making the recorded rates and walls depend on which
    # families ran before this one in the same process
    fm.clear_caches()
    symbolic_store.clear_canonical_caches()
    runner = _RUNNERS.get(name, _run_jobs)
    walls: list[float] = []
    km_nodes = 0
    outcomes: list[dict] = []
    baseline = metrics.snapshot()
    for rep in range(max(1, reps)):
        wall, km, out = runner(jobs)
        walls.append(wall)
        if rep == 0:
            delta = metrics.since(baseline)
            counters, phases = delta["counters"], delta["phases"]
            km_nodes, outcomes = km, out
        elif out != outcomes:
            raise RuntimeError(
                f"family {name!r} is not deterministic across repetitions: "
                f"verdicts changed between rep 0 and rep {rep}"
            )
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "family": name,
        "jobs": outcomes,
        "wall_seconds": min(walls),
        "wall_seconds_all_reps": walls,
        "km_nodes": km_nodes,
        "counters": counters,
        # null = the cache was never consulted this family (not 0%)
        "rates": {
            cache: None if rate is None else round(rate, 4)
            for cache, rate in PerfCounters.rates(counters).items()
        },
        # per-phase {calls, seconds} from rep 0 — see docs/observability.md
        "phases": phases,
        "env": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    }


def _alternating(modes: tuple[str, str], reps: int) -> Iterator[tuple[str, str]]:
    """The run order of each rep of an interleaved A/B overhead
    measurement: the side that runs first alternates from rep to rep, so
    neither side always pays (or is always spared) what a rep's first
    run pays, such as a cold interpreter or allocator state."""
    first, second = modes
    for rep in range(max(1, reps)):
        yield (first, second) if rep % 2 == 0 else (second, first)


def _set_trace(on: bool) -> None:
    if on:
        trace.start(io.StringIO())
    else:
        trace.stop()


def _set_attribution(on: bool) -> None:
    ATTRIBUTION.enabled = on


def _set_coverage(on: bool) -> None:
    COVERAGE.enabled = on


#: The instrumentation switches :func:`measure_overhead` A/B-tests: name →
#: (setter, the state production runs leave it in).  Tracing is opt-in.
#: The attribution and coverage registries have their sites on the
#: verifier's hot paths (KM expansion, FM decisions, store absorb, LTL
#: tableau) and no off switch in production, so each must clear the
#: budget on its own rather than hide inside the traced side.
OVERHEAD_SWITCHES: dict[str, tuple[Callable[[bool], None], bool]] = {
    "trace": (_set_trace, False),
    "attribution": (_set_attribution, True),
    "coverage": (_set_coverage, True),
}


def measure_overhead(
    switch: str, family: str = "travel-lite", reps: int = 3
) -> dict:
    """Measure one instrumentation switch's wall-time overhead on a family.

    Runs ``reps`` interleaved (off, on) pairs — interleaving cancels
    thermal/cache drift that back-to-back blocks would bake into one
    side, and the side that runs first alternates per rep — and compares
    best-of-``reps`` walls (min vs min, the same estimator ``run_family``
    uses).  The traced side
    writes real JSONL to a scratch sink, so the cost of serialization is
    included.  Afterwards the switch is back in its production state.

    Returns ``{"switch", "family", "reps", "off_seconds", "on_seconds",
    "overhead"}`` where ``overhead`` is the relative slowdown (0.03 = 3%,
    the documented budget in docs/observability.md); negative values
    (noise) are reported raw.  Raises ``ValueError`` for a name not in
    :data:`OVERHEAD_SWITCHES`.
    """
    try:
        turn, production = OVERHEAD_SWITCHES[switch]
    except KeyError:
        raise ValueError(
            f"unknown overhead switch {switch!r} "
            f"(expected one of {', '.join(OVERHEAD_SWITCHES)})"
        ) from None
    jobs = _FAMILIES[family]()
    walls: dict[str, list[float]] = {"off": [], "on": []}
    try:
        for order in _alternating(("off", "on"), reps):
            for mode in order:
                fm.clear_caches()
                symbolic_store.clear_canonical_caches()
                turn(mode == "on")
                wall, _km, _out = _run_jobs(jobs)
                walls[mode].append(wall)
    finally:
        turn(production)
    best_off = min(walls["off"])
    best_on = min(walls["on"])
    return {
        "switch": switch,
        "family": family,
        "reps": reps,
        "off_seconds": best_off,
        "on_seconds": best_on,
        "overhead": (best_on - best_off) / best_off if best_off > 0 else 0.0,
    }


def record_families(
    out_dir: str | Path,
    families: Iterable[str] | None = None,
    reps: int = 3,
    log: Callable[[str], None] = lambda line: print(line, file=sys.stderr),
) -> list[Path]:
    """Run and write ``BENCH_<family>.json`` for each family; returns the
    written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name in families or family_names():
        log(f"bench family {name!r}: running {reps} rep(s)…")
        record = run_family(name, reps=reps)
        path = out / f"BENCH_{name}.json"
        path.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
        log(
            f"  wall {record['wall_seconds']:.3f}s  km={record['km_nodes']}  "
            f"rates {record['rates']}  → {path}"
        )
        written.append(path)
    return written


def load_record(path: str | Path) -> dict:
    data = json.loads(Path(path).read_text())
    if data.get("schema_version") not in _ACCEPTED_SCHEMA_VERSIONS:
        accepted = "/".join(str(v) for v in sorted(_ACCEPTED_SCHEMA_VERSIONS))
        raise ValueError(
            f"{path}: bench schema {data.get('schema_version')!r}, "
            f"expected one of {accepted}"
        )
    return data


def compare_records(
    current: dict, baseline: dict, threshold: float = 0.15
) -> tuple[list[str], list[str], list[str]]:
    """Compare one family record against its baseline.

    Returns ``(regressions, drifts, notes)``:

    * *regressions* — wall-time slowdowns beyond ``threshold``;
    * *drifts* — the per-job verdict fingerprint changing, which is a
      **semantic** change (different verdicts or node counts for
      identical inputs), never acceptable as noise;
    * *notes* — informative lines (wall ratios).
    """
    regressions: list[str] = []
    drifts: list[str] = []
    notes: list[str] = []
    family = current.get("family", "?")
    base_wall = baseline.get("wall_seconds", 0.0)
    cur_wall = current.get("wall_seconds", 0.0)
    if base_wall > 0:
        ratio = cur_wall / base_wall
        if ratio > 1 + threshold:
            regressions.append(
                f"{family}: wall {cur_wall:.3f}s vs baseline {base_wall:.3f}s "
                f"(×{ratio:.2f}, threshold ×{1 + threshold:.2f})"
            )
        else:
            notes.append(
                f"{family}: wall {cur_wall:.3f}s vs baseline {base_wall:.3f}s "
                f"(×{ratio:.2f})"
            )
    if current.get("jobs") != baseline.get("jobs"):
        drifts.append(
            f"{family}: verdict fingerprint drifted from baseline "
            f"(semantic change, not a perf regression)"
        )
    return regressions, drifts, notes


def compare_directories(
    current_dir: str | Path,
    baseline_dir: str | Path,
    threshold: float = 0.15,
    families: "Iterable[str] | None" = None,
) -> tuple[list[str], list[str], list[str]]:
    """Compare every ``BENCH_*.json`` in ``current_dir`` against the
    same-named file in ``baseline_dir``; returns aggregated
    ``(regressions, drifts, notes)`` per :func:`compare_records`.
    Missing baselines are notes, never failures (the soft-gate contract
    until a baseline exists).  ``families`` restricts the comparison to
    the named families — callers that just recorded a subset pass it so
    stale records from earlier runs in the same directory can't fail
    the gate."""
    regressions: list[str] = []
    drifts: list[str] = []
    notes: list[str] = []
    current_files = sorted(Path(current_dir).glob("BENCH_*.json"))
    if families is not None:
        wanted = {f"BENCH_{name}.json" for name in families}
        current_files = [p for p in current_files if p.name in wanted]
    if not current_files:
        notes.append(f"no BENCH_*.json records in {current_dir}")
    for path in current_files:
        base_path = Path(baseline_dir) / path.name
        if not base_path.exists():
            notes.append(f"{path.name}: no baseline in {baseline_dir} (skipped)")
            continue
        fam_regressions, fam_drifts, fam_notes = compare_records(
            load_record(path), load_record(base_path), threshold=threshold
        )
        regressions.extend(fam_regressions)
        drifts.extend(fam_drifts)
        notes.extend(fam_notes)
    return regressions, drifts, notes
