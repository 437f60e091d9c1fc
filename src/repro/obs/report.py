"""Offline trace analysis: ``python -m repro report <trace.jsonl>``.

Reads a trace written by :mod:`repro.obs.trace` and renders

* a **per-phase time breakdown** — the phase timers
  (:mod:`repro.perf.phases`) attached to each ``job_finish`` event (or,
  for bare-engine traces, to each ``verify`` span), with KM expansion
  reported *exclusive* of the Fourier–Motzkin and canonicalization time
  nested inside it, and an ``other`` row absorbing unattributed wall
  time so the rows sum to the recorded wall clock;
* a **cache-rate table** — hit/miss totals and rates per hot-path cache,
  rendering caches that were never consulted as ``n/a`` (distinct from a
  true 0% hit rate);
* a **hotspot table** — the per-(task, service) search attribution from
  :mod:`repro.obs.attribution`: which scenario construct the KM
  expansions, generated successors, and FM/canonicalization time
  belong to ("service ``book_flight``: 61% of expansions, 54% of
  FM time") — the direct answer to *which part of my scenario is slow*;
* the slowest jobs, for picking what to dig into next.

:func:`scrub_event` strips the timing fields from a record; what remains
must be deterministic for a deterministic run (the property the
hash-seed subprocess test in ``tests/test_obs.py`` pins).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.obs import metrics
from repro.obs.attribution import UNATTRIBUTED
from repro.perf.counters import PerfCounters
from repro.perf.phases import PHASE_NAMES

#: Exact record keys that carry timing (stripped by :func:`scrub_event`).
_TIMING_KEYS = frozenset({"t", "dur", "phases", "rates"})


def scrub_event(record: dict) -> dict:
    """The record minus its timing fields: drops ``t``/``dur``, the
    phase/rate blocks, and any key mentioning seconds, recursively."""
    scrubbed = {}
    for key, value in record.items():
        if key in _TIMING_KEYS or "seconds" in key:
            continue
        scrubbed[key] = scrub_event(value) if isinstance(value, dict) else value
    return scrubbed


def load_events(path: str | Path) -> list[dict]:
    """Parse a trace JSONL file; raises ValueError naming the bad line."""
    events: list[dict] = []
    with Path(path).open() as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from None
            if not isinstance(record, dict) or "ev" not in record:
                raise ValueError(f"{path}:{lineno}: not a trace record")
            events.append(record)
    return events


@dataclass
class TraceSummary:
    """Aggregates of one trace file (see :func:`summarize`)."""

    jobs: list[dict] = field(default_factory=list)
    wall_seconds: float = 0.0
    phases: dict[str, dict] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    attribution: dict[str, dict] = field(default_factory=dict)
    events: int = 0

    def phase_breakdown(self) -> list[tuple[str, float, int]]:
        """Rows of ``(label, seconds, calls)`` summing to wall_seconds.

        ``expand`` is reported exclusive of the fm/canon time nested in
        it; ``other`` absorbs the unattributed remainder (clamped at 0).
        """
        spent = {name: entry.get("seconds", 0.0) for name, entry in self.phases.items()}
        calls = {name: entry.get("calls", 0) for name, entry in self.phases.items()}
        fm = spent.get("fm", 0.0)
        canon = spent.get("canon", 0.0)
        expand = spent.get("expand", 0.0)
        rows: list[tuple[str, float, int]] = [
            ("fm", fm, calls.get("fm", 0)),
            ("canon", canon, calls.get("canon", 0)),
            (
                "expand (excl. fm/canon)",
                max(0.0, expand - fm - canon),
                calls.get("expand", 0),
            ),
        ]
        for name in PHASE_NAMES:
            if name in ("fm", "canon", "expand"):
                continue
            rows.append((name, spent.get(name, 0.0), calls.get(name, 0)))
        accounted = sum(seconds for _name, seconds, _calls in rows)
        rows.append(("other (unattributed)", max(0.0, self.wall_seconds - accounted), 0))
        return rows


def summarize(events: Iterable[dict]) -> TraceSummary:
    """Aggregate a trace: per-job records from ``job_finish`` events, or —
    for bare-engine traces without the service layer — ``verify`` spans."""
    summary = TraceSummary()
    verify_spans: list[dict] = []
    for record in events:
        summary.events += 1
        kind = record.get("ev")
        if kind == "job_finish":
            summary.jobs.append(record)
        elif kind == "span" and record.get("name") == "verify":
            verify_spans.append(record)
    sources = summary.jobs if summary.jobs else verify_spans
    totals = {kind: getattr(summary, kind) for kind in metrics.KINDS}
    for record in sources:
        if summary.jobs:
            summary.wall_seconds += record.get(
                "total_seconds", record.get("wall_seconds", 0.0)
            )
        else:
            summary.wall_seconds += record.get("dur", 0.0)
        metrics.merge(totals, record)
    return summary


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _format_rate(rate: float | None) -> str:
    return "n/a" if rate is None else f"{rate:6.1%}"


#: Hotspot rows rendered before the rest collapses into ``(+N more)``.
_HOTSPOT_ROWS = 12


def render_attribution(attribution: dict[str, dict], rows: int = _HOTSPOT_ROWS) -> list[str]:
    """The search-hotspot table: one row per (task, service) construct,
    sorted by expansion count, with each construct's share of the total
    expansions and of the fm/canon seconds credited to constructs."""
    total_exp = sum(e.get("expansions", 0) for e in attribution.values())
    total_fm = sum(e.get("fm_seconds", 0.0) for e in attribution.values())
    total_canon = sum(e.get("canon_seconds", 0.0) for e in attribution.values())
    unattributed = attribution.get(UNATTRIBUTED[1], {}).get("expansions", 0)
    attributed = total_exp - unattributed
    lines = ["search hotspots (by construct):"]
    lines.append(
        f"  {'task':<14s} {'service':<22s} {'expand':>8s} {'share':>7s} "
        f"{'succ':>8s} {'fm':>7s} {'canon':>7s} {'depth':>7s}"
    )
    ordered = sorted(
        attribution.items(),
        key=lambda kv: (-kv[1].get("expansions", 0), kv[0]),
    )
    for label, entry in ordered[:rows]:
        expansions = entry.get("expansions", 0)
        share = expansions / total_exp if total_exp else 0.0
        fm_share = entry.get("fm_seconds", 0.0) / total_fm if total_fm else 0.0
        canon_share = (
            entry.get("canon_seconds", 0.0) / total_canon if total_canon else 0.0
        )
        depth = entry.get("depth_sum", 0) / expansions if expansions else 0.0
        task = entry.get("task", "") or "—"
        service = label
        if label.startswith(f"{task}."):
            service = label[len(task) + 1 :]
        lines.append(
            f"  {task:<14s} {service:<22s} {expansions:>8d} {share:>7.1%} "
            f"{entry.get('successors', 0):>8d} {fm_share:>7.1%} "
            f"{canon_share:>7.1%} {depth:>7.1f}"
        )
    if len(ordered) > rows:
        lines.append(f"  (+{len(ordered) - rows} more constructs)")
    if total_exp:
        lines.append(
            f"  attributed {attributed / total_exp:.1%} of {total_exp} "
            f"expansions to {sum(1 for k in attribution if k != UNATTRIBUTED[1])} "
            f"(task, service) pairs"
        )
    return lines


def render(summary: TraceSummary, top: int = 5) -> str:
    """The human-readable report for one :class:`TraceSummary`."""
    lines: list[str] = []
    lines.append(
        f"{summary.events} trace events, {len(summary.jobs)} jobs, "
        f"wall {summary.wall_seconds:.3f}s"
    )
    lines.append("")
    lines.append("per-phase time breakdown:")
    lines.append(f"  {'phase':<26s} {'seconds':>9s} {'share':>7s} {'calls':>9s}")
    wall = summary.wall_seconds
    for label, seconds, calls in summary.phase_breakdown():
        share = seconds / wall if wall > 0 else 0.0
        calls_text = str(calls) if calls else "—"
        lines.append(
            f"  {label:<26s} {seconds:9.3f} {share:7.1%} {calls_text:>9s}"
        )
    lines.append(f"  {'total (wall)':<26s} {wall:9.3f} {1:7.1%}")
    if summary.counters:
        lines.append("")
        lines.append("cache rates:")
        lines.append(f"  {'cache':<18s} {'hits':>10s} {'misses':>10s} {'rate':>7s}")
        rates = PerfCounters.rates(summary.counters)
        for cache in sorted(rates):
            hits = summary.counters.get(f"{cache}_hits", 0)
            misses = summary.counters.get(f"{cache}_misses", 0)
            lines.append(
                f"  {cache:<18s} {hits:>10d} {misses:>10d} "
                f"{_format_rate(rates[cache]):>7s}"
            )
    if summary.attribution:
        lines.append("")
        lines.extend(render_attribution(summary.attribution))
    slow = sorted(
        summary.jobs,
        key=lambda r: r.get("total_seconds", r.get("wall_seconds", 0.0)),
        reverse=True,
    )[:top]
    if slow:
        lines.append("")
        lines.append(f"slowest jobs (top {len(slow)}):")
        for record in slow:
            wall_job = record.get("total_seconds", record.get("wall_seconds", 0.0))
            lines.append(
                f"  {wall_job:8.3f}s  {record.get('status', '?'):<16s} "
                f"km={record.get('km_nodes', 0):<8d} {record.get('name', '?')}"
            )
    return "\n".join(lines)
