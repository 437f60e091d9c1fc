"""The one read path over the process-global metric registries.

The cache counters (:data:`repro.perf.counters.COUNTERS`), the phase
timers (:data:`repro.perf.phases.PHASES`) and the per-(task,
service) attribution (:data:`repro.obs.attribution.ATTRIBUTION`) record
on their own hot paths.  Every per-job, per-span and per-batch read goes
through here: :func:`snapshot` and :func:`since` for a job's or a span's
deltas, :func:`delta` for one kind, and :func:`merge` for every sum.

A kind is a flat ``{name: number}`` table (counters) or a table of rows
``{label: {field: value}}`` (phases, attribution).  The coverage
registry is a feature set that only the fuzz campaign reads, so it is
not a kind.
"""

from __future__ import annotations

from repro.obs.attribution import ATTRIBUTION
from repro.perf.counters import COUNTERS
from repro.perf.phases import PHASES

#: The metric kinds, and the field names a ``JobOutcome`` and a
#: ``job_finish`` trace event carry them under.
KINDS = ("counters", "phases", "attribution")

_NUMBER = (int, float)


def snapshot() -> dict[str, dict]:
    """A plain-dict copy of every registry, keyed by kind."""
    return {
        "counters": COUNTERS.snapshot(),
        "phases": PHASES.snapshot(),
        "attribution": ATTRIBUTION.snapshot(),
    }


def delta(now: dict, base: dict) -> dict:
    """The change in one kind from ``base`` to ``now``.

    A flat number is always reported, zero included.  A row is reported
    only if one of its numbers changed; its non-numbers (attribution's
    ``task``) pass through."""
    out: dict = {}
    for name, value in now.items():
        old = base.get(name)
        if not isinstance(value, dict):
            out[name] = value - (old or 0)
        elif value != old:  # most rows of a long-lived registry are idle
            old = old or {}
            row = {
                field: v - old.get(field, 0) if isinstance(v, _NUMBER) else v
                for field, v in value.items()
            }
            if any(row[f] for f, v in value.items() if isinstance(v, _NUMBER)):
                out[name] = row
    return out


def since(base: dict) -> dict[str, dict]:
    """Every kind's :func:`delta` from an earlier :func:`snapshot`."""
    now = snapshot()
    return {kind: delta(now[kind], base.get(kind, {})) for kind in KINDS}


def merge(into: dict, record) -> None:
    """Add the kinds ``record`` carries into ``into``.

    ``record`` is a :func:`since` delta or a trace record (a dict) or a
    :class:`~repro.service.jobs.JobOutcome` (attributes).  Numbers add;
    rows merge field by field, and a row's non-numbers keep their first
    value.  A kind or row that is not a dict is skipped: trace files come
    from outside the process."""
    for kind in KINDS:
        if isinstance(record, dict):
            source = record.get(kind)
        else:
            source = getattr(record, kind, None)
        if not isinstance(source, dict):
            continue
        totals = into.setdefault(kind, {})
        if kind == "counters":
            _add(totals, source)
            continue
        for label, row in source.items():
            if isinstance(row, dict):
                _add(totals.setdefault(label, {}), row)


def _add(into: dict, values: dict) -> None:
    for name, value in values.items():
        if isinstance(value, _NUMBER):
            into[name] = into.get(name, 0) + value
        else:
            into.setdefault(name, value)
