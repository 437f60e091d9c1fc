"""Chrome trace-event export of a recorded trace.

A trace JSONL (:mod:`repro.obs.trace`) is already the ground truth; this
module converts it — losslessly — into Chrome trace-event JSON
(:func:`to_chrome`), the interchange format that Perfetto
(https://ui.perfetto.dev), ``chrome://tracing`` and other trace
viewers import.  Spans become complete (``"ph": "X"``) events on the main track;
instant records (``km_progress``, ``suite_start``, …) become instant
(``"ph": "i"``) events; and per-job records become job-level slices —
on the main track for serial runs (``job_start``/``job_finish`` pairs),
or on synthetic per-worker lanes for ``--workers N`` runs, reconstructed
from the parent-side ``job_submit``/``job_finish`` re-emission (worker
processes never write the parent's trace, so lanes are inferred from
job intervals, not PIDs).  Every field of the original record that the
mapping itself doesn't consume rides along under ``args`` — nothing
recorded is dropped.

The exporter is a pure function of the parsed event list and writes
with sorted keys, so identical traces export to identical bytes (the
golden-file test relies on it).

CLI: ``python -m repro report FILE --chrome OUT``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

#: pid of the main (tracing) process track in the Chrome export.
MAIN_PID = 1
#: pid of the synthetic worker-lane process in the Chrome export.
WORKERS_PID = 2

#: Record keys the Chrome mapping consumes (everything else → ``args``).
_CONSUMED = frozenset({"ev", "t", "dur", "name"})


def _micros(seconds: float) -> int:
    return int(round(seconds * 1_000_000))


def _args_of(record: dict, *, keep_name: bool = False) -> dict:
    """The record's unconsumed fields — the lossless remainder."""
    consumed = _CONSUMED - {"name"} if keep_name else _CONSUMED
    return {k: v for k, v in record.items() if k not in consumed}


def _job_intervals(events: Iterable[dict]) -> tuple[list[dict], list[dict]]:
    """Split per-job records into serial slices and parallel intervals.

    Serial runs emit ``job_start`` in the tracing process, so finishes
    pair with starts by key (FIFO per key — a key can recur across
    batches in one trace).  Parallel runs emit ``job_submit`` instead,
    and the job's real start never reached the parent's clock: the
    interval is reconstructed as ``finish.t - total_seconds`` (clamped
    to the submit time), which is exact up to pool dispatch latency.
    """
    starts: dict[str, list[dict]] = {}
    submits: dict[str, list[dict]] = {}
    serial: list[dict] = []
    parallel: list[dict] = []
    for record in events:
        kind = record.get("ev")
        key = str(record.get("key", ""))
        if kind == "job_start":
            starts.setdefault(key, []).append(record)
        elif kind == "job_submit":
            submits.setdefault(key, []).append(record)
        elif kind == "job_finish":
            finish_t = float(record.get("t", 0.0))
            queue = starts.get(key)
            if queue:
                start = queue.pop(0)
                serial.append(
                    {
                        "name": str(record.get("name", key[:12])),
                        "start": float(start.get("t", finish_t)),
                        "end": finish_t,
                        "record": record,
                    }
                )
                continue
            total = float(record.get("total_seconds") or 0.0)
            begin = finish_t - total
            queue = submits.get(key)
            if queue:
                begin = max(begin, float(queue.pop(0).get("t", 0.0)))
            parallel.append(
                {
                    "name": str(record.get("name", key[:12])),
                    "start": min(begin, finish_t),
                    "end": finish_t,
                    "record": record,
                }
            )
    return serial, parallel


def _assign_lanes(intervals: list[dict]) -> int:
    """Greedy first-fit lane assignment for overlapping job intervals
    (sets ``interval["lane"]``); returns the number of lanes used."""
    ends: list[float] = []
    for interval in sorted(intervals, key=lambda iv: (iv["start"], iv["end"])):
        for lane, end in enumerate(ends):
            if end <= interval["start"]:
                interval["lane"] = lane
                ends[lane] = interval["end"]
                break
        else:
            interval["lane"] = len(ends)
            ends.append(interval["end"])
    return len(ends)


def to_chrome(events: list[dict]) -> dict:
    """The trace as a Chrome trace-event JSON object (Perfetto-loadable)."""
    serial, parallel = _job_intervals(events)
    lanes = _assign_lanes(parallel)

    timed: list[tuple[int, int, dict]] = []  # (ts, order, event) for sorting
    order = 0

    def emit(ts: int, entry: dict) -> None:
        nonlocal order
        timed.append((ts, order, entry))
        order += 1

    for record in events:
        kind = record.get("ev")
        ts = _micros(float(record.get("t", 0.0)))
        if kind == "span":
            emit(
                ts,
                {
                    "ph": "X",
                    "name": str(record.get("name", "span")),
                    "cat": "span",
                    "ts": ts,
                    "dur": _micros(float(record.get("dur", 0.0))),
                    "pid": MAIN_PID,
                    "tid": 1,
                    "args": _args_of(record),
                },
            )
        elif kind in ("job_start", "job_finish", "job_submit"):
            continue  # re-emitted below as job slices (lossless: the
            # finish record, which carries every field, rides its slice)
        else:
            emit(
                ts,
                {
                    "ph": "i",
                    "name": str(kind),
                    "cat": "event",
                    "ts": ts,
                    "pid": MAIN_PID,
                    "tid": 1,
                    "s": "t",
                    "args": _args_of(record, keep_name=True),
                },
            )
    for interval in serial:
        ts = _micros(interval["start"])
        emit(
            ts,
            {
                "ph": "X",
                "name": interval["name"],
                "cat": "job",
                "ts": ts,
                "dur": _micros(interval["end"] - interval["start"]),
                "pid": MAIN_PID,
                "tid": 1,
                "args": _args_of(interval["record"], keep_name=True),
            },
        )
    for interval in parallel:
        ts = _micros(interval["start"])
        emit(
            ts,
            {
                "ph": "X",
                "name": interval["name"],
                "cat": "job",
                "ts": ts,
                "dur": _micros(interval["end"] - interval["start"]),
                "pid": WORKERS_PID,
                "tid": interval["lane"] + 1,
                "args": _args_of(interval["record"], keep_name=True),
            },
        )

    meta: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": MAIN_PID,
            "tid": 0,
            "ts": 0,
            "args": {"name": "repro"},
        },
        {
            "ph": "M",
            "name": "thread_name",
            "pid": MAIN_PID,
            "tid": 1,
            "ts": 0,
            "args": {"name": "main"},
        },
    ]
    if lanes:
        meta.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": WORKERS_PID,
                "tid": 0,
                "ts": 0,
                "args": {"name": "repro workers"},
            }
        )
        for lane in range(lanes):
            meta.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": WORKERS_PID,
                    "tid": lane + 1,
                    "ts": 0,
                    "args": {"name": f"worker lane {lane + 1}"},
                }
            )

    timed.sort(key=lambda item: (item[0], item[1]))
    return {
        "displayTimeUnit": "ms",
        "traceEvents": meta + [entry for _ts, _order, entry in timed],
    }


def export_trace(events: list[dict], out: str | Path) -> None:
    """Write the trace to ``out`` as Chrome trace-event JSON."""
    Path(out).write_text(json.dumps(to_chrome(events), sort_keys=True) + "\n")
