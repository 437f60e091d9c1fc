"""Standard-format exports of a recorded trace.

A trace JSONL (:mod:`repro.obs.trace`) is already the ground truth; this
module converts it — losslessly — into the two interchange formats the
rest of the profiling world reads:

* **Chrome trace-event JSON** (:func:`to_chrome`) — loadable in Perfetto
  (https://ui.perfetto.dev) and ``chrome://tracing``.  Spans become
  complete (``"ph": "X"``) events on the main track; instant records
  (``km_progress``, ``suite_start``, …) become instant (``"ph": "i"``)
  events; and per-job records become job-level slices — on the main
  track for serial runs (``job_start``/``job_finish`` pairs), or on
  synthetic per-worker lanes for ``--workers N`` runs, reconstructed
  from the parent-side ``job_submit``/``job_finish`` re-emission (worker
  processes never write the parent's trace, so lanes are inferred from
  job intervals, not PIDs).  Every field of the original record that the
  mapping itself doesn't consume rides along under ``args`` — nothing
  recorded is dropped.
* **speedscope JSON** (:func:`to_speedscope`) —
  https://www.speedscope.app.  Two profiles in one file: an *evented*
  profile of the span tree (time-ordered open/close events, so the
  nesting of ``verify`` → ``explore`` → witness spans renders as a
  flamechart), and a *sampled* profile of the estimated per-phase
  seconds from :mod:`repro.perf.phases` (one weighted frame per phase —
  the breakdown table of ``repro report``, as a picture).

Both exporters are pure functions of the parsed event list and write
with sorted keys, so identical traces export to identical bytes (the
golden-file tests rely on it).

CLI: ``python -m repro report FILE --export chrome|speedscope --out F``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.obs.report import summarize
from repro.perf.phases import PHASE_NAMES, PhaseTimers

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


# ----------------------------------------------------------------------
# speedscope
# ----------------------------------------------------------------------
def _span_label(record: dict) -> str:
    """A speedscope frame name for a span: the span name plus its most
    identifying field (``explore: root search``, ``summary: Flight``)."""
    name = str(record.get("name", "span"))
    for field in ("what", "task", "property"):
        if record.get(field):
            return f"{name}: {record[field]}"
    return name


def to_speedscope(events: list[dict]) -> dict:
    """The trace as a speedscope file: the span tree as an evented
    flamechart profile plus the estimated per-phase seconds as a
    sampled profile."""
    frames: list[dict] = []
    frame_index: dict[str, int] = {}

    def frame_of(label: str) -> int:
        index = frame_index.get(label)
        if index is None:
            index = frame_index[label] = len(frames)
            frames.append({"name": label})
        return index

    # -- evented profile: properly nested open/close from span intervals
    intervals = []
    for record in events:
        if record.get("ev") != "span":
            continue
        start = float(record.get("t", 0.0))
        end = start + float(record.get("dur", 0.0))
        intervals.append((start, end, _span_label(record)))
    intervals.sort(key=lambda iv: (iv[0], -iv[1]))

    span_events: list[dict] = []
    stack: list[tuple[float, int]] = []  # (end, frame)
    cursor = 0.0
    end_value = max((end for _s, end, _l in intervals), default=0.0)

    def close_until(at: float) -> None:
        nonlocal cursor
        while stack and stack[-1][0] <= at:
            end, frame = stack.pop()
            cursor = max(cursor, end)
            span_events.append({"type": "C", "frame": frame, "at": round(cursor, 6)})

    for start, end, label in intervals:
        close_until(start)
        if stack:
            # spans recorded at exit can carry sub-microsecond overhangs
            # past their parent; clamp so the profile stays well-nested
            end = min(end, stack[-1][0])
        cursor = max(cursor, start)
        frame = frame_of(label)
        span_events.append({"type": "O", "frame": frame, "at": round(cursor, 6)})
        stack.append((max(end, cursor), frame))
    close_until(float("inf"))

    profiles: list[dict] = [
        {
            "type": "evented",
            "name": "spans",
            "unit": "seconds",
            "startValue": 0,
            "endValue": round(max(end_value, cursor), 6),
            "events": span_events,
        }
    ]

    # -- sampled profile: estimated seconds per phase, one frame each
    # (the same sources `repro report` sums: job_finish records, else
    # verify spans)
    estimate = PhaseTimers.estimate(summarize(events).phases)
    samples: list[list[int]] = []
    weights: list[float] = []
    ordered = [name for name in PHASE_NAMES if name in estimate]
    ordered += sorted(name for name in estimate if name not in PHASE_NAMES)
    for name in ordered:
        seconds = estimate[name]
        if seconds <= 0:
            continue
        samples.append([frame_of(f"phase: {name}")])
        weights.append(round(seconds, 6))
    profiles.append(
        {
            "type": "sampled",
            "name": "phases (estimated seconds)",
            "unit": "seconds",
            "startValue": 0,
            "endValue": round(sum(weights), 6),
            "samples": samples,
            "weights": weights,
        }
    )

    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": "repro trace",
        "exporter": "repro",
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": profiles,
    }


def export_trace(events: list[dict], fmt: str, out: str | Path) -> None:
    """Write the export named by ``fmt`` (``chrome`` | ``speedscope``)."""
    if fmt == "chrome":
        document = to_chrome(events)
    elif fmt == "speedscope":
        document = to_speedscope(events)
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    Path(out).write_text(json.dumps(document, sort_keys=True) + "\n")
