"""A dependency-free structured tracer: spans and events to JSONL.

The tracer is process-global and off by default; when off, every
instrumentation site reduces to one attribute check, so the hot paths
pay nothing (the acceptance budget is <3% of wall time *with tracing
on*; see docs/observability.md).

Record schema — one JSON object per line, keys sorted:

* every record has ``"ev"`` (the event name) and ``"t"`` (seconds since
  :func:`start`, monotonic clock, 6 decimal places);
* span records (``"ev": "span"``) additionally carry ``"name"`` and
  ``"dur"`` (seconds), plus whatever fields the instrumentation site
  attached — spans are written once, at exit, even when the body raised
  (the record then carries ``"error"``);
* all other fields are site-specific but must be JSON-serializable and
  **deterministic**: given a deterministic verification run, the trace
  minus its timing fields (``t``/``dur``/``*seconds*``) is byte-stable
  across processes and PYTHONHASHSEED values (pinned by a subprocess
  test in ``tests/test_obs.py``).

Besides the JSONL sink, callers can subscribe in-process listeners
(:func:`add_listener`) that receive every record dict as it is emitted —
the ``--progress`` heartbeat is one.  The tracer records the PID that
enabled it and goes silent in forked children: worker processes of the
service pool must not interleave writes into the parent's trace file
(the pool re-emits per-job events parent-side instead).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, IO, Iterator

Listener = Callable[[dict], None]

class _TraceState:
    __slots__ = ("sink", "owns_sink", "listeners", "t0", "pid", "active")

    def __init__(self) -> None:
        self.sink: IO[str] | None = None
        self.owns_sink = False
        self.listeners: list[Listener] = []
        self.t0 = 0.0
        self.pid = 0
        self.active = False


_STATE = _TraceState()


def enabled() -> bool:
    """True when a trace is active *in this process* (fork-safe)."""
    return _STATE.active and _STATE.pid == os.getpid()


def start(sink: str | os.PathLike | IO[str] | None = None) -> None:
    """Begin a process-global trace.

    ``sink`` is a JSONL file path (opened for writing), an open text
    file-like object, or None for a listener-only trace (``--progress``
    without ``--trace``).  Starting while a trace is active restarts it.
    """
    stop()
    if sink is None:
        _STATE.sink = None
        _STATE.owns_sink = False
    elif hasattr(sink, "write"):
        _STATE.sink = sink  # type: ignore[assignment]
        _STATE.owns_sink = False
    else:
        _STATE.sink = open(sink, "w")
        _STATE.owns_sink = True
    _STATE.t0 = perf_counter()
    _STATE.pid = os.getpid()
    _STATE.active = True


def stop() -> None:
    """End the trace; closes the sink if :func:`start` opened it.
    Listeners registered with :func:`add_listener` stay registered."""
    if _STATE.sink is not None and _STATE.owns_sink:
        try:
            _STATE.sink.close()
        except OSError:  # pragma: no cover - defensive
            pass
    _STATE.sink = None
    _STATE.owns_sink = False
    _STATE.active = False


def add_listener(listener: Listener) -> None:
    if listener not in _STATE.listeners:
        _STATE.listeners.append(listener)


def remove_listener(listener: Listener) -> None:
    if listener in _STATE.listeners:
        _STATE.listeners.remove(listener)


def _emit(record: dict) -> None:
    if _STATE.sink is not None:
        _STATE.sink.write(
            json.dumps(record, sort_keys=True, default=str) + "\n"
        )
    for listener in _STATE.listeners:
        try:
            listener(record)
        except Exception:  # pragma: no cover — a listener must never
            pass  # poison the traced computation


def event(name: str, /, **fields: Any) -> None:
    """Emit one instant event (no-op unless the trace is active)."""
    if not enabled():
        return
    record = {"ev": name, "t": round(perf_counter() - _STATE.t0, 6)}
    record.update(fields)
    _emit(record)


@contextmanager
def span(name: str, /, **fields: Any) -> Iterator[dict]:
    """Trace a timed span; written at exit (exceptions included).

    Yields a mutable dict the body can fill with result fields::

        with trace.span("verify", property=prop.name) as extra:
            ...
            extra["km_nodes"] = stats.km_nodes
    """
    extra: dict[str, Any] = {}
    if not enabled():
        yield extra
        return
    started = perf_counter()
    try:
        yield extra
    except BaseException as exc:
        extra.setdefault("error", type(exc).__name__)
        raise
    finally:
        finished = perf_counter()
        record = {
            "ev": "span",
            "name": name,
            "t": round(started - _STATE.t0, 6),
            "dur": round(finished - started, 6),
        }
        record.update(fields)
        record.update(extra)
        _emit(record)
