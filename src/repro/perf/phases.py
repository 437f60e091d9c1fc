"""Process-global, sampled per-phase wall-clock timers.

Where :mod:`repro.perf.counters` answers *how often* each hot-path cache
hit, this module answers *where the time went*: the verifier's wall
clock decomposes into a handful of phases — Fourier–Motzkin decisions
(``fm``), store canonicalization (``canon``), Karp–Miller expansion
(``expand``), and the post-verdict witness pipeline (``materialize`` /
``replay`` / ``minimize``) — and each phase accumulates its seconds into
one process-global registry that is cheap enough to stay on always.

Like the counters module, this file must not import any other ``repro``
module: the arith and symbolic layers at the bottom of the dependency
graph import it.

Two properties keep the overhead below the PR 3 instrumentation budget
(<3% of wall time, asserted in CI):

* **Sampling** — a phase is timed on every call until ``_SAMPLE_FULL``
  calls have been seen, then only on every ``_SAMPLE_EVERY``-th call;
  :meth:`PhaseTimers.estimate` scales the timed seconds back up by
  ``calls / timed``.  The sampling schedule is a pure function of the
  call count, so it is deterministic and never perturbs the search.
* **Nesting guards** — phases re-enter themselves (a child summary's KM
  expansion runs *inside* the parent's), so each timer tracks its depth
  and only the outermost activation is counted and timed; the
  accumulated seconds are a union of wall time, never a double count.

Timing fields are observational only: they never feed back into any
verdict, witness, node count, or job hash (A/B-tested in
``tests/test_obs.py``).
"""

from __future__ import annotations

from time import perf_counter

#: Time every activation until this many outermost calls were seen…
_SAMPLE_FULL = 256
#: …then time only every N-th outermost call.
_SAMPLE_EVERY = 16

#: The phase names the verification stack reports, in display order.
PHASE_NAMES = (
    "fm",
    "canon",
    "expand",
    "materialize",
    "replay",
    "minimize",
)


class _Timer:
    __slots__ = ("calls", "timed", "seconds", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.timed = 0
        self.seconds = 0.0
        self.depth = 0


class PhaseTimers:
    """A registry of named, nesting-safe, sampled wall-clock timers.

    Usage on a hot path (no context manager — the token dance keeps the
    per-call cost at a dict lookup and two integer operations when the
    call is not sampled)::

        token = PHASES.begin("fm")
        try:
            ...  # the work
        finally:
            PHASES.end("fm", token)

    An optional :attr:`observer` callable ``(name, seconds)`` is invoked
    for every *timed* (outermost, sampled-in) activation as it ends —
    the hook the attribution registry uses to credit sampled fm/canon
    seconds to the scenario construct currently being explored.  It runs
    only on sampled activations, so it inherits the sampling schedule's
    overhead bound.
    """

    __slots__ = ("_timers", "observer")

    def __init__(self) -> None:
        self._timers: dict[str, _Timer] = {}
        self.observer = None

    def _get(self, name: str) -> _Timer:
        timer = self._timers.get(name)
        if timer is None:
            timer = self._timers[name] = _Timer()
        return timer

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    def begin(self, name: str) -> float | None:
        """Enter a phase; returns a token for :meth:`end` (None when this
        activation is nested or sampled out)."""
        timer = self._get(name)
        timer.depth += 1
        if timer.depth > 1:
            return None
        timer.calls += 1
        if timer.calls <= _SAMPLE_FULL or timer.calls % _SAMPLE_EVERY == 0:
            return perf_counter()
        return None

    def end(self, name: str, token: float | None) -> None:
        """Leave a phase entered with :meth:`begin`."""
        timer = self._get(name)
        if timer.depth:
            timer.depth -= 1
        if token is not None:
            timer.timed += 1
            elapsed = perf_counter() - token
            timer.seconds += elapsed
            if self.observer is not None:
                self.observer(name, elapsed)

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Directly account fully-measured time to a phase (used when a
        caller already holds both endpoints)."""
        timer = self._get(name)
        timer.calls += calls
        timer.timed += calls
        timer.seconds += seconds

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, float]]:
        """A plain-dict copy: ``{phase: {calls, timed, seconds}}``."""
        return {
            name: {
                "calls": timer.calls,
                "timed": timer.timed,
                "seconds": timer.seconds,
            }
            for name, timer in self._timers.items()
        }

    @staticmethod
    def estimate(delta: dict[str, dict]) -> dict[str, float]:
        """Estimated wall seconds per phase from a snapshot/delta dict,
        scaling sampled time back up to the full call count."""
        estimates: dict[str, float] = {}
        for name, entry in delta.items():
            calls = entry.get("calls", 0)
            timed = entry.get("timed", 0)
            seconds = entry.get("seconds", 0.0)
            if timed and calls > timed:
                seconds = seconds * (calls / timed)
            estimates[name] = seconds
        return estimates

    def reset(self) -> None:
        self._timers.clear()


#: The process-global phase-timer registry the verification stack feeds.
PHASES = PhaseTimers()
