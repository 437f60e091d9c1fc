"""Process-global per-phase wall-clock timers.

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

Every outermost activation is timed, so the recorded seconds are exact
totals.  Each timed site is a cache miss or a whole exploration, so the
timers stay cheap: a begin/end pair with the attribution hook armed
costs about 1 µs (2-vCPU host, CPython 3.11), against ~47,000
activations in an ~11 s pass over the gallery and family suites.
Phases re-enter themselves (a child summary's KM expansion runs
*inside* the parent's), so each timer tracks its depth and only the
outermost activation is counted and timed; the accumulated seconds are
a union of wall time, never a double count.

Timing fields are observational only: they never feed back into any
verdict, witness, node count, or job hash (A/B-tested in
``tests/test_obs.py``).
"""

from __future__ import annotations

from time import perf_counter

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
    __slots__ = ("calls", "seconds", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0


class PhaseTimers:
    """A registry of named, nesting-safe wall-clock timers.

    Usage on a hot path (no context manager — the token dance keeps the
    per-call cost at a dict lookup, two integer operations and two
    clock reads)::

        token = PHASES.begin("fm")
        try:
            ...  # the work
        finally:
            PHASES.end("fm", token)

    An optional :attr:`observer` callable ``(name, seconds)`` is invoked
    for every outermost activation as it ends — the hook the attribution
    registry uses to credit fm/canon seconds to the scenario construct
    currently being explored.
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
        activation is nested inside another of the same phase)."""
        timer = self._get(name)
        timer.depth += 1
        if timer.depth > 1:
            return None
        timer.calls += 1
        return perf_counter()

    def end(self, name: str, token: float | None) -> None:
        """Leave a phase entered with :meth:`begin`."""
        timer = self._get(name)
        if timer.depth:
            timer.depth -= 1
        if token is not None:
            elapsed = perf_counter() - token
            timer.seconds += elapsed
            if self.observer is not None:
                self.observer(name, elapsed)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, float]]:
        """A plain-dict copy: ``{phase: {calls, seconds}}``."""
        return {
            name: {"calls": timer.calls, "seconds": timer.seconds}
            for name, timer in self._timers.items()
        }


#: The process-global phase-timer registry the verification stack feeds.
PHASES = PhaseTimers()
