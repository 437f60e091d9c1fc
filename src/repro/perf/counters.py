"""Process-global cache hit/miss counters for the verifier hot paths.

The symbolic search spends nearly all of its time in four places — store
canonicalization, Fourier–Motzkin, successor generation, and child
summaries — and each of them is backed by a memo whose effectiveness
decides whether a verification run is interactive or glacial.  This
module gives those memos one cheap, dependency-free place to report
hits and misses so ``python -m repro bench`` can record hit *rates*
alongside wall time (a regression in a rate usually explains a
regression in the time).

This module must not import any other ``repro`` module: the arith and
symbolic layers (the bottom of the dependency graph) import it.

Counter semantics (hits / misses; rate = hits / (hits + misses)):

* ``store_key``       — :meth:`ConstraintStore.canonical_key` served from
  the store's dirty-bit cache vs recomputed;
* ``constraint_canon`` — per-constraint canonical-form strings inside
  ``canonical_key`` served from the global label-keyed memo;
* ``fm_sat``          — per-component Fourier–Motzkin satisfiability
  verdicts served from the cache;
* ``fm_proj``         — whole ``project_components`` calls served from
  the projection cache;
* ``succ_memo``       — Karp–Miller successor expansions served from the
  per-``TaskVASS`` memo;
* ``child_input``     — child input-store extractions served from the
  engine memo;
* ``summary``         — child task summaries ``R_T`` served from the
  engine memo;
* ``summary_store``   — summary-memo misses served from the persistent
  cross-job summary store (decode-validated hits only; a corrupt or
  stale record counts as a miss).
* ``flock_waits`` / ``flock_acquires`` — advisory write-lock
  acquisitions on the on-disk caches that had to wait for another
  process vs total acquisitions (concurrent writers; no "rate" — the
  interesting number is the contention count itself).
"""

from __future__ import annotations

_COUNTER_NAMES = (
    "store_key_hits",
    "store_key_misses",
    "constraint_canon_hits",
    "constraint_canon_misses",
    "fm_sat_hits",
    "fm_sat_misses",
    "fm_proj_hits",
    "fm_proj_misses",
    "succ_memo_hits",
    "succ_memo_misses",
    "child_input_hits",
    "child_input_misses",
    "summary_hits",
    "summary_misses",
    "summary_store_hits",
    "summary_store_misses",
    "flock_acquires",
    "flock_waits",
)


class PerfCounters:
    """A bag of named integer counters with snapshot/diff support."""

    __slots__ = _COUNTER_NAMES

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in _COUNTER_NAMES:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy of every counter."""
        return {name: getattr(self, name) for name in _COUNTER_NAMES}

    def since(self, baseline: dict[str, int]) -> dict[str, int]:
        """Counter deltas relative to an earlier :meth:`snapshot`."""
        return {
            name: getattr(self, name) - baseline.get(name, 0)
            for name in _COUNTER_NAMES
        }

    @staticmethod
    def rates(counters: dict[str, int]) -> dict[str, float | None]:
        """Hit rates per cache from a snapshot/delta dict.

        A cache that was never consulted reports ``None`` — distinct from
        a true 0% hit rate (consulted, every lookup missed).  Renderers
        (``bench``, ``report``, suite reports) show ``None`` as ``n/a``.
        """
        rates: dict[str, float | None] = {}
        for name in _COUNTER_NAMES:
            if not name.endswith("_hits"):
                continue
            cache = name[: -len("_hits")]
            hits = counters.get(name, 0)
            misses = counters.get(f"{cache}_misses", 0)
            total = hits + misses
            rates[cache] = hits / total if total else None
        return rates


#: The process-global counter registry the hot-path caches increment.
COUNTERS = PerfCounters()
