"""Semantic-coverage registry: which verifier code regions a run fired.

The differential fuzzer's classic failure mode is unfalsifiable health:
"the campaign found nothing tonight" says nothing when every generated
scenario exercises the same handful of verifier branches.  This module
gives the campaign a measured coverage signal: a process-global,
dependency-free registry (the :mod:`repro.perf.counters` /
:mod:`repro.obs.attribution` pattern) that the verifier's interesting
code regions report into — engine summary/witness branches, Karp–Miller
frontier events, Fourier–Motzkin component outcomes, store absorb
steps, LTL tableau expansion shapes, the Definition-8/9 concrete-run
checkers, and the witness pipeline — as small stable *feature* strings.

The fuzz harness snapshots the features fired per scenario
(:meth:`CoverageRegistry.unit`), the campaign keeps the union as its
*frontier*, and guided generation (``python -m repro fuzz --guided``)
scores candidate scenarios by how many frontier-novel features they
fire.  Reports and the campaign coverage map persist canonical sorted
feature lists, so coverage is diffable run-over-run.

Contract (shared with the counters/phases/attribution registries):

* **dependency-free** — imports nothing from ``repro``; the arith,
  symbolic, LTL, runtime, VASS, verifier, and witness layers all call
  in, never the other way around (``repro.fuzz.__init__`` is lazy, so
  importing this module never drags the fuzz harness up the stack);
* **observationally invisible** — :meth:`CoverageRegistry.hit` only
  records; verdicts, witnesses, node counts, and job content hashes are
  byte-identical with the registry enabled or disabled (A/B-tested in
  ``tests/test_coverage.py``) and the cost stays inside the <3%
  instrumentation budget ``benchmarks/trace_overhead.py`` gates;
* **deterministic** — every feature site fires as a deterministic
  consequence of the (deterministic) search, and snapshots are sorted,
  so coverage sets are byte-stable across processes and
  ``PYTHONHASHSEED`` values (pinned by a subprocess test).

Feature names are ``layer:region[:case]``.  :data:`FEATURES` is the
closed inventory — a test asserts campaigns never emit a name outside
it, which keeps the inventory (and docs/testing.md's copy of it) honest.
"""

from __future__ import annotations

from typing import Iterator

#: The closed feature inventory: every name the instrumented code
#: regions may report, with a one-line description.  Adding a feature
#: means adding its site *and* this row (docs/testing.md renders this
#: table; ``tests/test_coverage.py`` asserts emitted ⊆ inventory).
FEATURES: dict[str, str] = {
    # --- verification engine (repro.verifier.engine) ------------------
    "engine:verdict:holds": "a property verified as holding",
    "engine:verdict:violated": "a property verified as violated",
    "engine:witness:blocking": "root search found a blocking counterexample",
    "engine:witness:lasso": "root search found a lasso counterexample",
    "engine:budget:boxed": "an exploration exhausted the KM node budget",
    "engine:summary:computed": "a child task summary R_T was computed",
    "engine:summary:output": "a summary recorded a returning output store",
    "engine:summary:blocking": "a summary recorded a blocking (non-returning) path",
    "engine:summary:lasso": "a summary recorded a lasso (non-returning) path",
    "engine:root:multi_start": "the precondition split the root start into cases",
    # --- Karp–Miller frontier (repro.vass.karp_miller) ----------------
    "km:omega_accel": "a counter was ω-accelerated against a path ancestor",
    "km:cover_prune": "a successor merged into an existing KM label",
    "km:dup_edge": "an exact duplicate successor edge was dropped",
    "km:succ_disabled": "a successor was disabled by a negative counter",
    "km:budget_box": "KM construction stopped on the expansion budget",
    # --- Fourier–Motzkin (repro.arith.fm) -----------------------------
    "fm:sat": "a constraint component was decided satisfiable",
    "fm:unsat": "a constraint component was decided unsatisfiable",
    "fm:diseq_split": "satisfiability used the disequality convexity split",
    "fm:proj:exact": "a projection was exact",
    "fm:proj:approx": "a projection dropped a live disequality (inexact)",
    "fm:proj:empty": "a projection collapsed to an unsatisfiable system",
    # --- symbolic store absorb (repro.symbolic.store) -----------------
    "store:absorb:input_binding": "absorb translated a mapped variable",
    "store:absorb:fresh_class": "absorb created an anonymous class for a live root",
    "store:absorb:null_fact": "absorb replayed a null/not-null fact",
    "store:absorb:navigation": "absorb replayed a navigation edge",
    "store:absorb:disequality": "absorb replayed a disequality",
    "store:absorb:numeric": "absorb replayed a numeric constraint",
    # --- LTL tableau (repro.ltl.automaton) ----------------------------
    "ltl:expand:until": "tableau expanded an Until obligation",
    "ltl:expand:release": "tableau expanded a Release obligation",
    "ltl:expand:next": "tableau deferred a Next obligation",
    "ltl:expand:or": "tableau branched on a disjunction",
    "ltl:expand:and": "tableau flattened a conjunction",
    "ltl:expand:contradiction": "a tableau branch died on a literal conflict",
    # --- Definition 8/9 checkers (repro.runtime.local_run) ------------
    "sim:check:internal": "a concrete internal transition was checked",
    "sim:check:open_child": "a concrete child-opening step was checked",
    "sim:check:close_child": "a concrete child-closing step was checked",
    "sim:check:self_close": "a concrete σ^c_T self-closing step was checked",
    "sim:check:blocking_segment": "a final segment left children open (blocking prefix)",
    "sim:reject": "a prescribed concrete run was rejected (RunError)",
    # --- witness pipeline (repro.witness) -----------------------------
    "witness:confirmed": "a concrete witness passed replay validation",
    "witness:seam_pin": "lasso materialization pinned the seam valuation",
    "witness:set_stabilized": "lasso replay needed the set-stabilization rule",
    "witness:shrink:chunk": "minimization dropped a step chunk",
    "witness:shrink:numeric": "minimization shrank a numeric value",
    "witness:shrink:rows": "minimization pruned database rows",
}


class _Unit:
    """One collection scope (typically: one fuzz scenario's whole
    differential check).  Context-manager handle returned by
    :meth:`CoverageRegistry.unit`; iterate or call :meth:`features`
    for the canonical sorted tuple."""

    __slots__ = ("_fired", "_registry")

    def __init__(self, registry: "CoverageRegistry") -> None:
        self._fired: set[str] = set()
        self._registry = registry

    def features(self) -> tuple[str, ...]:
        return tuple(sorted(self._fired))

    def __iter__(self) -> Iterator[str]:
        return iter(self.features())

    def __len__(self) -> int:
        return len(self._fired)

    def __enter__(self) -> "_Unit":
        self._registry._units.append(self._fired)
        return self

    def __exit__(self, *exc_info) -> None:
        # units exit innermost first; pop by identity, since
        # ``list.remove`` would detach the first *equal* set
        units = self._registry._units
        assert units and units[-1] is self._fired, "units exit innermost first"
        units.pop()


class CoverageRegistry:
    """Process-global set of fired coverage features.

    ``hit`` is the hot-path entry point: a guarded ``set.add`` (plus one
    per active collection unit).  Sites pass interned literal strings,
    so the common case costs one dict-hash of an already-hashed str.
    """

    __slots__ = ("enabled", "_global", "_units")

    def __init__(self) -> None:
        self.enabled = True
        self._global: set[str] = set()
        self._units: list[set[str]] = []

    # ------------------------------------------------------------------
    # recording (hot path)
    # ------------------------------------------------------------------
    def hit(self, feature: str) -> None:
        """Record that ``feature``'s code region fired."""
        if not self.enabled:
            return
        self._global.add(feature)
        units = self._units
        if units:
            for fired in units:
                fired.add(feature)

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def unit(self) -> _Unit:
        """A context manager collecting the features fired inside it
        (in addition to the global cumulative set).  Units nest; each
        sees every feature fired while it is active."""
        return _Unit(self)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple[str, ...]:
        """The canonical (sorted) tuple of every feature fired so far
        in this process."""
        return tuple(sorted(self._global))

    def __contains__(self, feature: str) -> bool:
        return feature in self._global

    def __len__(self) -> int:
        return len(self._global)

    def reset(self) -> None:
        """Forget all recorded features (tests, campaign isolation);
        active collection units keep what they already saw."""
        self._global.clear()


#: The process-global coverage registry the instrumented layers feed.
COVERAGE = CoverageRegistry()
