"""Search-cost attribution: which scenario construct the time went to.

The phase timers (:mod:`repro.perf.phases`) say *where* the verifier's
wall clock went (fm / canon / expand); this module says *whose fault it
was*: every Karp–Miller node expansion, generated successor, and
Fourier–Motzkin / canonicalization second is credited to the scenario
construct that originated it — the ``(task, service)`` pair of the
:class:`~repro.verifier.task_vass.StepTag` on the expanded node.  The
paper's complexity results (conf_pods_DeutschLV16) tie coverability
blow-up to task/service structure; this registry is the instrument that
makes the blow-up legible per construct (``repro report``'s hotspot
table: "service ``book_flight``: 61% of expansions, 54% of FM time").

Like :mod:`repro.perf.counters` and :mod:`repro.perf.phases` the
registry is process-global and **always on** under the same contract —
observationally invisible (verdicts, witnesses, node counts, and job
hashes are byte-identical; A/B-tested) and within the <3% overhead
budget ``benchmarks/trace_overhead.py`` gates in CI.  It imports
nothing above :mod:`repro.perf.phases` (whose timing hook feeds the
fm/canon seconds); the VASS and verifier layers call in, never the
other way around.

Three accounting channels:

* :meth:`AttributionRegistry.record_expansion` — one per Karp–Miller
  node expansion, keyed by the tag that *created* the expanded node
  (duck-typed: anything with ``task`` and ``service`` attributes; the
  verifier's ``StepTag``).  Root nodes and foreign tags fall into the
  ``(unattributed)`` bucket — the hotspot table reports the attributed
  share, and the acceptance bar is ≥95% on real scenarios.
* :meth:`AttributionRegistry.record_successor` — one per enabled
  successor the expansion generated, keyed by the generating edge's tag.
* :meth:`AttributionRegistry.set_context` — the successor-generation
  loops in ``task_vass`` mark which (task, service) branch is currently
  being explored; the :attr:`~repro.perf.phases.PhaseTimers.observer`
  hook then credits each fm/canon activation's seconds to that context
  (exact totals: every outermost activation is timed).

Counts and depths are deterministic for a deterministic exploration
(expansion order never depends on timing); only the ``*_seconds``
fields carry wall-clock noise, and
:func:`repro.obs.report.scrub_event` strips them, so scrubbed
attribution tables are byte-stable across PYTHONHASHSEED values
(pinned by a subprocess test in ``tests/test_obs_analysis.py``).
"""

from __future__ import annotations

from typing import Hashable

from repro.perf.phases import PHASES

#: The bucket for expansions whose tag names no construct: Karp–Miller
#: root nodes (no parent tag) and non-verifier callers with opaque tags.
UNATTRIBUTED = ("", "(unattributed)")

class _Cell:
    __slots__ = (
        "task",
        "expansions",
        "successors",
        "depth_sum",
        "fm_seconds",
        "canon_seconds",
    )

    def __init__(self, task: str) -> None:
        self.task = task
        self.expansions = 0
        self.successors = 0
        self.depth_sum = 0
        self.fm_seconds = 0.0
        self.canon_seconds = 0.0


def _key_of(tag: object) -> tuple:
    """The attribution key of a successor tag: ``(task, service)`` for
    anything StepTag-shaped, :data:`UNATTRIBUTED` otherwise.

    The task half is normalized to the *service's owning* task when the
    service names one: a closing service σ^c_T appears both as the
    parent VASS's close-child edge (tag task = parent) and as T's own
    closing step (tag task = T), and they are one scenario construct —
    without the normalization the two cells would share a repr label
    and collide in :meth:`AttributionRegistry.snapshot`."""
    task = getattr(tag, "task", None)
    service = getattr(tag, "service", None)
    if task is None or service is None:
        return UNATTRIBUTED
    return (getattr(service, "task", None) or str(task), service)


class AttributionRegistry:
    """Per-(task, service) accumulators for search cost.

    Keys are kept as raw ``(task, service-ref)`` tuples on the hot path
    (hashing a frozen dataclass beats formatting its repr); they are
    stringified — deterministically, sorted — only in :meth:`snapshot`.
    """

    __slots__ = ("_cells", "_context", "enabled")

    def __init__(self) -> None:
        self._cells: dict[tuple, _Cell] = {}
        self._context: tuple | None = None
        self.enabled = True

    # ------------------------------------------------------------------
    # recording (hot path)
    # ------------------------------------------------------------------
    def _cell(self, key: tuple) -> _Cell:
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = _Cell(str(key[0]))
        return cell

    def record_expansion(self, tag: object, depth: int) -> None:
        """Count one KM node expansion against the tag that created the
        node (``depth`` is the node's spanning-tree depth)."""
        if not self.enabled:
            return
        cell = self._cell(_key_of(tag))
        cell.expansions += 1
        cell.depth_sum += depth

    def record_successor(self, tag: object) -> None:
        """Count one enabled successor against the generating edge's tag."""
        if not self.enabled:
            return
        self._cell(_key_of(tag)).successors += 1

    def set_context(self, task: str, service: Hashable) -> None:
        """Mark the construct whose successor branch is being generated;
        subsequent fm/canon activations are credited to it."""
        if self.enabled:
            self._context = (
                getattr(service, "task", None) or str(task),
                service,
            )

    def clear_context(self) -> None:
        """Leave construct scope: phase time is no longer credited
        (post-exploration work — witness concretization, serialization —
        belongs to no single construct)."""
        self._context = None

    def _on_phase(self, name: str, seconds: float) -> None:
        """:attr:`repro.perf.phases.PhaseTimers.observer` hook — fires
        once per outermost phase activation."""
        if self._context is None or not self.enabled:
            return
        if name == "fm":
            self._cell(self._context).fm_seconds += seconds
        elif name == "canon":
            self._cell(self._context).canon_seconds += seconds

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict]:
        """A plain-dict copy keyed by the service label (its repr — the
        verifier's labels are unique per scenario: internal services
        render as ``Task.service``, opening/closing as ``σ^o_T``/``σ^c_T``),
        with keys sorted for deterministic serialization."""
        table: dict[str, dict] = {}
        for key, cell in self._cells.items():
            label = key[1] if key is UNATTRIBUTED else repr(key[1])
            table[label] = {
                "task": cell.task,
                "expansions": cell.expansions,
                "successors": cell.successors,
                "depth_sum": cell.depth_sum,
                "fm_seconds": cell.fm_seconds,
                "canon_seconds": cell.canon_seconds,
            }
        return {label: table[label] for label in sorted(table)}


#: The process-global attribution registry the VASS/verifier layers feed.
ATTRIBUTION = AttributionRegistry()

# Wire the phase hook: every fm/canon activation reports its seconds
# here, to be credited to the construct context the successor-generation
# loops set.  Importing this module is what arms the hook; the engine
# and KM layers import it, so any verification run has it armed.
PHASES.observer = ATTRIBUTION._on_phase
