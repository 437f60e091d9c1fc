"""The verification engine: bottom-up ``R_T`` computation and the
top-level HLTL-FO model-checking procedure (Section 4.2, Lemma 21).

``Γ ⊨ ∀ȳ[ξ]_{T1}`` holds iff no symbolic tree of runs satisfies
``[¬ξ]_{T1}``; the engine searches for one with the negated root
automaton, summarizing child tasks by their memoized input/output/β
relations (Lemma 21's returning, lasso, and blocking paths).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import BudgetExceeded, SpecificationError
from repro.fuzz.coverage import COVERAGE
from repro.has.restrictions import validate_has
from repro.obs import metrics, trace
from repro.obs.attribution import ATTRIBUTION
from repro.perf.counters import COUNTERS
from repro.perf.phases import PHASES
from repro.has.system import HAS
from repro.has.task import Task
from repro.hltl.formulas import (
    ChildProp,
    CondProp,
    HLTLProperty,
    SetAtom,
    validate_property,
)
from repro.ltl.formulas import propositions
from repro.symbolic.store import ConstraintStore, Inconsistent
from repro.symbolic.apply import apply_condition
from repro.vass.karp_miller import (
    KMGraph,
    build_km_graph,
    rooted_witness_path,
)
from repro.vass.repeated import accepting_cycle, cycle_path
from repro.verifier.config import VerifierConfig
from repro.verifier.result import (
    SymbolicTrace,
    VerificationResult,
    VerificationStats,
    WitnessStep,
)
from repro.verifier.spec import BetaKey, CompiledProperty, beta_key
from repro.verifier.task_vass import StepTag, TaskVASS

#: Entry cap for the child input-extraction memo (keyed by child task and
#: parent canonical key).  Unlike ``max_summaries`` this bounds a pure
#: cache: hitting the cap only stops memoizing, never the search.
CHILD_INPUT_MEMO_LIMIT = 200_000


@dataclass
class TaskSummary:
    """The slice of ``R_T`` for one input type and one β (Lemma 21)."""

    outputs: dict[tuple, ConstraintStore] = field(default_factory=dict)
    nonreturning: bool = False
    km_nodes: int = 0


class Verifier:
    """Model checker for one HAS; reusable across properties."""

    def __init__(
        self,
        has: HAS,
        config: VerifierConfig | None = None,
        summary_store=None,
    ):
        self.has = has
        self.config = config or VerifierConfig()
        validate_has(has)
        #: Optional :class:`repro.service.cache.SummaryStore`: the
        #: persistent cross-job tier behind the in-memory summary memo.
        self.summary_store = summary_store
        self._summaries: dict[tuple, TaskSummary] = {}
        self._child_input_memo: dict[tuple, tuple[ConstraintStore, tuple]] = {}
        # Per completed summary: the transitive closure of the summary
        # keys its exploration consulted (dependency order, itself last).
        # A persisted record embeds its whole closure, so installing one
        # store hit reproduces every summary — and every km_nodes /
        # summaries stat credit — the cold run would have computed.
        self._summary_closures: dict[tuple, tuple] = {}
        self._dep_frames: list[dict] = []  # dict-as-ordered-set per open summary
        self._persist_keys: dict[tuple, str] = {}
        self.deadline: float | None = None
        self.compiled: CompiledProperty | None = None
        self.stats = VerificationStats()

    # ------------------------------------------------------------------
    # budgeted search
    # ------------------------------------------------------------------
    def _explore(self, vass: TaskVASS, starts, what: str) -> KMGraph:
        """Karp–Miller exploration with the configured node budget; a
        single choke point for the budget-exhausted diagnostics (and for
        the ``expand`` phase timer and exploration trace spans)."""
        with trace.span("explore", what=what) as extra:
            # snapshot only when a trace wants the delta: the attribution
            # registry itself is always on, but snapshot/diff per
            # exploration is pure reporting cost
            attr_base = ATTRIBUTION.snapshot() if trace.enabled() else None
            token = PHASES.begin("expand")
            try:
                graph = build_km_graph(
                    vass,
                    starts,
                    budget=self.config.km_budget,
                    progress_label=what,
                )
            finally:
                PHASES.end("expand", token)
                # don't let this exploration's last construct soak up
                # post-exploration fm/canon time (witness pipeline, or a
                # parent VASS that hasn't re-entered a branch yet)
                ATTRIBUTION.clear_context()
            extra["nodes"] = len(graph.nodes)
            extra["budget_exhausted"] = graph.budget_exhausted
            if attr_base is not None:
                extra["attribution"] = metrics.delta(
                    ATTRIBUTION.snapshot(), attr_base
                )
        if graph.budget_exhausted:
            COVERAGE.hit("engine:budget:boxed")
            # don't count the truncated graph in stats: the exception
            # already carries its node count (states_explored), and
            # counting both would double-report throughput
            raise BudgetExceeded(
                f"{what} exhausted the KM budget", len(graph.nodes)
            )
        self.stats.km_nodes += len(graph.nodes)
        return graph

    # ------------------------------------------------------------------
    # child I/O plumbing
    # ------------------------------------------------------------------
    def make_child_input(
        self, parent_store: ConstraintStore, child: Task
    ) -> tuple[ConstraintStore, tuple]:
        """The child's input isomorphism type: the parent's facts about the
        passed variables, rebased onto the child's input variables.

        Memoized on (child, parent canonical key): the extraction is a
        pure function of the parent store's content, and opening
        transitions re-derive the same input type from thousands of
        isomorphic parent branches.  The memoized representative is
        exactly the store the first (uncached) call would have built, so
        downstream summary keys and exploration are unchanged."""
        memo_key = (child.name, parent_store.canonical_key())
        cached = self._child_input_memo.get(memo_key)
        if cached is not None:
            COUNTERS.child_input_hits += 1
            return cached
        COUNTERS.child_input_misses += 1
        passed = list(child.opening.input_map.values())
        restricted = parent_store.restrict(passed)
        child_store = ConstraintStore(self.has.database)
        child_store.absorb(
            restricted,
            {
                parent_var: child_var
                for child_var, parent_var in child.opening.input_map.items()
            },
        )
        key = child_store.canonical_key()
        if len(self._child_input_memo) < CHILD_INPUT_MEMO_LIMIT:
            self._child_input_memo[memo_key] = (child_store, key)
        return child_store, key

    def summary(
        self, task_name: str, input_store: ConstraintStore, beta: Mapping
    ) -> TaskSummary:
        """Memoized ``R_T`` slice for (input type, β) — Lemma 21.

        The memo key ``(task, input canonical key, β)`` determines the
        child automaton ``B(T, β)`` exactly (β assigns truth values to
        the very specs the conjunction is built from), so summaries are
        shared across every opening transition, every KM branch, and —
        because the memo outlives one ``verify()`` call — across
        *different properties* checked on the same :class:`Verifier`
        whenever they agree on a task's child specs.  Hits are counted in
        ``stats.summary_hits`` and the ``summary`` perf counter."""
        key = (task_name, input_store.canonical_key(), beta_key(beta))
        cached = self._summaries.get(key)
        if cached is not None:
            COUNTERS.summary_hits += 1
            self.stats.summary_hits += 1
            self._note_summary_use(key)
            return cached
        COUNTERS.summary_misses += 1
        if len(self._summaries) >= self.config.max_summaries:
            # a budget, not an internal error: the pool maps this to the
            # graceful budget_exceeded outcome, same as the KM budget
            raise BudgetExceeded("summary memo limit exceeded")
        assert self.compiled is not None
        if self.summary_store is not None:
            loaded = self._load_persisted_summary(key)
            if loaded is not None:
                self._note_summary_use(key)
                return loaded
        task = self.has.task(task_name)
        automaton = self.compiled.automaton(task_name, beta)
        vass = TaskVASS(self, task, automaton, is_root=False, config=self.config)
        starts = list(vass.initial_states(input_store))
        summary = TaskSummary()
        # placeholder first: defends against (impossible) recursive loops
        self._summaries[key] = summary
        self._dep_frames.append({})
        with trace.span("summary", task=task_name) as extra:
            try:
                graph = self._explore(vass, starts, f"summary of {task_name}")
                COVERAGE.hit("engine:summary:computed")
                for node in graph.nodes:
                    if vass.is_returning_accepting(node.state):
                        COVERAGE.hit("engine:summary:output")
                        out = vass.output_of(node.state)
                        out_key = out.canonical_key()
                        if out_key not in summary.outputs:
                            if (
                                len(summary.outputs)
                                >= self.config.max_outputs_per_summary
                            ):
                                # never truncate silently: a dropped output
                                # type hides a child behavior from the
                                # parent and can flip the verdict
                                raise BudgetExceeded(
                                    f"summary of {task_name} exceeded "
                                    "max_outputs_per_summary"
                                )
                            summary.outputs[out_key] = out
                    elif vass.is_blocking_accepting(node.state):
                        COVERAGE.hit("engine:summary:blocking")
                        summary.nonreturning = True
                if not summary.nonreturning:
                    if accepting_cycle(graph, lambda n: vass.is_lasso_accepting(n.state)) is not None:
                        COVERAGE.hit("engine:summary:lasso")
                        summary.nonreturning = True
                summary.km_nodes = len(graph.nodes)
                extra["km_nodes"] = summary.km_nodes
                extra["outputs"] = len(summary.outputs)
                extra["nonreturning"] = summary.nonreturning
            except BaseException:
                # never memoize (or persist) a truncated summary: the memo
                # outlives this verify() call, and a partial summary left
                # behind by a budget/deadline abort would silently drop
                # the child's behaviors from a later run
                self._summaries.pop(key, None)
                self._dep_frames.pop()
                raise
        frame = self._dep_frames.pop()
        self._summary_closures[key] = (
            tuple(dep for dep in frame if dep != key) + (key,)
        )
        self._note_summary_use(key)
        self.stats.summaries += 1
        if self.summary_store is not None:
            self._persist_summary(key)
        return summary

    def _note_summary_use(self, key: tuple) -> None:
        """Record that the currently-exploring summary (if any) consulted
        ``key`` — propagating key's whole closure, so frames stay
        transitively closed."""
        if not self._dep_frames:
            return
        frame = self._dep_frames[-1]
        for dep in self._summary_closures.get(key, (key,)):
            frame.setdefault(dep, None)

    def _persistent_key(self, key: tuple) -> str:
        cached = self._persist_keys.get(key)
        if cached is None:
            # lazy import: the service layer sits above the verifier, so
            # the codec is only pulled in when a store is actually wired
            from repro.service.summaries import persistent_summary_key

            task_name, input_key, bkey = key
            cached = persistent_summary_key(
                self.has, task_name, input_key, bkey, self.config
            )
            self._persist_keys[key] = cached
        return cached

    def _load_persisted_summary(self, key: tuple) -> TaskSummary | None:
        """Install a summary (and its whole dependency closure) from the
        persistent store; returns None on any miss or malformed record."""
        from repro.service import summaries as summary_codec

        record = self.summary_store.get(self._persistent_key(key))
        decoded = (
            summary_codec.decode_record(record, self.has.database)
            if record is not None
            else None
        )
        if decoded is None or decoded[0] != key:
            COUNTERS.summary_store_misses += 1
            return None
        COUNTERS.summary_store_hits += 1
        result: TaskSummary | None = None
        for entry_key, outputs, nonreturning, km_nodes, deps in decoded[1]:
            existing = self._summaries.get(entry_key)
            if existing is None:
                if len(self._summaries) >= self.config.max_summaries:
                    raise BudgetExceeded("summary memo limit exceeded")
                existing = TaskSummary(
                    outputs=outputs, nonreturning=nonreturning, km_nodes=km_nodes
                )
                self._summaries[entry_key] = existing
                self._summary_closures[entry_key] = deps
                # credit exactly what the cold run would have counted for
                # this summary, so cold and warm totals stay identical
                self.stats.summaries += 1
                self.stats.km_nodes += km_nodes
                self.stats.summaries_reused += 1
                self.stats.km_nodes_reused += km_nodes
            if entry_key == key:
                result = existing
        return result

    def _persist_summary(self, key: tuple) -> None:
        from repro.service import summaries as summary_codec

        record = summary_codec.encode_record(
            self._summary_closures[key], self._summaries, self._summary_closures
        )
        self.summary_store.put(self._persistent_key(key), record)

    def output_store(
        self, task_name: str, input_key: tuple, beta_items: BetaKey, out_key: tuple
    ) -> ConstraintStore:
        summary = self._summaries[(task_name, input_key, frozenset(beta_items))]
        return summary.outputs[out_key]

    # ------------------------------------------------------------------
    # top-level verification
    # ------------------------------------------------------------------
    def verify(self, prop: HLTLProperty) -> VerificationResult:
        """Check ``Γ ⊨ prop``: search for a symbolic tree satisfying ¬ξ."""
        started = time.monotonic()
        self.deadline = (
            started + self.config.time_limit_seconds
            if self.config.time_limit_seconds is not None
            else None
        )
        validate_property(prop, self.has)
        _reject_set_atoms(prop)
        self.compiled = CompiledProperty(self.has, prop)
        self.stats = VerificationStats()
        # the span's metric deltas are pure reporting cost: read them
        # only when a trace wants them
        baseline = metrics.snapshot() if trace.enabled() else None
        with trace.span("verify", property=prop.name) as extra:
            result = self._verify_compiled(prop)
            extra["holds"] = result.holds
            extra["witness_kind"] = result.witness_kind
            extra["km_nodes"] = self.stats.km_nodes
            extra["summaries"] = self.stats.summaries
            if baseline is not None:
                delta = metrics.since(baseline)
                extra["phases"] = delta["phases"]
                extra["attribution"] = delta["attribution"]
        self.stats.wall_seconds = time.monotonic() - started
        return result

    def _verify_compiled(self, prop: HLTLProperty) -> VerificationResult:
        """The search proper: root exploration plus witness extraction."""
        automaton = self.compiled.root_negated_automaton()
        root = self.has.root
        vass = TaskVASS(self, root, automaton, is_root=True, config=self.config)
        starts = []
        for init_store in self._root_initial_stores():
            starts.extend(vass.initial_states(init_store))
        graph = self._explore(vass, starts, "root search")
        result = VerificationResult(
            holds=True, property_name=prop.name, stats=self.stats
        )
        # blocking counterexample
        for node in graph.nodes:
            if vass.is_blocking_accepting(node.state):
                result.holds = False
                result.witness_kind = "blocking"
                COVERAGE.hit("engine:witness:blocking")
                start, path = rooted_witness_path(node)
                result.witness = _steps_of(path)
                result.symbolic_trace = SymbolicTrace(vass, start, path)
                break
        if result.holds:
            found = accepting_cycle(graph, lambda n: vass.is_lasso_accepting(n.state))
            if found is not None:
                node, component = found
                result.holds = False
                result.witness_kind = "lasso"
                COVERAGE.hit("engine:witness:lasso")
                start, path = rooted_witness_path(node)
                cycle = cycle_path(node, component)
                result.witness = _steps_of(path) + _steps_of(cycle)
                result.loop_start = len(path)
                result.symbolic_trace = SymbolicTrace(vass, start, path, cycle)
        COVERAGE.hit(
            "engine:verdict:holds" if result.holds else "engine:verdict:violated"
        )
        return result

    def _root_initial_stores(self) -> list[ConstraintStore]:
        base = ConstraintStore(self.has.database)
        for variable in self.has.root.input_variables:
            base.node_of(variable)  # materialize the input values
        refinements = list(apply_condition(base, self.has.precondition))
        if len(refinements) > 1:
            COVERAGE.hit("engine:root:multi_start")
        return refinements


def _reject_set_atoms(prop: HLTLProperty) -> None:
    def walk(spec) -> None:
        for payload in propositions(spec.formula):
            if isinstance(payload, CondProp):
                condition = payload.condition
                from repro.logic.conditions import Exists

                while isinstance(condition, Exists):
                    condition = condition.body
                try:
                    atoms = condition.atoms()
                except Exception:
                    continue  # nested ∃ is handled natively at search time
                if any(isinstance(a, SetAtom) for a in atoms):
                    raise SpecificationError(
                        "set atoms in properties must be eliminated first "
                        "(repro.transform.eliminate_set_atoms, Lemma 30)"
                    )
            elif isinstance(payload, ChildProp):
                walk(payload.spec)

    walk(prop.root)


def _steps_of(path) -> list[WitnessStep]:
    steps: list[WitnessStep] = []
    for tag, _node in path:
        if isinstance(tag, StepTag):
            steps.append(WitnessStep(tag.task, repr(tag.service), tag.detail))
    return steps


def verify(
    has: HAS, prop: HLTLProperty, config: VerifierConfig | None = None
) -> VerificationResult:
    """One-shot convenience wrapper around :class:`Verifier`."""
    return Verifier(has, config).verify(prop)
