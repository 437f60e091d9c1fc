"""The per-task symbolic transition system ``V(T, β)`` (Section 4.2).

States combine a constraint store (partial isomorphism type), the Büchi
automaton state, the child bookkeeping ``ō`` (stage + guessed β and output
per child), and the input-bound counter bits ``c̄_ib``; the Karp–Miller
vector dimensions are the (non-input-bound) TS-isomorphism types.

Transitions implement the symbolic successor relation of Definition 17:

* internal services — pre-condition refinement, TS-type totalization of
  the inserted tuple, restriction to the input variables, post-condition
  refinement on fresh variables, retrieval imposition, counter update
  ``ā(δ, τ̂, τ̂′, c̄_ib)``;
* child opening — guard refinement, input-type extraction, guesses of the
  child's β and output (from the memoized child summary R_Tc), input
  snapshot pinning;
* child closing — absorption of the guessed output type, restriction-(2)
  overwrite semantics, unpinning;
* self closing — guard refinement, terminal state.

Every transition simultaneously advances the Büchi automaton, refining the
store so the transition's condition literals definitely hold.

The successor relation is deterministic and depends on the KM counter
vector only through its TS-type *support* (Definition 17's counter update
``ā(δ, τ̂, τ̂′, c̄_ib)`` reads availability, never magnitudes), which is
what makes the per-(state, support) successor memo of
:meth:`TaskVASS.successors` an exact, invisible cache — see
docs/performance.md.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping

from repro.errors import BudgetExceeded, VerificationError
from repro.has.services import InternalService, SetUpdate
from repro.has.task import Task
from repro.hltl.formulas import ChildProp, CondProp, ServiceProp
from repro.logic.conditions import Condition, Not
from repro.logic.terms import Variable, VarKind
from repro.obs.attribution import ATTRIBUTION
from repro.perf.counters import COUNTERS
from repro.ltl.automaton import Automaton, Transition
from repro.runtime import labels
from repro.runtime.labels import ServiceRef
from repro.symbolic.apply import apply_condition
from repro.symbolic.nodes import Sort
from repro.symbolic.store import ConstraintStore, Inconsistent
from repro.symbolic.tstypes import (
    TSType,
    impose_ts_type,
    insertion_vector,
    ts_slots,
    ts_type_of,
)
from repro.verifier.config import VerifierConfig
from repro.verifier.spec import BetaKey

if TYPE_CHECKING:  # pragma: no cover
    from repro.verifier.engine import Verifier

#: Entry cap for the per-task successor memo (symbolic transitions keyed
#: by state and counter support).  A pure cache: hitting the cap only
#: stops memoizing.
SUCCESSOR_MEMO_LIMIT = 200_000

# child status tuples (hashable parts of the state key)
INIT = ("init",)
CLOSED = ("closed",)
BOT = ("bot",)


@dataclass
class SymState:
    """One state of V(T, β).  ``key`` is the hashable identity."""

    store: ConstraintStore
    q: object
    o_bar: tuple  # sorted tuple of (child_name, status)
    ib: frozenset  # input-bound TS-types currently present
    returning: bool = False
    service: ServiceRef | None = None

    _key: tuple | None = field(default=None, repr=False)

    @property
    def key(self) -> tuple:
        if self._key is None:
            self._key = (
                self.store.canonical_key(),
                self.q,
                self.o_bar,
                self.ib,
                self.returning,
            )
        return self._key

    def status_of(self, child: str):
        for name, status in self.o_bar:
            if name == child:
                return status
        return INIT

    def with_status(self, child: str, status: tuple | None) -> tuple:
        entries = [(n, s) for n, s in self.o_bar if n != child]
        if status is not None and status != INIT:
            entries.append((child, status))
        return tuple(sorted(entries))

    def active_children(self) -> list[tuple[str, tuple]]:
        return [(n, s) for n, s in self.o_bar if s[0] == "active"]


@dataclass(frozen=True)
class StepTag:
    """Witness metadata for one symbolic transition.

    ``inserted`` / ``retrieved`` carry the TS-isomorphism types chosen for
    the artifact-relation update (when any), so witness concretization can
    re-impose the same snapshot when replaying the step.
    """

    task: str
    service: ServiceRef
    detail: str = ""
    inserted: TSType | None = None
    retrieved: TSType | None = None


def _letter_plan(transition: Transition) -> tuple:
    """``(payload, required, condition)`` per literal of the transition,
    in the canonical (repr-sorted) order :meth:`TaskVASS._match_letter`
    checks them; ``condition`` is the condition a :class:`CondProp`
    literal applies (negated when the literal is negative), None for
    other payloads.

    Built once per transition and memoized on the (frozen) transition
    object: the negation is then the same ``Not`` object on every call,
    so the rewrite plan that ``apply_condition`` memoizes on it is
    reused too."""
    plan = transition.__dict__.get("_letter_plan")
    if plan is None:
        plan = tuple(
            (
                payload,
                required,
                (payload.condition if required else Not(payload.condition))
                if isinstance(payload, CondProp)
                else None,
            )
            for payload, required in sorted(transition.literals, key=repr)
        )
        object.__setattr__(transition, "_letter_plan", plan)
    return plan


class TaskVASS:
    """Implicit VASS for one task under one automaton B(T, β)."""

    def __init__(
        self,
        engine: "Verifier",
        task: Task,
        automaton: Automaton,
        is_root: bool,
        config: VerifierConfig,
    ):
        self.engine = engine
        self.task = task
        self.automaton = automaton
        self.is_root = is_root
        self.config = config
        self.slots = ts_slots(task.set_variables, task.input_variables)
        self.registry: list[SymState] = []
        self._ids: dict[tuple, int] = {}
        self._succ_memo: dict[tuple, list] = {}
        self.deadline: float | None = getattr(engine, "deadline", None)

    # ------------------------------------------------------------------
    def intern(self, state: SymState) -> int:
        """Dense integer id of a state, unifying states whose keys —
        store canonical key, Büchi state, ō, c̄_ib — coincide.  Interning
        is what folds the unbounded branching of condition refinement
        back into the finite control states Lemma 21's argument needs."""
        key = state.key
        state_id = self._ids.get(key)
        if state_id is None:
            state_id = len(self.registry)
            self._ids[key] = state_id
            self.registry.append(state)
        return state_id

    def state(self, state_id: int) -> SymState:
        """The interned state for an id (inverse of :meth:`intern`)."""
        return self.registry[state_id]

    def _refinements(
        self, store: ConstraintStore, condition: Condition
    ) -> Iterator[ConstraintStore]:
        """``apply_condition(store, condition)``, lazily, refusing more
        than ``max_condition_branches`` refinements: a dropped branch
        hides behaviors from the search and can flip the verdict, so the
        (cap+1)-th refinement raises :class:`BudgetExceeded`."""
        refinements = apply_condition(store, condition)
        yield from itertools.islice(refinements, self.config.max_condition_branches)
        if next(refinements, None) is not None:
            raise BudgetExceeded(
                f"a condition of {self.task.name} exceeded "
                "max_condition_branches",
                len(self.registry),
            )

    # ------------------------------------------------------------------
    # initial states
    # ------------------------------------------------------------------
    def initial_states(
        self, input_store: ConstraintStore
    ) -> Iterator[tuple[int, dict, object]]:
        """(key, zero-vector, payload) triples for the KM engine."""
        for state in self.initial_symstates(input_store):
            yield self.intern(state), {}, None

    def initial_symstates(self, input_store: ConstraintStore) -> Iterator[SymState]:
        """The un-interned initial states (witness concretization reads
        their stores directly)."""
        base = input_store.copy()
        inputs = set(self.task.input_variables)
        try:
            for variable in self.task.variables:
                if variable in inputs:
                    continue
                node = base.node_of(variable)
                if variable.kind is VarKind.ID:
                    base.assert_null(node)
                else:
                    base.assert_eq(node, base.const(0))
        except Inconsistent:
            return
        opening = labels.opening(self.task.name)
        proto = SymState(store=base, q=None, o_bar=(), ib=frozenset())
        for q0 in self.automaton.initial:
            for transition in self.automaton.successors(q0):
                for refined in self._match_letter(proto, base, opening, transition, None):
                    yield SymState(
                        store=refined,
                        q=transition.target,
                        o_bar=(),
                        ib=frozenset(),
                        service=opening,
                    )

    # ------------------------------------------------------------------
    # the KM interface
    # ------------------------------------------------------------------
    def successors(
        self, state_id: int, vector: Mapping
    ) -> Iterator[tuple[Mapping, int, StepTag]]:
        """Interned symbolic successors, memoized per (state, support).

        The successor relation reads the KM counter vector only through
        the *support* of its TS-type dimensions (which types have at
        least one tuple available for retrieval — Definition 17's
        ``ā(δ, τ̂, τ̂′, c̄_ib)`` never inspects magnitudes), so expansions
        of KM nodes that share the control state and counter support are
        literally identical and are served from a memo.  Generation is
        deterministic, so a memo hit reproduces the uncached expansion
        exactly — verdicts, counts, and witnesses are unchanged.
        """
        state = self.state(state_id)
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("verification time limit exceeded", len(self.registry))
        support = frozenset(
            dim
            for dim, value in vector.items()
            if value > 0 and isinstance(dim, TSType)
        )
        key = (state_id, support)
        memo = self._succ_memo.get(key)
        if memo is not None:
            COUNTERS.succ_memo_hits += 1
            for delta, successor_id, tag in memo:
                yield dict(delta), successor_id, tag
            return
        COUNTERS.succ_memo_misses += 1
        expansion = [
            (delta, self.intern(successor), tag)
            for delta, successor, tag in self.successor_states(state, vector)
        ]
        if len(self._succ_memo) < SUCCESSOR_MEMO_LIMIT:
            self._succ_memo[key] = expansion
        for delta, successor_id, tag in expansion:
            yield dict(delta), successor_id, tag

    def successor_states(
        self, state: SymState, vector: Mapping
    ) -> Iterator[tuple[Mapping, SymState, StepTag]]:
        """The symbolic successor relation with un-interned states.

        Witness concretization re-derives transitions through this entry
        point: the yielded states' stores share node identity with the
        source store, which the KM interning discards."""
        if state.returning:
            return
        yield from self._internal_transitions(state, vector)
        yield from self._opening_transitions(state)
        yield from self._closing_child_transitions(state)
        yield from self._closing_self_transitions(state)

    # ------------------------------------------------------------------
    # Büchi letter matching
    # ------------------------------------------------------------------
    def _match_letter(
        self,
        state: SymState,
        store: ConstraintStore,
        service: ServiceRef,
        transition: Transition,
        open_beta: Mapping | None,
    ) -> Iterator[ConstraintStore]:
        """Refinements of ``store`` under which the letter
        (store-as-instance, service) satisfies the transition's literals."""
        branches = [store]
        for payload, required, condition in _letter_plan(transition):
            if isinstance(payload, ServiceProp):
                if (payload.ref == service) is not required:
                    return
            elif isinstance(payload, ChildProp):
                value = False
                if (
                    service.is_opening
                    and service.task == payload.task
                    and open_beta is not None
                ):
                    value = bool(open_beta.get(payload.spec, False))
                if value is not required:
                    return
            elif condition is not None:
                refined: list[ConstraintStore] = []
                for branch in branches:
                    refined.extend(self._refinements(branch, condition))
                branches = refined
                if not branches:
                    return
            else:
                raise VerificationError(f"unsupported proposition {payload!r}")
        yield from branches

    def _buchi_step(
        self,
        state: SymState,
        store: ConstraintStore,
        service: ServiceRef,
        open_beta: Mapping | None = None,
    ) -> Iterator[tuple[ConstraintStore, object]]:
        for transition in self.automaton.successors(state.q):
            for refined in self._match_letter(
                state, store, service, transition, open_beta
            ):
                yield refined, transition.target

    # ------------------------------------------------------------------
    # internal services
    # ------------------------------------------------------------------
    def _internal_transitions(
        self, state: SymState, vector: Mapping
    ) -> Iterator[tuple[Mapping, SymState, StepTag]]:
        if state.active_children():
            return  # restriction (4)
        for service in self.task.services:
            ref = labels.internal(self.task.name, service.name)
            ATTRIBUTION.set_context(self.task.name, ref)
            for pre_store in self._refinements(state.store, service.pre):
                yield from self._apply_internal(state, vector, service, ref, pre_store)

    def _apply_internal(
        self,
        state: SymState,
        vector: Mapping,
        service: InternalService,
        ref: ServiceRef,
        pre_store: ConstraintStore,
    ) -> Iterator[tuple[Mapping, SymState, StepTag]]:
        inserted_options: list[tuple[TSType | None, ConstraintStore]]
        if service.update.inserts and self.task.has_set:
            inserted_options = list(ts_type_of(pre_store, self.slots))
        else:
            inserted_options = [(None, pre_store)]
        for inserted, snap_store in inserted_options:
            base = snap_store.restrict(self.task.input_variables)
            for post_store in self._refinements(base, service.post):
                if service.update.retrieves and self.task.has_set:
                    yield from self._retrieval_branches(
                        state, vector, service, ref, inserted, post_store
                    )
                else:
                    yield from self._finish_internal(
                        state, ref, inserted, None, post_store
                    )

    def _retrieval_branches(
        self,
        state: SymState,
        vector: Mapping,
        service: InternalService,
        ref: ServiceRef,
        inserted: TSType | None,
        post_store: ConstraintStore,
    ) -> Iterator[tuple[Mapping, SymState, StepTag]]:
        candidates: set[TSType] = set(state.ib)
        for dim, value in vector.items():
            if isinstance(dim, TSType) and value > 0:
                candidates.add(dim)
        if inserted is not None:
            candidates.add(inserted)  # retrieve the just-inserted tuple
        for retrieved in sorted(candidates, key=repr):
            refined = impose_ts_type(
                post_store, retrieved, self.slots, fresh_slots=()
            )
            if refined is None:
                continue
            yield from self._finish_internal(state, ref, inserted, retrieved, refined)

    def _finish_internal(
        self,
        state: SymState,
        ref: ServiceRef,
        inserted: TSType | None,
        retrieved: TSType | None,
        store: ConstraintStore,
    ) -> Iterator[tuple[Mapping, SymState, StepTag]]:
        set_count = len(self.task.set_variables)
        ib = set(state.ib)
        delta: dict[TSType, int] = {}
        if inserted is not None:
            if inserted.is_input_bound(set_count):
                ib.add(inserted)
            else:
                delta[inserted] = delta.get(inserted, 0) + 1
        if retrieved is not None:
            if retrieved.is_input_bound(set_count):
                if retrieved not in ib:
                    return  # capped counter is 0: retrieval impossible
                ib.discard(retrieved)
            else:
                delta[retrieved] = delta.get(retrieved, 0) - 1
        for refined, q in self._buchi_step(state, store, ref):
            successor = SymState(
                store=refined,
                q=q,
                o_bar=(),  # internal service resets dom(ō)
                ib=frozenset(ib),
                service=ref,
            )
            yield dict(delta), successor, StepTag(
                self.task.name,
                ref,
                self._set_detail(inserted, retrieved),
                inserted=inserted,
                retrieved=retrieved,
            )

    @staticmethod
    def _set_detail(inserted: TSType | None, retrieved: TSType | None) -> str:
        parts = []
        if inserted is not None:
            parts.append(f"+{inserted!r}")
        if retrieved is not None:
            parts.append(f"-{retrieved!r}")
        return " ".join(parts)

    # ------------------------------------------------------------------
    # opening a child
    # ------------------------------------------------------------------
    def _opening_transitions(
        self, state: SymState
    ) -> Iterator[tuple[Mapping, SymState, StepTag]]:
        for child in self.task.children:
            if state.status_of(child.name) != INIT:
                continue  # at most one call per segment (restriction 8)
            ref = labels.opening(child.name)
            ATTRIBUTION.set_context(self.task.name, ref)
            for pre_store in self._refinements(state.store, child.opening.pre):
                input_store, input_key = self.engine.make_child_input(
                    pre_store, child
                )
                for beta in self.engine.compiled.betas(child.name):
                    summary = self.engine.summary(child.name, input_store, beta)
                    # the summary may have recursively explored the child
                    # VASS (which owns the context while it runs, and
                    # clears it on exit) — re-enter this opening's scope
                    ATTRIBUTION.set_context(self.task.name, ref)
                    outcomes: list[tuple] = [
                        ("out", out_key) for out_key in sorted(summary.outputs, key=repr)
                    ]
                    if summary.nonreturning:
                        outcomes.append(BOT)
                    for outcome in outcomes:
                        pinned = pre_store.copy()
                        for child_var, parent_var in child.opening.input_map.items():
                            pinned.pin(
                                ("child", child.name, child_var.name),
                                pinned.node_of(parent_var),
                            )
                        status = (
                            "active",
                            frozenset(beta.items()),
                            outcome,
                            input_key,
                        )
                        o_bar = state.with_status(child.name, status)
                        for refined, q in self._buchi_step(
                            state, pinned, ref, open_beta=beta
                        ):
                            successor = SymState(
                                store=refined,
                                q=q,
                                o_bar=o_bar,
                                ib=state.ib,
                                service=ref,
                            )
                            detail = "⊥" if outcome == BOT else "returns"
                            yield {}, successor, StepTag(self.task.name, ref, detail)

    # ------------------------------------------------------------------
    # closing a child
    # ------------------------------------------------------------------
    def _closing_child_transitions(
        self, state: SymState
    ) -> Iterator[tuple[Mapping, SymState, StepTag]]:
        for child_name, status in state.active_children():
            _tag, beta_items, outcome, input_key = status
            if outcome == BOT:
                continue  # never returns
            child = self.task.child(child_name)
            ref = labels.closing(child_name)
            ATTRIBUTION.set_context(self.task.name, ref)
            out_store = self.engine.output_store(
                child_name, input_key, beta_items, outcome[1]
            )
            for merged in self._merge_child_output(state.store, child, out_store):
                o_bar = state.with_status(child_name, CLOSED)
                for refined, q in self._buchi_step(state, merged, ref):
                    successor = SymState(
                        store=refined,
                        q=q,
                        o_bar=o_bar,
                        ib=state.ib,
                        service=ref,
                    )
                    yield {}, successor, StepTag(self.task.name, ref)

    def _merge_child_output(
        self,
        parent_store: ConstraintStore,
        child: Task,
        out_store: ConstraintStore,
    ) -> Iterator[ConstraintStore]:
        """Absorb the child's output type and apply the restriction-(2)
        overwrite semantics; branches on unknown null statuses."""
        base = parent_store.copy()
        translation: dict[Variable, object] = {}
        for child_var, _parent_var in child.opening.input_map.items():
            pinned = base.pinned(("child", child.name, child_var.name))
            if pinned is not None:
                translation[child_var] = pinned
        return_targets: dict[Variable, Variable] = dict(child.closing.output_map)
        for parent_var, child_var in return_targets.items():
            sort = Sort.ID if child_var.kind is VarKind.ID else Sort.NUMERIC
            translation[child_var] = base.fresh(sort)
        try:
            resolution = base.absorb(out_store, translation)
        except Inconsistent:
            return
        if not base.is_consistent():
            return
        base.unpin_prefix(("child", child.name))
        # overwrite semantics, with case splits on unknown null status
        branches = [base]
        for parent_var, child_var in return_targets.items():
            ret_node = resolution.get(child_var)
            next_branches: list[ConstraintStore] = []
            for branch in branches:
                if ret_node is None:
                    next_branches.append(branch)
                    continue
                if parent_var.kind is VarKind.NUMERIC:
                    branch.bind(parent_var, branch.find(ret_node))
                    next_branches.append(branch)
                    continue
                current = branch.node_of(parent_var)
                status = branch.null_status(current)
                if status is True:
                    branch.bind(parent_var, branch.find(ret_node))
                    next_branches.append(branch)
                elif status is False:
                    next_branches.append(branch)  # keep the old value
                else:
                    null_branch = branch.copy()
                    try:
                        null_branch.assert_null(null_branch.node_of(parent_var))
                        null_branch.bind(
                            parent_var, null_branch.find(ret_node)
                        )
                        if null_branch.is_consistent():
                            next_branches.append(null_branch)
                    except Inconsistent:
                        pass
                    keep_branch = branch
                    try:
                        keep_branch.assert_not_null(
                            keep_branch.node_of(parent_var)
                        )
                        if keep_branch.is_consistent():
                            next_branches.append(keep_branch)
                    except Inconsistent:
                        pass
            branches = next_branches
        yield from branches

    # ------------------------------------------------------------------
    # closing self
    # ------------------------------------------------------------------
    def _closing_self_transitions(
        self, state: SymState
    ) -> Iterator[tuple[Mapping, SymState, StepTag]]:
        if self.is_root or state.active_children():
            return
        ref = labels.closing(self.task.name)
        ATTRIBUTION.set_context(self.task.name, ref)
        for pre_store in self._refinements(state.store, self.task.closing.pre):
            for refined, q in self._buchi_step(state, pre_store, ref):
                successor = SymState(
                    store=refined,
                    q=q,
                    o_bar=state.o_bar,
                    ib=state.ib,
                    returning=True,
                    service=ref,
                )
                yield {}, successor, StepTag(self.task.name, ref)

    # ------------------------------------------------------------------
    # acceptance predicates (Lemma 21)
    # ------------------------------------------------------------------
    def is_returning_accepting(self, state_id: int) -> bool:
        """Lemma 21's *returning* paths: the task closed itself with the
        automaton finitely accepting — contributes an output type to R_T."""
        state = self.state(state_id)
        return state.returning and state.q in self.automaton.finite_accepting

    def is_blocking_accepting(self, state_id: int) -> bool:
        """Lemma 21's *blocking* paths: every active child is guessed ⊥
        (never returns) and the automaton finitely accepts — a maximal
        finite run."""
        state = self.state(state_id)
        if state.returning:
            return False
        active = state.active_children()
        if not active:
            return False
        if any(status[2] != BOT for _name, status in active):
            return False
        return state.q in self.automaton.finite_accepting

    def is_lasso_accepting(self, state_id: int) -> bool:
        """Lemma 21's *lasso* paths: Büchi-accepting and not returned —
        witnesses repeated reachability when on a KM-graph cycle."""
        state = self.state(state_id)
        return not state.returning and state.q in self.automaton.buchi_accepting

    def output_of(self, state_id: int) -> ConstraintStore:
        """Output type of a returning state: the store restricted to the
        input and return variables."""
        state = self.state(state_id)
        keep = tuple(self.task.input_variables) + tuple(self.task.return_variables)
        return state.store.restrict(keep)
