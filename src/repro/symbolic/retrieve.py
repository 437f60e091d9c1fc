"""The periodic Retrieve construction (Appendix C.1.2, Figure 3).

For a periodic local symbolic run, the proof of Theorem 20 must match
every retrieving instance with an earlier inserting instance of the same
TS-type (the ``Retrieve`` function), such that every *life cycle* of
set-tuple values has a bounded timespan (Lemma 51).  Bounded timespans let
the construction partition life cycles into finitely many groups of
identical, non-overlapping cycles — which is how the infinite run is
realized over a *finite* database.

The construction follows the paper's two steps:

1. an arbitrary type-respecting matching on the prefix ``[0, n]``;
2. periodic extension: each retrieval at ``j ∈ (n, n+t]`` copies the
   matching of ``j − t``, shifted by ``t`` when the matched insertion is
   recent (case 2(i)), else re-matched inside the last window (case
   2(ii)) — Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.symbolic.symbolic_run import PeriodicSymbolicRun, segments_of


@dataclass
class RetrieveFunction:
    """The matching: retrieval index -> insertion index (on an unrolling)."""

    run: PeriodicSymbolicRun
    horizon: int
    mapping: dict[int, int] = field(default_factory=dict)

    def check(self) -> None:
        """Validate the Retrieve axioms on the materialized horizon."""
        steps = self.run.unroll(self.horizon)
        used: set[int] = set()
        for retrieval, insertion in self.mapping.items():
            if insertion in used:
                raise ValueError(f"insertion {insertion} matched twice")
            used.add(insertion)
            if insertion >= retrieval:
                raise ValueError(f"Retrieve({retrieval}) = {insertion} not earlier")
            if steps[insertion].ts_label != steps[retrieval].ts_label:
                raise ValueError(
                    f"type mismatch at Retrieve({retrieval}) = {insertion}"
                )

    def max_gap(self) -> int:
        return max(
            (retrieval - insertion for retrieval, insertion in self.mapping.items()),
            default=0,
        )


def build_retrieve(run: PeriodicSymbolicRun, periods: int = 4) -> RetrieveFunction:
    """Construct a periodic Retrieve with gaps bounded by 2t (Lemma 50).

    ``periods`` controls how far the loop is unrolled for materialization;
    the mapping repeats with period t beyond the construction window.
    """
    n, t = run.loop_start, run.period
    horizon = n + (periods + 1) * t
    steps = run.unroll(horizon)
    retrieve: dict[int, int] = {}
    used: set[int] = set()

    def match_before(index: int, lo: int = 0) -> int | None:
        """Latest unused insertion of the right type in [lo, index)."""
        for candidate in range(index - 1, lo - 1, -1):
            step = steps[candidate]
            if (
                step.inserts
                and not step.input_bound
                and candidate not in used
                and step.ts_label == steps[index].ts_label
            ):
                return candidate
        return None

    # Step 1: arbitrary valid matching on the prefix [0, n]
    for index in range(min(n + 1, horizon)):
        if steps[index].retrieves and not steps[index].input_bound:
            found = match_before(index)
            if found is None:
                raise ValueError(f"no insertion available for retrieval {index}")
            retrieve[index] = found
            used.add(found)

    # Step 2: extend periodically over (n, n+t], then copy with period t
    for index in range(n + 1, min(n + t + 1, horizon)):
        if not (steps[index].retrieves and not steps[index].input_bound):
            continue
        prior = index - t
        matched_prior = retrieve.get(prior)
        candidate = None
        if matched_prior is not None and matched_prior >= n - t + 1:
            # case 2(i): shift the earlier matching by t
            candidate = matched_prior + t
            if candidate in used or candidate >= index:
                candidate = None
        if candidate is None:
            # case 2(ii): re-match inside the last window (n − t, n]
            candidate = match_before(index, lo=max(0, n - t + 1))
        if candidate is None:
            candidate = match_before(index)
        if candidate is None:
            raise ValueError(f"no insertion available for retrieval {index}")
        retrieve[index] = candidate
        used.add(candidate)

    # periodic copies: Retrieve(j + k·t) = Retrieve(j) + k·t
    for index in range(n + t + 1, horizon):
        if not (steps[index].retrieves and not steps[index].input_bound):
            continue
        base = index
        while base > n + t:
            base -= t
        base_match = retrieve.get(base)
        if base_match is None:
            continue
        shifted = base_match + (index - base)
        if shifted < index and shifted not in used:
            retrieve[index] = shifted
            used.add(shifted)
        else:
            fallback = match_before(index)
            if fallback is not None:
                retrieve[index] = fallback
                used.add(fallback)
    result = RetrieveFunction(run, horizon, retrieve)
    result.check()
    return result


@dataclass
class LifeCycle:
    """A maximal chain of instances linked by same-segment adjacency or by
    the Retrieve function (Appendix C.1.2)."""

    indices: list[int]

    def timespan(self) -> tuple[int, int]:
        return (self.indices[0], self.indices[-1])


def life_cycles(run: PeriodicSymbolicRun, retrieve: RetrieveFunction) -> list[LifeCycle]:
    """Partition the horizon's insert/retrieve instances into life cycles.

    Two consecutive members are either in the same segment or linked by
    ``Retrieve`` (insertion → its retrieval).
    """
    steps = run.unroll(retrieve.horizon)
    links: dict[int, int] = {}  # insertion -> retrieval
    for retrieval, insertion in retrieve.mapping.items():
        links[insertion] = retrieval
    seg_of: dict[int, int] = {}
    for seg_index, segment in enumerate(segments_of(steps)):
        for position in segment:
            seg_of[position] = seg_index
    events = sorted(
        i
        for i, s in enumerate(steps)
        if (s.inserts or s.retrieves) and not s.input_bound
    )
    cycles: list[LifeCycle] = []
    assigned: set[int] = set()
    for event in events:
        if event in assigned:
            continue
        chain = [event]
        assigned.add(event)
        current = event
        while True:
            nxt = None
            if current in links and links[current] not in assigned:
                nxt = links[current]
            else:
                for other in events:
                    if (
                        other > current
                        and other not in assigned
                        and seg_of[other] == seg_of[current]
                    ):
                        nxt = other
                        break
            if nxt is None:
                break
            chain.append(nxt)
            assigned.add(nxt)
            current = nxt
        cycles.append(LifeCycle(chain))
    return cycles


def max_timespan(cycles: list[LifeCycle]) -> int:
    return max((c.timespan()[1] - c.timespan()[0] for c in cycles), default=0)


def lemma51_bound(run: PeriodicSymbolicRun, set_arity: int, child_count: int) -> int:
    """The timespan bound of Lemma 51:
    (n+t) · max(2t, n+t) · (|s̄^T|+1) · 2|child(T)|."""
    n, t = run.loop_start, run.period
    return (n + t) * max(2 * t, n + t) * (set_arity + 1) * max(2 * child_count, 1)
