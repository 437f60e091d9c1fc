"""The differential fuzzing harness.

For each generated scenario the harness cross-checks the symbolic
verifier against two independent ground-truth obligations:

* a symbolic **violated** verdict must produce a concrete witness that
  replays through the concrete semantics and the reference LTL
  evaluators (``repro.witness.concretize`` — materialize, validate,
  minimize);
* a symbolic **holds** verdict must have no confirmed concrete
  counterexample within the bounded explicit-state search of
  :mod:`repro.fuzz.reference`.

Any failed obligation is a :class:`Discrepancy`.  Discrepancies are
shrunk to a minimal scenario (dropping services, children, artifact
relations, and property structure while the discrepancy reproduces —
and, for missed violations, delta-debugging the concrete counterexample
trace with ``repro.witness.minimize``) and serialized into a replayable
JSON report: ``python -m repro fuzz --replay <report>`` regenerates the
scenario from its embedded seed + :class:`~repro.fuzz.gen.GenConfig`
and re-runs the exact differential check.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from repro.errors import BudgetExceeded, ReproError
from repro.fuzz.coverage import COVERAGE, FEATURES
from repro.fuzz.gen import (
    GenConfig,
    Scenario,
    generate_scenario,
    grow_scenarios,
    operator_targets,
)
from repro.fuzz.reference import (
    BoundedConfig,
    BoundedResult,
    VERDICT_VIOLATED,
    bounded_check,
)
from repro.has.system import HAS
from repro.has.task import Task
from repro.hltl.formulas import (
    ChildProp,
    HLTLProperty,
    HLTLSpec,
    ServiceProp,
    validate_property,
)
from repro.has.restrictions import validate_has
from repro.has.services import SetUpdate
from repro.ltl.formulas import (
    AndF,
    Formula,
    Next,
    NotF,
    OrF,
    Release,
    Until,
    propositions,
)
from repro.service.jobs import (
    STATUS_BUDGET_EXCEEDED,
    STATUS_ERROR,
    STATUS_HOLDS,
    STATUS_VIOLATED,
    VerificationJob,
)
from repro.service.serialize import canonical_json, from_dict, to_dict
from repro.verifier.config import VerifierConfig
from repro.verifier.engine import Verifier
from repro.witness import ConcreteWitness, NonConcretizable, concretize
from repro.witness.minimize import minimize


#: Default budgets for one fuzzed scenario (deliberately small — the
#: generated systems are tiny, and a campaign runs many of them).
DEFAULT_VERIFIER_CONFIG = VerifierConfig(km_budget=20_000, time_limit_seconds=10.0)


@dataclass
class Discrepancy:
    """One broken cross-check obligation."""

    kind: str
    """``missed_violation`` — symbolic "holds" but the bounded checker
    found a replay-confirmed concrete counterexample;
    ``unconfirmed_witness`` — symbolic "violated" but the concretized
    witness failed replay validation;
    ``non_concretizable`` — symbolic "violated" with no concretizable
    witness *and* no confirming bounded counterexample (when the bounded
    checker independently finds one, a failed materialization is a known
    sampler incompleteness, not a verdict discrepancy);
    ``verifier_error`` — a checker layer (verifier, concretizer, or
    bounded search) crashed on a valid scenario."""

    detail: str = ""
    witness_json: dict | None = None
    """The confirming concrete counterexample (for missed violations)
    or the failed witness record, when one exists."""


@dataclass
class ScenarioOutcome:
    """Both checkers' verdicts on one scenario, plus the cross-check."""

    scenario: Scenario
    symbolic_status: str
    witness_status: str | None = None
    """confirmed | unconfirmed | non_concretizable | error (crashed)."""
    bounded: BoundedResult | None = None
    discrepancy: Discrepancy | None = None
    error: str = ""
    wall_seconds: float = 0.0
    coverage: tuple[str, ...] = ()
    """Canonical sorted coverage features the whole differential check
    fired (:mod:`repro.fuzz.coverage`)."""
    novelty: int = 0
    """Features this scenario fired that the campaign's frontier had not
    seen yet (0 outside campaigns)."""

    @property
    def agreed(self) -> bool:
        return self.discrepancy is None

    def one_line(self) -> str:
        bounded = self.bounded.verdict if self.bounded else "-"
        witness = self.witness_status or "-"
        flag = f"  DISCREPANCY({self.discrepancy.kind})" if self.discrepancy else ""
        return (
            f"{self.scenario.name:20s} symbolic={self.symbolic_status:15s} "
            f"witness={witness:17s} bounded={bounded:10s} "
            f"{self.wall_seconds:6.2f}s{flag}"
        )


def check_scenario(
    scenario: Scenario,
    verifier_config: VerifierConfig | None = None,
    bounded_config: BoundedConfig | None = None,
) -> ScenarioOutcome:
    """Run both checkers on one scenario and cross-check their verdicts."""
    started = time.monotonic()
    config = verifier_config or DEFAULT_VERIFIER_CONFIG
    outcome = ScenarioOutcome(scenario=scenario, symbolic_status=STATUS_ERROR)
    with COVERAGE.unit() as fired:
        _check_scenario(outcome, scenario, config, bounded_config)
    outcome.coverage = fired.features()
    outcome.wall_seconds = time.monotonic() - started
    return outcome


def _check_scenario(
    outcome: ScenarioOutcome,
    scenario: Scenario,
    config: VerifierConfig,
    bounded_config: BoundedConfig | None,
) -> None:
    result = None
    try:
        result = Verifier(scenario.has, config).verify(scenario.prop)
        outcome.symbolic_status = (
            STATUS_HOLDS if result.holds else STATUS_VIOLATED
        )
    except BudgetExceeded:
        outcome.symbolic_status = STATUS_BUDGET_EXCEEDED
    except Exception as exc:  # noqa: BLE001 — a crash on valid input is a finding
        outcome.symbolic_status = STATUS_ERROR
        outcome.error = f"{type(exc).__name__}: {exc}"

    witness: ConcreteWitness | NonConcretizable | None = None
    if outcome.symbolic_status == STATUS_VIOLATED:
        assert result is not None
        try:
            witness = concretize(
                scenario.has,
                scenario.prop,
                result,
                shrink=True,
                time_budget=config.time_limit_seconds,
            )
        except Exception as exc:  # noqa: BLE001 — a witness-layer crash is a finding
            outcome.witness_status = "error"
            outcome.error = f"concretize crashed: {type(exc).__name__}: {exc}"
        else:
            if isinstance(witness, NonConcretizable):
                outcome.witness_status = "non_concretizable"
            elif witness.confirmed:
                outcome.witness_status = "confirmed"
            else:
                outcome.witness_status = "unconfirmed"

    if outcome.symbolic_status != STATUS_ERROR:
        try:
            outcome.bounded = bounded_check(
                scenario.has, scenario.prop, scenario.databases, bounded_config
            )
        except Exception as exc:  # noqa: BLE001 — same: report, don't abort the campaign
            crash = f"bounded checker crashed: {type(exc).__name__}: {exc}"
            # keep an earlier concretize-crash message too: both layers
            # failing is two findings, and the report must show each
            outcome.error = f"{outcome.error}; {crash}" if outcome.error else crash

    try:
        outcome.discrepancy = _cross_check(outcome, witness)
    except Exception as exc:  # noqa: BLE001
        outcome.discrepancy = Discrepancy(
            "verifier_error",
            detail=f"cross-check crashed: {type(exc).__name__}: {exc}",
        )


def _cross_check(
    outcome: ScenarioOutcome,
    witness: ConcreteWitness | NonConcretizable | None,
) -> Discrepancy | None:
    if outcome.symbolic_status == STATUS_ERROR or outcome.error:
        # a crash in any checker layer on a valid scenario is a finding
        return Discrepancy("verifier_error", detail=outcome.error)
    bounded = outcome.bounded
    if (
        outcome.symbolic_status == STATUS_HOLDS
        and bounded is not None
        and bounded.verdict == VERDICT_VIOLATED
    ):
        violation = bounded.violation
        assert violation is not None
        concrete = ConcreteWitness(
            kind="lasso",
            property_name=outcome.scenario.prop.name,
            database=violation.database,
            steps=violation.steps,
            loop_start=violation.loop_start,
            raw_length=len(violation.steps),
        )
        concrete.checks = dict(violation.checks)
        # delta-debug the confirming trace (the witness machinery's own
        # minimizer) so the report carries minimal evidence; fall back to
        # the raw trace if minimization itself misbehaves
        try:
            concrete = minimize(
                outcome.scenario.has,
                outcome.scenario.prop,
                concrete,
                deadline=time.monotonic() + 5.0,
            )
        except Exception:  # noqa: BLE001
            concrete.notes.append("trace minimization crashed; raw trace kept")
        return Discrepancy(
            "missed_violation",
            detail=(
                "symbolic verdict is 'holds' but the bounded explicit-state "
                "search found a replay-confirmed concrete lasso "
                f"({len(violation.steps)} steps, loop at {violation.loop_start})"
            ),
            witness_json=concrete.to_dict(),
        )
    if outcome.symbolic_status == STATUS_VIOLATED:
        if outcome.witness_status == "non_concretizable":
            assert isinstance(witness, NonConcretizable)
            if bounded is not None and bounded.verdict == VERDICT_VIOLATED:
                # the verdict is independently confirmed by the bounded
                # checker's own concrete counterexample; the failed
                # materialization is a (known-incomplete) sampler gap,
                # not a verdict discrepancy
                return None
            return Discrepancy(
                "non_concretizable",
                detail=f"violated verdict without a concrete witness: {witness.reason}",
                witness_json=witness.to_dict(),
            )
        if outcome.witness_status == "unconfirmed":
            assert isinstance(witness, ConcreteWitness)
            failed = sorted(k for k, ok in witness.checks.items() if not ok)
            return Discrepancy(
                "unconfirmed_witness",
                detail=(
                    "concretized witness failed replay validation "
                    f"(failed checks: {', '.join(failed)})"
                ),
                witness_json=witness.to_dict(),
            )
    return None


# ----------------------------------------------------------------------
# scenario shrinking
# ----------------------------------------------------------------------
def _rebuild_task(task: Task, target: str, transform: Callable[[Task], Task | None]) -> Task | None:
    """The hierarchy with ``transform`` applied to the task named
    ``target``; None when the transform deletes the root."""
    if task.name == target:
        return transform(task)
    children = []
    changed = False
    for child in task.children:
        rebuilt = _rebuild_task(child, target, transform)
        if rebuilt is None:
            changed = True
            continue
        changed = changed or rebuilt is not child
        children.append(rebuilt)
    if not changed:
        return task
    return dataclasses.replace(task, children=tuple(children))


def _property_tasks(prop: HLTLProperty) -> set[str]:
    """Tasks referenced by service or child propositions."""
    names: set[str] = set()

    def walk(spec: HLTLSpec) -> None:
        names.add(spec.task)
        for payload in propositions(spec.formula):
            if isinstance(payload, ServiceProp):
                names.add(payload.ref.task)
            elif isinstance(payload, ChildProp):
                walk(payload.spec)

    walk(prop.root)
    return names


def _subformulas(formula: Formula) -> Iterator[Formula]:
    if isinstance(formula, NotF):
        yield formula.body
    elif isinstance(formula, (AndF, OrF)):
        yield from formula.parts
    elif isinstance(formula, Next):
        yield formula.body
    elif isinstance(formula, (Until, Release)):
        yield formula.left
        yield formula.right


def _shrink_candidates(scenario: Scenario) -> Iterator[tuple[str, HAS, HLTLProperty]]:
    """Structurally smaller (has, prop) variants, most aggressive first."""
    has, prop = scenario.has, scenario.prop
    referenced = _property_tasks(prop)
    tasks = list(has.root.walk())

    # drop a whole child subtree (unless the property observes it)
    for task in tasks:
        for child in task.children:
            if any(t.name in referenced for t in child.walk()):
                continue
            rebuilt = _rebuild_task(has.root, child.name, lambda _t: None)
            if rebuilt is not None:
                yield f"drop task {child.name}", _with_root(has, rebuilt), prop

    # drop one internal service
    for task in tasks:
        for service in task.services:
            def drop_service(t: Task, name=service.name) -> Task:
                return dataclasses.replace(
                    t, services=tuple(s for s in t.services if s.name != name)
                )

            rebuilt = _rebuild_task(has.root, task.name, drop_service)
            if rebuilt is not None:
                yield f"drop service {task.name}.{service.name}", _with_root(
                    has, rebuilt
                ), prop

    # drop a task's artifact relation (and its set updates)
    for task in tasks:
        if not task.has_set:
            continue

        def drop_set(t: Task) -> Task:
            services = tuple(
                dataclasses.replace(s, update=SetUpdate.NONE) for s in t.services
            )
            return dataclasses.replace(t, set_variables=(), services=services)

        rebuilt = _rebuild_task(has.root, task.name, drop_set)
        if rebuilt is not None:
            yield f"drop artifact relation of {task.name}", _with_root(
                has, rebuilt
            ), prop

    # replace the property by a direct temporal/boolean subformula
    for sub in _subformulas(prop.root.formula):
        smaller = HLTLProperty(
            HLTLSpec(prop.root.task, sub), name=prop.name
        )
        yield "shrink property", has, smaller


def _with_root(has: HAS, root: Task) -> HAS:
    return HAS(has.database, root, precondition=has.precondition, name=has.name)


def shrink_scenario(
    scenario: Scenario,
    kind: str,
    verifier_config: VerifierConfig | None = None,
    bounded_config: BoundedConfig | None = None,
    max_attempts: int = 40,
    deadline: float | None = None,
) -> tuple[Scenario, ScenarioOutcome | None]:
    """Greedy fixed-point shrink: accept any structural reduction that
    still reproduces a discrepancy of the same kind.  Returns the
    smallest reproducing scenario and its outcome (None when nothing
    smaller reproduced)."""
    current = scenario
    best_outcome: ScenarioOutcome | None = None
    attempts = 0
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for label, has, prop in _shrink_candidates(current):
            if attempts >= max_attempts or (
                deadline is not None and time.monotonic() > deadline
            ):
                return current, best_outcome
            try:
                validate_has(has)
                validate_property(prop, has)
            except ReproError:
                continue
            candidate = Scenario(
                seed=current.seed,
                index=current.index,
                config=current.config,
                has=has,
                prop=prop,
                databases=current.databases,
            )
            attempts += 1
            outcome = check_scenario(candidate, verifier_config, bounded_config)
            if outcome.discrepancy is not None and outcome.discrepancy.kind == kind:
                current = candidate
                best_outcome = outcome
                progress = True
                break
    return current, best_outcome


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
def _bounded_config_dict(config: BoundedConfig | None) -> dict:
    return dataclasses.asdict(config or BoundedConfig())


def discrepancy_report(
    outcome: ScenarioOutcome,
    verifier_config: VerifierConfig | None = None,
    bounded_config: BoundedConfig | None = None,
    shrunk: tuple[Scenario, ScenarioOutcome] | None = None,
) -> dict:
    """A self-contained, replayable JSON record of one discrepancy.

    Embeds the seed + GenConfig (exact regeneration), the serialized
    models (drift detection), the budgets, and — when available — the
    minimized concrete counterexample and the shrunk scenario."""
    assert outcome.discrepancy is not None
    scenario = outcome.scenario
    job = VerificationJob(
        has=scenario.has,
        prop=scenario.prop,
        config=verifier_config or DEFAULT_VERIFIER_CONFIG,
        name=scenario.name,
    )
    report = {
        "t": "fuzz_report",
        "kind": outcome.discrepancy.kind,
        "detail": outcome.discrepancy.detail,
        "name": scenario.name,
        "seed": scenario.seed,
        "index": scenario.index,
        "mutations": list(scenario.mutations),
        "coverage": list(outcome.coverage),
        "gen_config": scenario.config.to_dict(),
        "verifier_config": to_dict(verifier_config or DEFAULT_VERIFIER_CONFIG),
        "bounded_config": _bounded_config_dict(bounded_config),
        "job_key": job.key(),
        "symbolic_status": outcome.symbolic_status,
        "witness_status": outcome.witness_status,
        "bounded_verdict": outcome.bounded.verdict if outcome.bounded else None,
        "error": outcome.error,
        "has": to_dict(scenario.has),
        "prop": to_dict(scenario.prop),
        "witness": outcome.discrepancy.witness_json,
    }
    if shrunk is not None:
        shrunk_scenario, shrunk_outcome = shrunk
        report["shrunk"] = {
            "has": to_dict(shrunk_scenario.has),
            "prop": to_dict(shrunk_scenario.prop),
            "detail": shrunk_outcome.discrepancy.detail
            if shrunk_outcome.discrepancy
            else "",
            "witness": shrunk_outcome.discrepancy.witness_json
            if shrunk_outcome.discrepancy
            else None,
        }
    return report


def _entry_slug(record: Mapping[str, Any]) -> str:
    """The filename slug of a scenario record: ``s<seed>-i<index>`` for
    base scenarios (the historical layout), the full mutant label for
    mutants (which share their base's coordinates)."""
    name = str(record.get("name", ""))
    if record.get("mutations"):
        return name[len("fuzz-"):] if name.startswith("fuzz-") else name
    return f"s{record['seed']}-i{record['index']}"


def write_report(directory: Path | str, report: Mapping[str, Any]) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"discrepancy-{_entry_slug(report)}.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=1))
    return path


def _rebuild_scenario(
    record: Mapping[str, Any], gen_config: GenConfig, notes: list[str]
) -> Scenario:
    """The record's scenario, reconstructed for replay.

    Base scenarios regenerate from (seed, index) and are drift-checked
    against the embedded model dicts.  Mutants are not regenerable from
    their coordinates — the embedded has/prop dicts *are* the ground
    truth — so only their base's databases are regenerated."""
    base = generate_scenario(record["seed"], record["index"], gen_config)
    mutations = tuple(record.get("mutations") or ())
    if mutations:
        return Scenario(
            seed=record["seed"],
            index=record["index"],
            config=gen_config,
            has=from_dict(record["has"]),
            prop=from_dict(record["prop"]),
            databases=base.databases,
            label=str(record["name"]),
            mutations=mutations,
        )
    for key, obj in (("has", base.has), ("prop", base.prop)):
        if canonical_json(to_dict(obj)) != canonical_json(record[key]):
            notes.append(
                f"regenerated {key} differs from the record's serialized "
                "form (generator drift) — the record is not exactly "
                "reproducible"
            )
    return base


def load_report(path: Path | str) -> dict:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("t") != "fuzz_report":
        raise ValueError(f"{path}: not a fuzz discrepancy report")
    return data


def replay_report(report: Mapping[str, Any]) -> tuple[bool, ScenarioOutcome, list[str]]:
    """Regenerate the report's scenario from its seed + GenConfig and
    re-run the differential check under the recorded budgets.

    Returns ``(reproduced, outcome, notes)``: ``reproduced`` is True
    when a discrepancy of the recorded kind occurs again.  Regeneration
    must be exact — serialized-model drift against the embedded dicts is
    reported in ``notes`` and counts as not reproduced."""
    notes: list[str] = []
    gen_config = GenConfig.from_dict(report["gen_config"])
    scenario = _rebuild_scenario(report, gen_config, notes)
    verifier_config = from_dict(report["verifier_config"])
    bounded_config = BoundedConfig(**report["bounded_config"])
    outcome = check_scenario(scenario, verifier_config, bounded_config)
    reproduced = (
        not notes
        and outcome.discrepancy is not None
        and outcome.discrepancy.kind == report["kind"]
    )
    return reproduced, outcome, notes


# ----------------------------------------------------------------------
# regression corpus
# ----------------------------------------------------------------------
def corpus_entry(
    outcome: ScenarioOutcome,
    verifier_config: VerifierConfig | None = None,
    bounded_config: BoundedConfig | None = None,
) -> dict:
    """A checked-in regression record: the scenario (regenerable from
    seed + GenConfig, serialized models included for drift detection)
    plus both checkers' expected verdicts under the recorded budgets.

    Wall-clock budgets are recorded as **None** regardless of what the
    checking run used: corpus replays must box only on the
    deterministic km/expansion caps, never on runner speed.  (If the
    original run's verdict was itself wall-clock-induced, the very
    first corpus replay fails loudly — the entry was not corpus-grade.)"""
    scenario = outcome.scenario
    recorded_verifier = dataclasses.replace(
        verifier_config or DEFAULT_VERIFIER_CONFIG, time_limit_seconds=None
    )
    recorded_bounded = dataclasses.replace(
        bounded_config or BoundedConfig(), time_budget_seconds=None
    )
    job = VerificationJob(
        has=scenario.has,
        prop=scenario.prop,
        config=recorded_verifier,
        name=scenario.name,
    )
    entry: dict[str, Any] = {
        "t": "fuzz_corpus_entry",
        "name": scenario.name,
        "seed": scenario.seed,
        "index": scenario.index,
        "gen_config": scenario.config.to_dict(),
        "verifier_config": to_dict(recorded_verifier),
        "bounded_config": _bounded_config_dict(recorded_bounded),
        "job_key": job.key(),
        "has": to_dict(scenario.has),
        "prop": to_dict(scenario.prop),
        "expected": {
            "symbolic": outcome.symbolic_status,
            "witness": outcome.witness_status,
            "bounded": outcome.bounded.verdict if outcome.bounded else None,
        },
    }
    if scenario.mutations:
        # mutants are not regenerable from (seed, index): the embedded
        # model dicts are the ground truth, the trail documents the edits
        entry["mutations"] = list(scenario.mutations)
    return entry


def write_corpus_entry(directory: Path | str, entry: Mapping[str, Any]) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"scenario-{_entry_slug(entry)}.json"
    path.write_text(json.dumps(entry, sort_keys=True, indent=1) + "\n")
    return path


def corpus_entry_has(
    outcome: ScenarioOutcome,
    verifier_config: VerifierConfig | None = None,
) -> str:
    """The scenario as a readable ``.has`` document (``repro.dsl``).

    The emitted text is self-contained regression material: the system,
    the property with its ``expect:`` set to the campaign's symbolic
    verdict, the generated concrete instances, and the recorded budgets
    (wall clock stripped, same corpus-grade rule as :func:`corpus_entry`)
    — loadable by ``python -m repro verify/suite`` like any hand-written
    scenario.  A header comment records the generation coordinates; the
    body round-trips through the serializer, so the job content hash is
    the JSON corpus entry's ``job_key``."""
    from repro.dsl import render_scenario

    scenario = outcome.scenario
    recorded = dataclasses.replace(
        verifier_config or DEFAULT_VERIFIER_CONFIG, time_limit_seconds=None
    )
    expect = (
        outcome.symbolic_status
        if outcome.symbolic_status
        in (STATUS_HOLDS, STATUS_VIOLATED, STATUS_BUDGET_EXCEEDED)
        else None
    )
    bounded = outcome.bounded.verdict if outcome.bounded else "-"
    header = (
        f"# {scenario.name}: generated by `python -m repro fuzz "
        f"--export-corpus --corpus-format has`\n"
        f"# seed={scenario.seed} index={scenario.index} "
        f"symbolic={outcome.symbolic_status} bounded={bounded}\n\n"
    )
    return header + render_scenario(
        scenario.has,
        properties=[(scenario.prop, expect)],
        instances=[(f"db{k}", db) for k, db in enumerate(scenario.databases)],
        config=recorded,
    )


def write_corpus_entry_has(
    directory: Path | str,
    outcome: ScenarioOutcome,
    verifier_config: VerifierConfig | None = None,
) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    scenario = outcome.scenario
    slug = _entry_slug(
        {
            "name": scenario.name,
            "seed": scenario.seed,
            "index": scenario.index,
            "mutations": list(scenario.mutations),
        }
    )
    path = directory / f"scenario-{slug}.has"
    path.write_text(corpus_entry_has(outcome, verifier_config))
    return path


def promote_survivors(
    outcomes: list[ScenarioOutcome],
    directory: Path | str,
    verifier_config: VerifierConfig | None = None,
    limit: int | None = None,
) -> list[Path]:
    """Gallery promotion: a campaign's agreeing outcomes written as
    checked-in ``.has`` scenarios (docs/testing.md has the recipe).

    Selection is gallery-grade and deterministic:

    * both checkers agreed (no discrepancy) and the symbolic verdict is
      decisive — ``holds`` or ``violated``, never budget or error;
    * ``violated`` verdicts carry a replay-confirmed concrete witness;
    * one file per distinct job content key, so re-checks of the same
      scenario never produce duplicate gallery entries;
    * coverage-novel outcomes first (campaign novelty, ties by name),
      so a ``limit`` keeps the scenarios that earned their slot.

    Mutants keep their base's system name internally, which would
    collide once base and mutant live in the same gallery directory —
    promoted mutants are renamed to their campaign label
    (``fuzz-s<seed>-i<index>-m<k>``) before rendering."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    survivors = [
        o
        for o in outcomes
        if o.agreed
        and o.symbolic_status in (STATUS_HOLDS, STATUS_VIOLATED)
        and (
            o.symbolic_status != STATUS_VIOLATED
            or o.witness_status == "confirmed"
        )
    ]
    survivors.sort(key=lambda o: (-o.novelty, o.scenario.name))
    config = dataclasses.replace(
        verifier_config or DEFAULT_VERIFIER_CONFIG, time_limit_seconds=None
    )
    paths: list[Path] = []
    seen_jobs: set[str] = set()
    for outcome in survivors:
        scenario = outcome.scenario
        key = VerificationJob(
            has=scenario.has, prop=scenario.prop, config=config, name=scenario.name
        ).key()
        if key in seen_jobs:
            continue
        seen_jobs.add(key)
        if scenario.mutations:
            has = dataclasses.replace(scenario.has, name=scenario.name)
            prop = dataclasses.replace(scenario.prop, name=f"{scenario.name}-prop")
            scenario = dataclasses.replace(scenario, has=has, prop=prop)
            outcome = dataclasses.replace(outcome, scenario=scenario)
        slug = scenario.name
        slug = slug[len("fuzz-"):] if slug.startswith("fuzz-") else slug
        path = directory / f"fuzzed_{slug.replace('-', '_')}.has"
        path.write_text(corpus_entry_has(outcome, config))
        paths.append(path)
        if limit is not None and len(paths) >= limit:
            break
    return paths


def load_corpus_entry(path: Path | str) -> dict:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("t") != "fuzz_corpus_entry":
        raise ValueError(f"{path}: not a fuzz corpus entry")
    return data


def replay_corpus_entry(entry: Mapping[str, Any]) -> tuple[ScenarioOutcome, list[str]]:
    """Regenerate the entry's scenario and re-run both checkers under the
    recorded budgets.  Returns the outcome plus mismatch notes (empty
    when the entry reproduces exactly: byte-identical models, same job
    key, same verdicts, no discrepancy)."""
    notes: list[str] = []
    gen_config = GenConfig.from_dict(entry["gen_config"])
    scenario = _rebuild_scenario(entry, gen_config, notes)
    verifier_config = from_dict(entry["verifier_config"])
    job = VerificationJob(
        has=scenario.has,
        prop=scenario.prop,
        config=verifier_config,
        name=scenario.name,
    )
    if job.key() != entry["job_key"]:
        notes.append("job content hash drifted")
    bounded_config = BoundedConfig(**entry["bounded_config"])
    outcome = check_scenario(scenario, verifier_config, bounded_config)
    expected = entry["expected"]
    if outcome.symbolic_status != expected["symbolic"]:
        notes.append(
            f"symbolic verdict {outcome.symbolic_status!r} != expected "
            f"{expected['symbolic']!r}"
        )
    if outcome.witness_status != expected["witness"]:
        notes.append(
            f"witness status {outcome.witness_status!r} != expected "
            f"{expected['witness']!r}"
        )
    bounded_verdict = outcome.bounded.verdict if outcome.bounded else None
    if bounded_verdict != expected["bounded"]:
        notes.append(
            f"bounded verdict {bounded_verdict!r} != expected "
            f"{expected['bounded']!r}"
        )
    if outcome.discrepancy is not None:
        notes.append(f"checkers disagree: {outcome.discrepancy.kind}")
    return outcome, notes


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------
@dataclass
class CampaignReport:
    """Aggregate record of one fuzzing campaign."""

    seed: int
    count: int
    gen_config: GenConfig
    outcomes: list[ScenarioOutcome] = field(default_factory=list)
    report_paths: list[Path] = field(default_factory=list)
    wall_seconds: float = 0.0
    guided: bool = False
    coverage: tuple[str, ...] = ()
    """The campaign's coverage frontier: every feature any scenario fired,
    canonical sorted order."""

    @property
    def discrepancies(self) -> list[ScenarioOutcome]:
        return [o for o in self.outcomes if o.discrepancy is not None]

    def coverage_map(self) -> dict:
        """The campaign-level coverage map: which verifier code regions
        the whole campaign exercised, and which scenario fired what.
        Deterministic for a fixed (seed, count, configs) — suitable for
        checking in as a coverage floor."""
        features = sorted(
            set(self.coverage).union(*(o.coverage for o in self.outcomes))
            if self.outcomes
            else self.coverage
        )
        return {
            "t": "fuzz_coverage_map",
            "seed": self.seed,
            "count": self.count,
            "guided": self.guided,
            "checked": len(self.outcomes),
            "feature_count": len(features),
            "features": features,
            "scenarios": {
                o.scenario.name: list(o.coverage) for o in self.outcomes
            },
        }

    def status_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.symbolic_status] = (
                counts.get(outcome.symbolic_status, 0) + 1
            )
        return counts

    def format_report(self) -> str:
        counts = self.status_counts()
        summary = ", ".join(f"{n} {status}" for status, n in sorted(counts.items()))
        mode = "guided" if self.guided else "uniform"
        lines = [
            f"fuzz campaign seed={self.seed} ({mode}): "
            f"{len(self.outcomes)} scenarios "
            f"({summary}) in {self.wall_seconds:.1f}s"
        ]
        if self.coverage:
            lines.append(
                f"  coverage: {len(self.coverage)}/{len(FEATURES)} features"
            )
        bounded_counts: dict[str, int] = {}
        for outcome in self.outcomes:
            if outcome.bounded is not None:
                verdict = outcome.bounded.verdict
                bounded_counts[verdict] = bounded_counts.get(verdict, 0) + 1
        if bounded_counts:
            rendered = ", ".join(
                f"{n} {verdict}" for verdict, n in sorted(bounded_counts.items())
            )
            lines.append(f"  bounded reference checker: {rendered}")
        if not self.discrepancies:
            lines.append("  no discrepancies — both checkers agree everywhere")
        for outcome in self.discrepancies:
            assert outcome.discrepancy is not None
            lines.append(
                f"  DISCREPANCY {outcome.scenario.name}: "
                f"{outcome.discrepancy.kind} — {outcome.discrepancy.detail}"
            )
        for path in self.report_paths:
            lines.append(f"  report written: {path}")
        return "\n".join(lines)


def write_coverage_map(path: Path | str, campaign: CampaignReport) -> Path:
    """Serialize the campaign's coverage map; returns the written path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(campaign.coverage_map(), sort_keys=True, indent=1) + "\n"
    )
    return path


def run_campaign(
    seed: int,
    count: int,
    gen_config: GenConfig | None = None,
    verifier_config: VerifierConfig | None = None,
    bounded_config: BoundedConfig | None = None,
    out_dir: Path | str | None = None,
    shrink: bool = True,
    on_outcome: Callable[[ScenarioOutcome], None] | None = None,
    guided: bool = False,
    min_novelty: int = 1,
) -> CampaignReport:
    """Generate and differentially check ``count`` scenarios.

    When ``out_dir`` is given, discrepancies are shrunk (unless
    ``shrink`` is False) and written there as replayable reports;
    without it only the outcomes are collected.

    With ``guided`` the campaign is coverage-guided: it keeps a global
    coverage frontier (the union of every checked scenario's fired
    features), scores each outcome by *novelty* (features the frontier
    had not seen), and schedules grown mutants
    (:func:`repro.fuzz.gen.grow_scenarios`) of any scenario whose
    novelty reaches ``min_novelty`` before sampling fresh scenarios.
    The total number of checks is still exactly ``count`` — guided and
    uniform campaigns with the same budget are directly comparable —
    and the schedule is deterministic for a fixed (seed, count,
    configs): mutant streams are seeded from scenario coordinates, not
    global randomness."""
    started = time.monotonic()
    gen = gen_config or GenConfig()
    campaign = CampaignReport(
        seed=seed, count=count, gen_config=gen, guided=guided
    )
    frontier: set[str] = set()
    pending: list[Scenario] = []  # grown mutants awaiting a check slot
    next_index = 0
    for slot in range(count):
        # alternate exploitation (grown mutants) with exploration (fresh
        # samples): mutants only ever take every other slot, so guided
        # campaigns keep the generator's structural diversity too.  A
        # queued mutant whose operator no longer chases anything
        # uncovered is stale — discard it without spending a check.
        uncovered = set(FEATURES) - frontier
        while pending and not (
            operator_targets(pending[0].mutations[-1]) & uncovered
        ):
            pending.pop(0)
        if pending and slot % 2 == 1:
            scenario = pending.pop(0)
        else:
            scenario = generate_scenario(seed, next_index, gen)
            next_index += 1
        outcome = check_scenario(scenario, verifier_config, bounded_config)
        outcome.novelty = len(set(outcome.coverage) - frontier)
        frontier.update(outcome.coverage)
        campaign.outcomes.append(outcome)
        if guided and outcome.novelty >= min_novelty:
            # a scenario that reached new verifier regions is a good
            # base: grow it (the shrinking edits, in reverse), chasing
            # the features the frontier is still missing
            uncovered = set(FEATURES) - frontier
            pending.extend(grow_scenarios(scenario, targets=uncovered))
        # shrinking and report assembly only pay off when the report is
        # kept; library callers without an out_dir still get the outcomes
        if outcome.discrepancy is not None and out_dir is not None:
            shrunk = None
            if shrink:
                limit = (verifier_config or DEFAULT_VERIFIER_CONFIG).time_limit_seconds
                deadline = (
                    time.monotonic() + 3 * limit if limit is not None else None
                )
                try:
                    smaller, smaller_outcome = shrink_scenario(
                        scenario,
                        outcome.discrepancy.kind,
                        verifier_config,
                        bounded_config,
                        deadline=deadline,
                    )
                except Exception:  # noqa: BLE001 — keep the campaign (and report) alive
                    smaller_outcome = None
                if smaller_outcome is not None:
                    shrunk = (smaller, smaller_outcome)
            report = discrepancy_report(
                outcome, verifier_config, bounded_config, shrunk
            )
            campaign.report_paths.append(write_report(out_dir, report))
        if on_outcome is not None:
            on_outcome(outcome)
    campaign.coverage = tuple(sorted(frontier))
    campaign.wall_seconds = time.monotonic() - started
    return campaign
