"""Canonical serialization of the model layer.

Round-trip ``to_dict`` / ``from_dict`` for everything a verification job
carries across a process boundary: database schemas, the task hierarchy
with its services, conditions (including arithmetic atoms and surface
existentials), LTL formulas with their HLTL-FO proposition payloads, and
complete :class:`~repro.has.system.HAS` / :class:`HLTLProperty` objects.

Every serialized node is a plain-JSON dict tagged with ``"t"``; rationals
are encoded exactly as ``"p/q"`` strings.  :func:`canonical_json` renders
any serializable object deterministically (sorted keys, no whitespace),
and :func:`content_hash` derives the content-addressed key the result
cache and job pool are built on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields
from fractions import Fraction
from typing import Any, Callable, Iterable

from repro.arith.constraints import Constraint, Rel
from repro.arith.linexpr import LinExpr
from repro.database.schema import Attribute, AttributeKind, DatabaseSchema, Relation
from repro.errors import SpecificationError
from repro.has.services import (
    ClosingService,
    InternalService,
    OpeningService,
    SetUpdate,
)
from repro.has.system import HAS
from repro.has.task import Task
from repro.hltl.formulas import (
    ChildProp,
    CondProp,
    HLTLProperty,
    HLTLSpec,
    ServiceProp,
    SetAtom,
)
from repro.logic.conditions import (
    And,
    ArithAtom,
    Condition,
    Eq,
    Exists,
    FALSE,
    Not,
    Or,
    RelationAtom,
    TRUE,
)
from repro.logic.terms import (
    ANY,
    Const,
    NULL,
    NullTerm,
    Term,
    Variable,
    VarKind,
    WildcardTerm,
)
from repro.ltl.formulas import (
    AndF,
    FalseF,
    Formula,
    Next,
    NotF,
    OrF,
    Prop,
    Release,
    TrueF,
    Until,
    propositions,
)
from repro.runtime.labels import ServiceKind, ServiceRef
from repro.verifier.config import VerifierConfig


class SerializationError(SpecificationError):
    """An object (or serialized form) outside the supported vocabulary."""


# ----------------------------------------------------------------------
# rationals
# ----------------------------------------------------------------------
def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _parse_frac(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


# ----------------------------------------------------------------------
# terms
# ----------------------------------------------------------------------
def _variable_to_dict(variable: Variable) -> dict:
    return {"t": "var", "name": variable.name, "kind": variable.kind.value}


def _term_to_dict(term: Term) -> dict:
    if isinstance(term, Variable):
        return _variable_to_dict(term)
    if isinstance(term, Const):
        return {"t": "const", "value": _frac_str(term.value)}
    if isinstance(term, NullTerm):
        return {"t": "null"}
    if isinstance(term, WildcardTerm):
        return {"t": "any"}
    raise SerializationError(f"not a serializable term: {term!r}")


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
def _linexpr_to_dict(expr: LinExpr) -> dict:
    terms = []
    for unknown in sorted(expr.unknowns, key=repr):
        if not isinstance(unknown, Variable):
            raise SerializationError(
                f"linear expression over non-variable unknown {unknown!r}"
            )
        terms.append([_variable_to_dict(unknown), _frac_str(expr.coefficient(unknown))])
    return {"t": "linexpr", "terms": terms, "constant": _frac_str(expr.constant)}


def _constraint_to_dict(constraint: Constraint) -> dict:
    return {
        "t": "constraint",
        "expr": _linexpr_to_dict(constraint.expr),
        "rel": constraint.rel.value,
    }


# ----------------------------------------------------------------------
# conditions
# ----------------------------------------------------------------------
def _condition_to_dict(condition: Condition) -> dict:
    if condition is TRUE or isinstance(condition, type(TRUE)):
        return {"t": "true"}
    if condition is FALSE or isinstance(condition, type(FALSE)):
        return {"t": "false"}
    if isinstance(condition, Eq):
        return {
            "t": "eq",
            "left": _term_to_dict(condition.left),
            "right": _term_to_dict(condition.right),
        }
    if isinstance(condition, RelationAtom):
        return {
            "t": "rel_atom",
            "relation": condition.relation,
            "args": [_term_to_dict(a) for a in condition.args],
        }
    if isinstance(condition, ArithAtom):
        return {"t": "arith_atom", "constraint": _constraint_to_dict(condition.constraint)}
    if isinstance(condition, SetAtom):
        return {
            "t": "set_atom",
            "task": condition.task,
            "args": [_variable_to_dict(v) for v in condition.args],
        }
    if isinstance(condition, Not):
        return {"t": "not", "body": _condition_to_dict(condition.body)}
    if isinstance(condition, And):
        return {"t": "and", "parts": [_condition_to_dict(p) for p in condition.parts]}
    if isinstance(condition, Or):
        return {"t": "or", "parts": [_condition_to_dict(p) for p in condition.parts]}
    if isinstance(condition, Exists):
        return {
            "t": "exists",
            "bound": [_variable_to_dict(v) for v in condition.bound],
            "body": _condition_to_dict(condition.body),
        }
    raise SerializationError(f"not a serializable condition: {condition!r}")


# ----------------------------------------------------------------------
# LTL formulas and HLTL-FO payloads
# ----------------------------------------------------------------------
def _service_ref_to_dict(ref: ServiceRef) -> dict:
    data: dict = {"t": "service_ref", "kind": ref.kind.value, "task": ref.task}
    if ref.name is not None:
        data["name"] = ref.name
    return data


def _formula_to_dict(formula: Formula) -> dict:
    if isinstance(formula, TrueF):
        return {"t": "ltl_true"}
    if isinstance(formula, FalseF):
        return {"t": "ltl_false"}
    if isinstance(formula, Prop):
        payload = formula.payload
        if isinstance(payload, CondProp):
            inner: dict = {
                "t": "cond_prop",
                "condition": _condition_to_dict(payload.condition),
            }
        elif isinstance(payload, ServiceProp):
            inner = {"t": "service_prop", "ref": _service_ref_to_dict(payload.ref)}
        elif isinstance(payload, ChildProp):
            inner = {"t": "child_prop", "spec": _spec_to_dict(payload.spec)}
        else:
            raise SerializationError(f"not a serializable payload: {payload!r}")
        return {"t": "prop", "payload": inner}
    if isinstance(formula, NotF):
        return {"t": "ltl_not", "body": _formula_to_dict(formula.body)}
    if isinstance(formula, AndF):
        return {"t": "ltl_and", "parts": [_formula_to_dict(p) for p in formula.parts]}
    if isinstance(formula, OrF):
        return {"t": "ltl_or", "parts": [_formula_to_dict(p) for p in formula.parts]}
    if isinstance(formula, Next):
        return {"t": "next", "body": _formula_to_dict(formula.body)}
    if isinstance(formula, Until):
        return {
            "t": "until",
            "left": _formula_to_dict(formula.left),
            "right": _formula_to_dict(formula.right),
        }
    if isinstance(formula, Release):
        return {
            "t": "release",
            "left": _formula_to_dict(formula.left),
            "right": _formula_to_dict(formula.right),
        }
    raise SerializationError(f"not a serializable formula: {formula!r}")


def _spec_to_dict(spec: HLTLSpec) -> dict:
    return {"t": "spec", "task": spec.task, "formula": _formula_to_dict(spec.formula)}


def _property_to_dict(prop: HLTLProperty) -> dict:
    return {
        "t": "property",
        "name": prop.name,
        "globals": [_variable_to_dict(v) for v in prop.global_variables],
        "root": _spec_to_dict(prop.root),
    }


# ----------------------------------------------------------------------
# schema
# ----------------------------------------------------------------------
def _attribute_to_dict(attribute: Attribute) -> dict:
    data: dict = {"t": "attribute", "name": attribute.name, "kind": attribute.kind.value}
    if attribute.references is not None:
        data["references"] = attribute.references
    return data


def _relation_to_dict(relation: Relation) -> dict:
    return {
        "t": "relation",
        "name": relation.name,
        "attributes": [_attribute_to_dict(a) for a in relation.attributes],
    }


def _schema_to_dict(schema: DatabaseSchema) -> dict:
    return {
        "t": "schema",
        "relations": [_relation_to_dict(r) for r in schema.relations],
    }


# ----------------------------------------------------------------------
# services and tasks
# ----------------------------------------------------------------------
def _varmap_to_list(mapping) -> list:
    return [
        [_variable_to_dict(key), _variable_to_dict(value)]
        for key, value in mapping.items()
    ]


def _internal_to_dict(service: InternalService) -> dict:
    return {
        "t": "internal_service",
        "name": service.name,
        "pre": _condition_to_dict(service.pre),
        "post": _condition_to_dict(service.post),
        "update": service.update.value,
    }


def _opening_to_dict(service: OpeningService) -> dict:
    return {
        "t": "opening_service",
        "pre": _condition_to_dict(service.pre),
        "input_map": _varmap_to_list(service.input_map),
    }


def _closing_to_dict(service: ClosingService) -> dict:
    return {
        "t": "closing_service",
        "pre": _condition_to_dict(service.pre),
        "output_map": _varmap_to_list(service.output_map),
    }


def _task_to_dict(task: Task) -> dict:
    return {
        "t": "task",
        "name": task.name,
        "variables": [_variable_to_dict(v) for v in task.variables],
        "set_variables": [_variable_to_dict(v) for v in task.set_variables],
        "services": [_internal_to_dict(s) for s in task.services],
        "opening": _opening_to_dict(task.opening),
        "closing": _closing_to_dict(task.closing),
        "children": [_task_to_dict(c) for c in task.children],
    }


def _has_to_dict(has: HAS) -> dict:
    return {
        "t": "has",
        "name": has.name,
        "database": _schema_to_dict(has.database),
        "root": _task_to_dict(has.root),
        "precondition": _condition_to_dict(has.precondition),
    }


_CONFIG_FIELDS = frozenset(field.name for field in fields(VerifierConfig))


def _config_to_dict(config: VerifierConfig) -> dict:
    return {"t": "verifier_config", **asdict(config)}


# ----------------------------------------------------------------------
# public dispatch
# ----------------------------------------------------------------------
_TO_DISPATCH: tuple[tuple[type, Callable[[Any], dict]], ...] = (
    (HAS, _has_to_dict),
    (Task, _task_to_dict),
    (DatabaseSchema, _schema_to_dict),
    (Relation, _relation_to_dict),
    (Attribute, _attribute_to_dict),
    (HLTLProperty, _property_to_dict),
    (HLTLSpec, _spec_to_dict),
    (InternalService, _internal_to_dict),
    (OpeningService, _opening_to_dict),
    (ClosingService, _closing_to_dict),
    (ServiceRef, _service_ref_to_dict),
    (Constraint, _constraint_to_dict),
    (LinExpr, _linexpr_to_dict),
    (VerifierConfig, _config_to_dict),
    (Condition, _condition_to_dict),
    (Formula, _formula_to_dict),
    (Variable, _variable_to_dict),
    (Const, _term_to_dict),
    (NullTerm, _term_to_dict),
    (WildcardTerm, _term_to_dict),
)


def to_dict(obj: Any) -> dict:
    """Serialize any supported model object to a tagged plain-JSON dict."""
    for cls, encode in _TO_DISPATCH:
        if isinstance(obj, cls):
            return encode(obj)
    raise SerializationError(f"no serialization for {type(obj).__name__}: {obj!r}")


def _d(data: dict, key: str) -> Any:
    try:
        return data[key]
    except KeyError:
        raise SerializationError(f"{data.get('t', '?')}: missing field {key!r}") from None


def _from_variable(data: dict) -> Variable:
    return Variable(_d(data, "name"), VarKind(_d(data, "kind")))


def _from_term(data: dict) -> Term:
    tag = _d(data, "t")
    if tag == "var":
        return _from_variable(data)
    if tag == "const":
        return Const(_parse_frac(_d(data, "value")))
    if tag == "null":
        return NULL
    if tag == "any":
        return ANY
    raise SerializationError(f"not a term tag: {tag!r}")


def _from_linexpr(data: dict) -> LinExpr:
    coeffs = {
        _from_variable(var): _parse_frac(coeff) for var, coeff in _d(data, "terms")
    }
    return LinExpr(coeffs, _parse_frac(_d(data, "constant")))


def _from_constraint(data: dict) -> Constraint:
    return Constraint(_from_linexpr(_d(data, "expr")), Rel(_d(data, "rel")))


def _from_condition(data: dict) -> Condition:
    tag = _d(data, "t")
    if tag == "true":
        return TRUE
    if tag == "false":
        return FALSE
    if tag == "eq":
        return Eq(_from_term(_d(data, "left")), _from_term(_d(data, "right")))
    if tag == "rel_atom":
        return RelationAtom(
            _d(data, "relation"), tuple(_from_term(a) for a in _d(data, "args"))
        )
    if tag == "arith_atom":
        return ArithAtom(_from_constraint(_d(data, "constraint")))
    if tag == "set_atom":
        return SetAtom(
            _d(data, "task"), tuple(_from_variable(v) for v in _d(data, "args"))
        )
    if tag == "not":
        return Not(_from_condition(_d(data, "body")))
    if tag == "and":
        return And(*(_from_condition(p) for p in _d(data, "parts")))
    if tag == "or":
        return Or(*(_from_condition(p) for p in _d(data, "parts")))
    if tag == "exists":
        return Exists(
            tuple(_from_variable(v) for v in _d(data, "bound")),
            _from_condition(_d(data, "body")),
        )
    raise SerializationError(f"not a condition tag: {tag!r}")


def _from_service_ref(data: dict) -> ServiceRef:
    return ServiceRef(ServiceKind(_d(data, "kind")), _d(data, "task"), data.get("name"))


def _from_payload(data: dict) -> Any:
    tag = _d(data, "t")
    if tag == "cond_prop":
        return CondProp(_from_condition(_d(data, "condition")))
    if tag == "service_prop":
        return ServiceProp(_from_service_ref(_d(data, "ref")))
    if tag == "child_prop":
        return ChildProp(_from_spec(_d(data, "spec")))
    raise SerializationError(f"not a payload tag: {tag!r}")


def _from_formula(data: dict) -> Formula:
    tag = _d(data, "t")
    if tag == "ltl_true":
        return TrueF()
    if tag == "ltl_false":
        return FalseF()
    if tag == "prop":
        return Prop(_from_payload(_d(data, "payload")))
    if tag == "ltl_not":
        return NotF(_from_formula(_d(data, "body")))
    if tag == "ltl_and":
        return AndF(*(_from_formula(p) for p in _d(data, "parts")))
    if tag == "ltl_or":
        return OrF(*(_from_formula(p) for p in _d(data, "parts")))
    if tag == "next":
        return Next(_from_formula(_d(data, "body")))
    if tag == "until":
        return Until(_from_formula(_d(data, "left")), _from_formula(_d(data, "right")))
    if tag == "release":
        return Release(_from_formula(_d(data, "left")), _from_formula(_d(data, "right")))
    raise SerializationError(f"not a formula tag: {tag!r}")


def _from_spec(data: dict) -> HLTLSpec:
    return HLTLSpec(_d(data, "task"), _from_formula(_d(data, "formula")))


def _from_property(data: dict) -> HLTLProperty:
    return HLTLProperty(
        root=_from_spec(_d(data, "root")),
        global_variables=tuple(_from_variable(v) for v in data.get("globals", ())),
        name=_d(data, "name"),
    )


def _from_attribute(data: dict) -> Attribute:
    return Attribute(
        _d(data, "name"), AttributeKind(_d(data, "kind")), data.get("references")
    )


def _from_relation(data: dict) -> Relation:
    return Relation(
        _d(data, "name"), tuple(_from_attribute(a) for a in _d(data, "attributes"))
    )


def _from_schema(data: dict) -> DatabaseSchema:
    return DatabaseSchema(tuple(_from_relation(r) for r in _d(data, "relations")))


def _from_varmap(entries: list) -> dict[Variable, Variable]:
    return {_from_variable(key): _from_variable(value) for key, value in entries}


def _from_internal(data: dict) -> InternalService:
    return InternalService(
        name=_d(data, "name"),
        pre=_from_condition(_d(data, "pre")),
        post=_from_condition(_d(data, "post")),
        update=SetUpdate(_d(data, "update")),
    )


def _from_opening(data: dict) -> OpeningService:
    return OpeningService(
        pre=_from_condition(_d(data, "pre")),
        input_map=_from_varmap(_d(data, "input_map")),
    )


def _from_closing(data: dict) -> ClosingService:
    return ClosingService(
        pre=_from_condition(_d(data, "pre")),
        output_map=_from_varmap(_d(data, "output_map")),
    )


def _from_task(data: dict) -> Task:
    return Task(
        name=_d(data, "name"),
        variables=tuple(_from_variable(v) for v in _d(data, "variables")),
        set_variables=tuple(_from_variable(v) for v in _d(data, "set_variables")),
        services=tuple(_from_internal(s) for s in _d(data, "services")),
        opening=_from_opening(_d(data, "opening")),
        closing=_from_closing(_d(data, "closing")),
        children=tuple(_from_task(c) for c in _d(data, "children")),
    )


def _from_has(data: dict) -> HAS:
    return HAS(
        database=_from_schema(_d(data, "database")),
        root=_from_task(_d(data, "root")),
        precondition=_from_condition(_d(data, "precondition")),
        name=_d(data, "name"),
    )


def _from_config(data: dict) -> VerifierConfig:
    values = {k: v for k, v in data.items() if k != "t"}
    unknown = sorted(values.keys() - _CONFIG_FIELDS)
    if unknown:
        # a removed knob must not be dropped silently: the job it came
        # from asked for behaviour this version no longer has
        raise SerializationError(
            f"verifier_config: unknown field(s) {', '.join(map(repr, unknown))}"
        )
    return VerifierConfig(**values)


_FROM_DISPATCH: dict[str, Callable[[dict], Any]] = {
    "var": _from_variable,
    "const": _from_term,
    "null": _from_term,
    "any": _from_term,
    "linexpr": _from_linexpr,
    "constraint": _from_constraint,
    "true": _from_condition,
    "false": _from_condition,
    "eq": _from_condition,
    "rel_atom": _from_condition,
    "arith_atom": _from_condition,
    "set_atom": _from_condition,
    "not": _from_condition,
    "and": _from_condition,
    "or": _from_condition,
    "exists": _from_condition,
    "service_ref": _from_service_ref,
    "cond_prop": _from_payload,
    "service_prop": _from_payload,
    "child_prop": _from_payload,
    "ltl_true": _from_formula,
    "ltl_false": _from_formula,
    "prop": _from_formula,
    "ltl_not": _from_formula,
    "ltl_and": _from_formula,
    "ltl_or": _from_formula,
    "next": _from_formula,
    "until": _from_formula,
    "release": _from_formula,
    "spec": _from_spec,
    "property": _from_property,
    "attribute": _from_attribute,
    "relation": _from_relation,
    "schema": _from_schema,
    "internal_service": _from_internal,
    "opening_service": _from_opening,
    "closing_service": _from_closing,
    "task": _from_task,
    "has": _from_has,
    "verifier_config": _from_config,
}


def from_dict(data: dict) -> Any:
    """Reconstruct a model object from its tagged dict form."""
    if not isinstance(data, dict) or "t" not in data:
        raise SerializationError(f"not a tagged serialized object: {data!r}")
    tag = data["t"]
    try:
        decode = _FROM_DISPATCH[tag]
    except KeyError:
        raise SerializationError(f"unknown tag {tag!r}") from None
    return decode(data)


# ----------------------------------------------------------------------
# subtree slicing (cross-job summary reuse)
# ----------------------------------------------------------------------
def _collect_condition_relations(condition: Condition, names: set[str]) -> None:
    if isinstance(condition, RelationAtom):
        names.add(condition.relation)
    elif isinstance(condition, Not):
        _collect_condition_relations(condition.body, names)
    elif isinstance(condition, (And, Or)):
        for part in condition.parts:
            _collect_condition_relations(part, names)
    elif isinstance(condition, Exists):
        _collect_condition_relations(condition.body, names)
    # TRUE / FALSE / Eq / ArithAtom / SetAtom mention no relations


def spec_relation_names(spec: HLTLSpec) -> set[str]:
    """Relations named by the spec's condition propositions, including the
    nested child-spec obligations (β's domain is closed under children)."""
    names: set[str] = set()
    for payload in propositions(spec.formula):
        if isinstance(payload, CondProp):
            _collect_condition_relations(payload.condition, names)
        elif isinstance(payload, ChildProp):
            names |= spec_relation_names(payload.spec)
    return names


def task_relation_names(task: Task) -> set[str]:
    """Relations named by any service condition in the task subtree."""
    names: set[str] = set()
    _collect_condition_relations(task.opening.pre, names)
    _collect_condition_relations(task.closing.pre, names)
    for service in task.services:
        _collect_condition_relations(service.pre, names)
        _collect_condition_relations(service.post, names)
    for child in task.children:
        names |= task_relation_names(child)
    return names


def schema_slice(schema: DatabaseSchema, names: Iterable[str]) -> list[dict]:
    """The foreign-key closure of ``names`` within ``schema``, as a sorted
    list of serialized relations.

    This is exactly the schema material a task subtree's exploration can
    read: a relation's *internals* (attributes, their kinds, their FK
    targets) are only consulted through navigation from a node anchored to
    it — reachable from the subtree's conditions, the input type's
    anchors, and the β-obligation conditions — and through the inclusion
    dependencies of relations already in the slice.  Anchoring decisions
    that touch the rest of the schema read only relation *names*, which
    the caller hashes separately as the full name universe.
    """
    reachable: set[str] = set()
    frontier = [name for name in names if name in schema]
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        reachable.add(name)
        for attribute in schema.relation(name).attributes:
            referenced = attribute.references
            if referenced is not None and referenced in schema:
                frontier.append(referenced)
    return [_relation_to_dict(schema.relation(name)) for name in sorted(reachable)]


# ----------------------------------------------------------------------
# canonical rendering and hashing
# ----------------------------------------------------------------------
def canonical_json(data: Any) -> str:
    """Deterministic JSON: sorted keys, minimal separators, pure ASCII."""
    if not isinstance(data, (dict, list, str, int, float, bool, type(None))):
        data = to_dict(data)
    return json.dumps(data, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def content_hash(data: Any) -> str:
    """SHA-256 over the canonical JSON rendering — the content address."""
    return hashlib.sha256(canonical_json(data).encode("ascii")).hexdigest()
