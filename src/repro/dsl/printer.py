"""Canonical pretty-printer for the ``.has`` scenario language.

The printer is the inverse of :mod:`repro.dsl.parser` **at the serialized
level**: for every supported model object ``x``,
``to_dict(parse(render(x))) == to_dict(x)``, so a printed scenario keeps
the exact job content hash of the object it was printed from.  The output
is also a *parse fixed point*: ``render(parse(render(x))) == render(x)``.

Canonicalization choices (the parser accepts more):

* ``Eq`` prints infix ``a = b`` over atomic terms; ``Not(Eq(a, b))``
  prints ``a != b``.  An :class:`ArithAtom` always prints as
  ``⟨linear expression⟩ REL 0``; when the expression would look like a
  bare atomic term under ``=``/``!=`` (one coefficient-1 unknown and no
  constant, or no unknowns at all) an explicit ``+ 0`` keeps it in the
  arithmetic grammar.
* ``F``/``G`` print for ``true U φ`` / ``false R φ`` (the structural
  encodings of Eventually/Always).
* n-ary ``And``/``Or``/``AndF``/``OrF`` print as infix chains; same-type
  operands are parenthesized (LTL connectives do not flatten, so the
  tree shape matters for hashing); degenerate chains with fewer than two
  operands print as ``all(…)`` / ``any(…)``.
* Default opening/closing services, ``pre: true``, ``post: true``, and
  ``update: none`` are omitted; config blocks list only fields that
  differ from the :class:`~repro.verifier.config.VerifierConfig`
  defaults.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from repro.database.instance import DatabaseInstance, Identifier
from repro.database.schema import AttributeKind, DatabaseSchema
from repro.dsl.document import PropertyEntry, ScenarioDocument
from repro.errors import SpecificationError
from repro.has.services import (
    ClosingService,
    InternalService,
    OpeningService,
    SetUpdate,
)
from repro.has.system import HAS
from repro.has.task import Task
from repro.hltl.formulas import ChildProp, CondProp, HLTLProperty, ServiceProp, SetAtom
from repro.logic.conditions import (
    And,
    ArithAtom,
    Atom,
    Condition,
    Eq,
    Exists,
    Not,
    Or,
    RelationAtom,
    _FalseCondition,
    _TrueCondition,
)
from repro.logic.terms import Const, NullTerm, Term, Variable, WildcardTerm
from repro.arith.constraints import Constraint, Rel
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
)
from repro.runtime.labels import ServiceRef
from repro.verifier.config import VerifierConfig

from repro.dsl.parser import RESERVED


class DslPrintError(SpecificationError):
    """The object cannot be expressed in the ``.has`` surface syntax."""


# ----------------------------------------------------------------------
# names and numbers
# ----------------------------------------------------------------------
def _name(text: str) -> str:
    """Render a name: bare identifier when possible, else quoted."""
    if text.isidentifier() and text not in RESERVED:
        return text
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _ident(text: str, what: str) -> str:
    if not text.isidentifier() or text in RESERVED:
        raise DslPrintError(f"{what} {text!r} is not expressible as an identifier")
    return text


def _frac(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _term(term: Term) -> str:
    if isinstance(term, Variable):
        return _ident(term.name, "variable")
    if isinstance(term, Const):
        return _frac(term.value)
    if isinstance(term, NullTerm):
        return "null"
    if isinstance(term, WildcardTerm):
        return "_"
    raise DslPrintError(f"not a renderable term: {term!r}")


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
def _linexpr(constraint: Constraint) -> str:
    expr = constraint.expr
    parts: list[str] = []
    for unknown in sorted(expr.unknowns, key=repr):
        if not isinstance(unknown, Variable):
            raise DslPrintError(f"non-variable unknown {unknown!r}")
        coeff = expr.coefficient(unknown)
        name = _ident(unknown.name, "variable")
        if not parts:
            if coeff == 1:
                parts.append(name)
            elif coeff == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{_frac(coeff)}*{name}")
        else:
            sign = " + " if coeff > 0 else " - "
            magnitude = abs(coeff)
            rendered = name if magnitude == 1 else f"{_frac(magnitude)}*{name}"
            parts.append(f"{sign}{rendered}")
    constant = expr.constant
    if constant != 0 or not parts:
        if not parts:
            parts.append(_frac(constant))
        else:
            sign = " + " if constant > 0 else " - "
            parts.append(f"{sign}{_frac(abs(constant))}")
    rendered = "".join(parts)
    if constraint.rel in (Rel.EQ, Rel.NE):
        # a bare atomic-looking expression under =/!= would re-parse as an
        # Eq atom; an explicit `+ 0` keeps it in the arithmetic grammar
        coeffs = expr.coeffs
        bare_var = (
            len(coeffs) == 1
            and next(iter(coeffs.values())) == 1
            and constant == 0
        )
        bare_const = not coeffs
        if bare_var or bare_const:
            rendered += " + 0"
    return rendered


# ----------------------------------------------------------------------
# conditions
# ----------------------------------------------------------------------
#: Precedence levels: Exists 0 < Or 1 < And 2 < Not 3 < atoms 4.
def _cond(condition: Condition, level: int = 0) -> str:
    text, own = _cond_inner(condition)
    if own < level:
        return f"({text})"
    return text


def _cond_inner(condition: Condition) -> tuple[str, int]:
    if isinstance(condition, _TrueCondition):
        return "true", 4
    if isinstance(condition, _FalseCondition):
        return "false", 4
    if isinstance(condition, Eq):
        return f"{_term(condition.left)} = {_term(condition.right)}", 4
    if isinstance(condition, RelationAtom):
        args = ", ".join(_term(a) for a in condition.args)
        return f"{_ident(condition.relation, 'relation')}({args})", 4
    if isinstance(condition, SetAtom):
        args = ", ".join(_ident(v.name, "variable") for v in condition.args)
        return f"S[{_ident(condition.task, 'task')}]({args})", 4
    if isinstance(condition, ArithAtom):
        text = f"{_linexpr(condition.constraint)} {condition.constraint.rel.value} 0"
        return text, 4
    if isinstance(condition, Not):
        body = condition.body
        if isinstance(body, Eq):
            return f"{_term(body.left)} != {_term(body.right)}", 4
        if isinstance(body, (Atom, _TrueCondition, _FalseCondition)):
            return f"not {_cond(body, 4)}", 3
        return f"not ({_cond(body, 0)})", 3
    if isinstance(condition, And):
        if len(condition.parts) < 2:
            inner = ", ".join(_cond(p, 0) for p in condition.parts)
            return f"all({inner})", 4
        return " and ".join(_cond(p, 3) for p in condition.parts), 2
    if isinstance(condition, Or):
        if len(condition.parts) < 2:
            inner = ", ".join(_cond(p, 0) for p in condition.parts)
            return f"any({inner})", 4
        return " or ".join(_cond(p, 2) for p in condition.parts), 1
    if isinstance(condition, Exists):
        binders = ", ".join(
            f"{_ident(v.name, 'variable')}: {'id' if v.is_id else 'num'}"
            for v in condition.bound
        )
        return f"exists {binders} . {_cond(condition.body, 0)}", 0
    raise DslPrintError(f"not a renderable condition: {condition!r}")


def render_condition(condition: Condition) -> str:
    """Render a condition in the ``.has`` surface syntax."""
    return _cond(condition, 0)


# ----------------------------------------------------------------------
# formulas
# ----------------------------------------------------------------------
#: Precedence levels: U/R 0 < or 1 < and 2 < unary 3 < primary 4.
def _formula(formula: Formula, level: int = 0) -> str:
    text, own = _formula_inner(formula)
    if own < level:
        return f"({text})"
    return text


def _formula_inner(formula: Formula) -> tuple[str, int]:
    if isinstance(formula, TrueF):
        return "true", 4
    if isinstance(formula, FalseF):
        return "false", 4
    if isinstance(formula, Prop):
        return _payload(formula.payload), 4
    if isinstance(formula, NotF):
        return f"not {_formula(formula.body, 3)}", 3
    if isinstance(formula, Next):
        return f"X {_formula(formula.body, 3)}", 3
    if isinstance(formula, Until):
        if formula.left == TrueF():
            return f"F {_formula(formula.right, 3)}", 3
        return f"{_formula(formula.left, 1)} U {_formula(formula.right, 0)}", 0
    if isinstance(formula, Release):
        if formula.left == FalseF():
            return f"G {_formula(formula.right, 3)}", 3
        return f"{_formula(formula.left, 1)} R {_formula(formula.right, 0)}", 0
    if isinstance(formula, AndF):
        if len(formula.parts) < 2:
            inner = ", ".join(_formula(p, 0) for p in formula.parts)
            return f"all({inner})", 4
        return " and ".join(_formula(p, 3) for p in formula.parts), 2
    if isinstance(formula, OrF):
        if len(formula.parts) < 2:
            inner = ", ".join(_formula(p, 0) for p in formula.parts)
            return f"any({inner})", 4
        return " or ".join(_formula(p, 2) for p in formula.parts), 1
    raise DslPrintError(f"not a renderable formula: {formula!r}")


def _payload(payload) -> str:
    if isinstance(payload, CondProp):
        return f"{{{_cond(payload.condition, 0)}}}"
    if isinstance(payload, ServiceProp):
        return _service_ref(payload.ref)
    if isinstance(payload, ChildProp):
        inner = _formula(payload.spec.formula, 0)
        return f"[{inner}]@{_ident(payload.spec.task, 'task')}"
    raise DslPrintError(f"not a renderable proposition payload: {payload!r}")


def _service_ref(ref: ServiceRef) -> str:
    task = _ident(ref.task, "task")
    if ref.is_opening:
        return f"open({task})"
    if ref.is_closing:
        return f"close({task})"
    return f"svc({task}.{_name(ref.name or '')})"


def render_formula(formula: Formula) -> str:
    """Render an HLTL-FO formula in the ``.has`` surface syntax."""
    return _formula(formula, 0)


# ----------------------------------------------------------------------
# schema, tasks, system
# ----------------------------------------------------------------------
def _render_schema(schema: DatabaseSchema, indent: str) -> list[str]:
    lines = [f"{indent}schema {{"]
    for relation in schema.relations:
        attrs = []
        for attribute in relation.attributes:
            if attribute.kind is AttributeKind.NUMERIC:
                attrs.append(f"{_ident(attribute.name, 'attribute')}: num")
            else:
                attrs.append(
                    f"{_ident(attribute.name, 'attribute')}: "
                    f"ref {_ident(attribute.references or '', 'relation')}"
                )
        lines.append(
            f"{indent}  relation {_ident(relation.name, 'relation')}"
            f"({', '.join(attrs)})"
        )
    lines.append(f"{indent}}}")
    return lines


def _render_varmap(entries: Iterable[tuple[Variable, Variable]]) -> str:
    return ", ".join(
        f"{_ident(a.name, 'variable')} <- {_ident(b.name, 'variable')}"
        for a, b in entries
    )


def _render_task(task: Task, indent: str) -> list[str]:
    pad = indent + "  "
    lines = [f"{indent}task {_ident(task.name, 'task')} {{"]
    if task.variables:
        decls = ", ".join(
            f"{_ident(v.name, 'variable')}: {'id' if v.is_id else 'num'}"
            for v in task.variables
        )
        lines.append(f"{pad}vars {decls}")
    if task.set_variables:
        names = ", ".join(_ident(v.name, "variable") for v in task.set_variables)
        lines.append(f"{pad}set {names}")
    opening = task.opening
    if opening != OpeningService():
        clause = f"{pad}opening {{ pre: {_cond(opening.pre)}"
        if opening.input_map:
            clause += f" input {_render_varmap(opening.input_map.items())}"
        lines.append(clause + " }")
    closing = task.closing
    if closing != ClosingService():
        clause = f"{pad}closing {{ pre: {_cond(closing.pre)}"
        if closing.output_map:
            clause += f" output {_render_varmap(closing.output_map.items())}"
        lines.append(clause + " }")
    for service in task.services:
        lines.extend(_render_service(service, pad))
    for child in task.children:
        lines.extend(_render_task(child, pad))
    lines.append(f"{indent}}}")
    return lines


def _render_service(service: InternalService, indent: str) -> list[str]:
    pad = indent + "  "
    lines = [f"{indent}service {_name(service.name)} {{"]
    if not isinstance(service.pre, _TrueCondition):
        lines.append(f"{pad}pre: {_cond(service.pre)}")
    if not isinstance(service.post, _TrueCondition):
        lines.append(f"{pad}post: {_cond(service.post)}")
    if service.update is not SetUpdate.NONE:
        lines.append(f"{pad}update: {service.update.value}")
    lines.append(f"{indent}}}")
    return lines


def render_system(has: HAS) -> str:
    """Render a complete ``system`` block."""
    lines = [f"system {_name(has.name)} {{"]
    lines.extend(_render_schema(has.database, "  "))
    lines.append("")
    lines.extend(_render_task(has.root, "  "))
    if not isinstance(has.precondition, _TrueCondition):
        lines.append("")
        lines.append(f"  precondition: {_cond(has.precondition)}")
    lines.append("}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# properties, instances, config, document
# ----------------------------------------------------------------------
def render_property(prop: HLTLProperty, expect: str | None = None) -> str:
    """Render a ``property`` block (optionally with its expectation)."""
    lines = [
        f"property {_name(prop.name)} on {_ident(prop.root.task, 'task')} {{"
    ]
    if prop.global_variables:
        decls = ", ".join(
            f"{_ident(v.name, 'variable')}: {'id' if v.is_id else 'num'}"
            for v in prop.global_variables
        )
        lines.append(f"  globals {decls}")
    if expect is not None:
        lines.append(f"  expect: {expect}")
    lines.append(f"  formula: {_formula(prop.root.formula)}")
    lines.append("}")
    return "\n".join(lines)


def render_instance(name: str, db: DatabaseInstance) -> str:
    """Render an ``instance`` block (rows in schema, then insertion order)."""
    lines = [f"instance {_name(name)} {{"]
    for relation in db.schema.relations:
        for row in db.rows(relation.name):
            ident = row[0]
            assert isinstance(ident, Identifier)
            cells = []
            for attribute, value in zip(relation.attributes, row[1:]):
                if attribute.kind is AttributeKind.NUMERIC:
                    rendered = _frac(Fraction(value))  # type: ignore[arg-type]
                else:
                    assert isinstance(value, Identifier)
                    rendered = _name(value.label)
                cells.append(f"{_name(attribute.name)}: {rendered}")
            lines.append(
                f"  {_ident(relation.name, 'relation')} {_name(ident.label)}"
                f" ({', '.join(cells)})"
            )
    lines.append("}")
    return "\n".join(lines)


def _config_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        rendered = repr(value)
        if any(ch in rendered for ch in "einEIN"):
            raise DslPrintError(f"config float {value!r} is not expressible")
        return rendered
    raise DslPrintError(f"config value {value!r} is not expressible")


def render_config(config: VerifierConfig) -> str:
    """Render a ``config`` block listing the non-default fields."""
    defaults = VerifierConfig()
    lines = ["config {"]
    for field in VerifierConfig.__dataclass_fields__:
        value = getattr(config, field)
        if value != getattr(defaults, field):
            lines.append(f"  {field}: {_config_value(value)}")
    lines.append("}")
    return "\n".join(lines)


def render_document(doc: ScenarioDocument) -> str:
    """Render a full document; the result is a parse fixed point."""
    blocks = [render_system(doc.system)]
    for entry in doc.properties:
        blocks.append(render_property(entry.prop, entry.expect))
    for name, db in doc.instances:
        blocks.append(render_instance(name, db))
    if doc.config is not None:
        blocks.append(render_config(doc.config))
    return "\n\n".join(blocks) + "\n"


def render_scenario(
    has: HAS,
    properties: Iterable[tuple[HLTLProperty, str | None]] = (),
    instances: Iterable[tuple[str, DatabaseInstance]] = (),
    config: VerifierConfig | None = None,
) -> str:
    """Render loose model objects as one ``.has`` document (used by the
    fuzz corpus exporter and by tooling that has no ScenarioDocument)."""
    doc = ScenarioDocument(
        system=has,
        properties=[PropertyEntry(prop, expect) for prop, expect in properties],
        instances=list(instances),
        config=config,
    )
    return render_document(doc)
