"""Recursive-descent parser for the ``.has`` scenario language.

The parser builds the existing model objects directly — no intermediate
AST — so a parsed document serializes through
:mod:`repro.service.serialize` exactly like its Python-built twin, and
job content hashes agree.  See ``docs/dsl.md`` for the grammar and the
mapping of every construct to its paper definition.

Disambiguation rules the printer relies on (and the reference documents):

* ``a = b`` / ``a != b`` with both sides *atomic terms* build
  :class:`~repro.logic.conditions.Eq` / ``Not(Eq)``; any comparison with
  a compound side (or with ``<``, ``<=``, ``>``, ``>=``) builds an
  :class:`~repro.logic.conditions.ArithAtom`.  The printer renders an
  arithmetic equality whose expression would look atomic as
  ``x + 0 = 0`` so the two atom kinds never collide.
* ``and`` / ``or`` chains build one n-ary node per chain.  Conditions
  flatten by construction; LTL ``AndF``/``OrF`` do *not*, so
  parenthesized operands preserve the exact tree shape.
* ``F φ`` and ``G φ`` are parsed as ``true U φ`` and ``false R φ`` —
  structurally identical to the :func:`repro.ltl.formulas.Eventually` /
  ``Always`` helpers.
"""

from __future__ import annotations

from fractions import Fraction

from repro.database.instance import DatabaseInstance
from repro.database.schema import (
    Attribute,
    AttributeKind,
    DatabaseSchema,
    Relation,
)
from repro.dsl.document import EXPECTATIONS, PropertyEntry, ScenarioDocument
from repro.dsl.lexer import (
    DslSyntaxError,
    EOF,
    IDENT,
    NUMBER,
    OP,
    STRING,
    Token,
    tokenize,
)
from repro.errors import ReproError
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
    Term,
    Variable,
    VarKind,
)
from repro.arith.constraints import Rel, compare
from repro.arith.linexpr import LinExpr
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
from repro.runtime.labels import ServiceKind, ServiceRef
from repro.verifier.config import VerifierConfig

#: Words that cannot name variables, relations, or attributes — they are
#: meaningful inside condition expressions, where bare identifiers occur.
RESERVED = frozenset(
    {"true", "false", "null", "not", "and", "or", "exists", "all", "any"}
)

_COMPARISONS = {"=", "!=", "<", "<=", ">", ">="}

_CONFIG_FIELDS = frozenset(VerifierConfig.__dataclass_fields__)


class _Parser:
    def __init__(self, text: str, source: str):
        self.source = source
        self.tokens = tokenize(text, source)
        self.pos = 0
        # document-wide variable kinds (task variables + property globals)
        self.kinds: dict[str, VarKind] = {}
        # scoped overrides (exists binders), innermost last
        self.scopes: list[dict[str, VarKind]] = []

    # ------------------------------------------------------------------
    # token stream helpers
    # ------------------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != EOF:
            self.pos += 1
        return token

    def at_call(self, word: str) -> bool:
        """At ``word`` immediately followed by ``(``."""
        follow = self.peek(1)
        return self.at_word(word) and follow.kind == OP and follow.text == "("

    def error(self, message: str, token: Token | None = None) -> DslSyntaxError:
        token = token or self.peek()
        return DslSyntaxError(message, self.source, token.line, token.column)

    def at_op(self, text: str) -> bool:
        token = self.peek()
        return token.kind == OP and token.text == text

    def at_word(self, text: str) -> bool:
        token = self.peek()
        return token.kind == IDENT and token.text == text

    def eat_op(self, text: str) -> bool:
        if self.at_op(text):
            self.pos += 1
            return True
        return False

    def eat_word(self, text: str) -> bool:
        if self.at_word(text):
            self.pos += 1
            return True
        return False

    def expect_op(self, text: str) -> Token:
        if not self.at_op(text):
            raise self.error(f"expected {text!r}, got {self.peek().text!r}")
        return self.next()

    def expect_word(self, text: str) -> Token:
        if not self.at_word(text):
            raise self.error(f"expected keyword {text!r}, got {self.peek().text!r}")
        return self.next()

    def expect_ident(self, what: str) -> str:
        token = self.peek()
        if token.kind != IDENT:
            raise self.error(f"expected {what}, got {token.text or 'end of file'!r}")
        self.next()
        return token.text

    def expect_name(self, what: str) -> str:
        """An identifier or a quoted string (names may contain dashes)."""
        token = self.peek()
        if token.kind in (IDENT, STRING):
            self.next()
            return token.text
        raise self.error(f"expected {what}, got {token.text or 'end of file'!r}")

    def expect_declared_name(self, what: str) -> str:
        name = self.expect_name(what)
        if name in RESERVED:
            raise self.error(f"{name!r} is a reserved word and cannot name a {what}")
        return name

    # ------------------------------------------------------------------
    # variable scoping
    # ------------------------------------------------------------------
    def declare(self, name: str, kind: VarKind, token: Token) -> Variable:
        if name in RESERVED:
            raise self.error(
                f"{name!r} is a reserved word and cannot name a variable", token
            )
        existing = self.kinds.get(name)
        if existing is not None and existing is not kind:
            raise self.error(
                f"variable {name!r} was declared {existing.value} elsewhere in "
                f"this document; one file must use one kind per name",
                token,
            )
        self.kinds[name] = kind
        return Variable(name, kind)

    def lookup(self, name: str, token: Token) -> Variable:
        for scope in reversed(self.scopes):
            if name in scope:
                return Variable(name, scope[name])
        kind = self.kinds.get(name)
        if kind is None:
            raise self.error(
                f"unknown variable {name!r} (declare it in a task's `vars`, a "
                f"property's `globals`, or an `exists` binder)",
                token,
            )
        return Variable(name, kind)

    # ------------------------------------------------------------------
    # document
    # ------------------------------------------------------------------
    def parse_document(self) -> ScenarioDocument:
        system: HAS | None = None
        schema: DatabaseSchema | None = None
        properties: list[PropertyEntry] = []
        instances: list[tuple[str, DatabaseInstance]] = []
        config: VerifierConfig | None = None
        while self.peek().kind != EOF:
            if self.at_word("system"):
                if system is not None:
                    raise self.error("a .has document declares exactly one system")
                system, schema = self.parse_system()
            elif self.at_word("property"):
                if system is None:
                    raise self.error("`property` must follow the `system` block")
                token = self.peek()
                entry = self.parse_property(system)
                if any(e.prop.name == entry.prop.name for e in properties):
                    raise self.error(
                        f"duplicate property name {entry.prop.name!r} — the "
                        f"`::{entry.prop.name}` selector would be ambiguous",
                        token,
                    )
                properties.append(entry)
            elif self.at_word("instance"):
                if schema is None:
                    raise self.error("`instance` must follow the `system` block")
                token = self.peek()
                name, db = self.parse_instance(schema)
                if any(existing == name for existing, _ in instances):
                    raise self.error(
                        f"duplicate instance name {name!r}", token
                    )
                instances.append((name, db))
            elif self.at_word("config"):
                if config is not None:
                    raise self.error("duplicate `config` block")
                config = self.parse_config()
            else:
                raise self.error(
                    f"expected `system`, `property`, `instance`, or `config`, "
                    f"got {self.peek().text!r}"
                )
        if system is None:
            raise self.error("document has no `system` block")
        return ScenarioDocument(
            system=system,
            properties=properties,
            instances=instances,
            config=config,
            source=self.source,
        )

    # ------------------------------------------------------------------
    # system / schema
    # ------------------------------------------------------------------
    def parse_system(self) -> tuple[HAS, DatabaseSchema]:
        self.expect_word("system")
        name = self.expect_name("system name")
        self.expect_op("{")
        self.expect_word("schema")
        schema = self.parse_schema()
        if not self.at_word("task"):
            raise self.error("expected the root `task` block after `schema`")
        root = self.parse_task(schema)
        precondition: Condition = TRUE
        if self.eat_word("precondition"):
            self.expect_op(":")
            precondition = self.parse_condition()
        self.expect_op("}")
        try:
            return (
                HAS(schema, root, precondition=precondition, name=name),
                schema,
            )
        except ReproError as exc:
            raise self.error(f"invalid system: {exc}") from exc

    def parse_schema(self) -> DatabaseSchema:
        self.expect_op("{")
        relations: list[Relation] = []
        while self.at_word("relation"):
            self.next()
            token = self.peek()
            rel_name = self.expect_declared_name("relation name")
            self.expect_op("(")
            attributes: list[Attribute] = []
            if not self.at_op(")"):
                while True:
                    attr_name = self.expect_declared_name("attribute name")
                    self.expect_op(":")
                    if self.eat_word("num"):
                        attributes.append(
                            Attribute(attr_name, AttributeKind.NUMERIC)
                        )
                    elif self.eat_word("ref"):
                        target = self.expect_ident("referenced relation")
                        attributes.append(
                            Attribute(attr_name, AttributeKind.FOREIGN_KEY, target)
                        )
                    else:
                        raise self.error("attribute kind must be `num` or `ref <R>`")
                    if not self.eat_op(","):
                        break
            self.expect_op(")")
            try:
                relations.append(Relation(rel_name, tuple(attributes)))
            except ReproError as exc:
                raise self.error(f"invalid relation: {exc}", token) from exc
        self.expect_op("}")
        try:
            return DatabaseSchema(tuple(relations))
        except ReproError as exc:
            raise self.error(f"invalid schema: {exc}") from exc

    # ------------------------------------------------------------------
    # tasks
    # ------------------------------------------------------------------
    def parse_task(self, schema: DatabaseSchema) -> Task:
        self.expect_word("task")
        token = self.peek()
        name = self.expect_ident("task name")
        self.expect_op("{")

        variables: list[Variable] = []
        if self.eat_word("vars"):
            while True:
                var_token = self.peek()
                var_name = self.expect_ident("variable name")
                self.expect_op(":")
                if self.eat_word("id"):
                    kind = VarKind.ID
                elif self.eat_word("num"):
                    kind = VarKind.NUMERIC
                else:
                    raise self.error("variable kind must be `id` or `num`")
                variables.append(self.declare(var_name, kind, var_token))
                if not self.eat_op(","):
                    break

        set_variables: list[Variable] = []
        if self.at_word("set"):
            self.next()
            while True:
                var_token = self.peek()
                var_name = self.expect_ident("set variable")
                set_variables.append(self.lookup(var_name, var_token))
                if not self.eat_op(","):
                    break

        opening = OpeningService()
        if self.at_word("opening"):
            opening = self.parse_opening()
        closing = ClosingService()
        if self.at_word("closing"):
            closing = self.parse_closing()

        services: list[InternalService] = []
        children: list[Task] = []
        while True:
            if self.at_word("service"):
                services.append(self.parse_service())
            elif self.at_word("task"):
                children.append(self.parse_task(schema))
            else:
                break
        self.expect_op("}")
        try:
            return Task(
                name=name,
                variables=tuple(variables),
                set_variables=tuple(set_variables),
                services=tuple(services),
                opening=opening,
                closing=closing,
                children=tuple(children),
            )
        except ReproError as exc:
            raise self.error(f"invalid task {name!r}: {exc}", token) from exc

    def _parse_varmap(self) -> dict[Variable, Variable]:
        mapping: dict[Variable, Variable] = {}
        while True:
            left_token = self.peek()
            left = self.lookup(self.expect_ident("variable"), left_token)
            self.expect_op("<-")
            right_token = self.peek()
            right = self.lookup(self.expect_ident("variable"), right_token)
            if left in mapping:
                raise self.error(f"duplicate map entry for {left.name}", left_token)
            mapping[left] = right
            if not self.eat_op(","):
                break
        return mapping

    def parse_opening(self) -> OpeningService:
        token = self.expect_word("opening")
        self.expect_op("{")
        pre: Condition = TRUE
        if self.eat_word("pre"):
            self.expect_op(":")
            pre = self.parse_condition()
        input_map: dict[Variable, Variable] = {}
        if self.eat_word("input"):
            input_map = self._parse_varmap()
        self.expect_op("}")
        try:
            return OpeningService(pre=pre, input_map=input_map)
        except ReproError as exc:
            raise self.error(f"invalid opening service: {exc}", token) from exc

    def parse_closing(self) -> ClosingService:
        token = self.expect_word("closing")
        self.expect_op("{")
        pre: Condition = FALSE
        if self.eat_word("pre"):
            self.expect_op(":")
            pre = self.parse_condition()
        output_map: dict[Variable, Variable] = {}
        if self.eat_word("output"):
            output_map = self._parse_varmap()
        self.expect_op("}")
        try:
            return ClosingService(pre=pre, output_map=output_map)
        except ReproError as exc:
            raise self.error(f"invalid closing service: {exc}", token) from exc

    def parse_service(self) -> InternalService:
        self.expect_word("service")
        token = self.peek()
        name = self.expect_name("service name")
        self.expect_op("{")
        pre: Condition = TRUE
        post: Condition = TRUE
        update = SetUpdate.NONE
        if self.eat_word("pre"):
            self.expect_op(":")
            pre = self.parse_condition()
        if self.eat_word("post"):
            self.expect_op(":")
            post = self.parse_condition()
        if self.eat_word("update"):
            self.expect_op(":")
            if self.eat_word("none"):
                update = SetUpdate.NONE
            elif self.eat_word("insert"):
                if self.eat_op("+"):
                    self.expect_word("retrieve")
                    update = SetUpdate.BOTH
                else:
                    update = SetUpdate.INSERT
            elif self.eat_word("retrieve"):
                update = SetUpdate.RETRIEVE
            else:
                raise self.error(
                    "update must be `none`, `insert`, `retrieve`, or "
                    "`insert+retrieve`"
                )
        self.expect_op("}")
        try:
            return InternalService(name=name, pre=pre, post=post, update=update)
        except ReproError as exc:
            raise self.error(f"invalid service {name!r}: {exc}", token) from exc

    # ------------------------------------------------------------------
    # conditions
    # ------------------------------------------------------------------
    def parse_condition(self) -> Condition:
        left = self._cond_or()
        if self.eat_op("->"):
            right = self.parse_condition()
            return Or(Not(left), right)
        return left

    def _cond_or(self) -> Condition:
        parts = [self._cond_and()]
        while self.eat_word("or"):
            parts.append(self._cond_and())
        return parts[0] if len(parts) == 1 else Or(*parts)

    def _cond_and(self) -> Condition:
        parts = [self._cond_unary()]
        while self.eat_word("and"):
            parts.append(self._cond_unary())
        return parts[0] if len(parts) == 1 else And(*parts)

    def _cond_unary(self) -> Condition:
        if self.eat_word("not"):
            return Not(self._cond_unary())
        if self.at_word("exists"):
            return self._cond_exists()
        return self._cond_primary()

    def _cond_exists(self) -> Condition:
        self.expect_word("exists")
        binders: list[Variable] = []
        scope: dict[str, VarKind] = {}
        while True:
            token = self.peek()
            name = self.expect_ident("bound variable")
            self.expect_op(":")
            if self.eat_word("id"):
                kind = VarKind.ID
            elif self.eat_word("num"):
                kind = VarKind.NUMERIC
            else:
                raise self.error("bound variable kind must be `id` or `num`")
            if name in RESERVED:
                raise self.error(f"{name!r} is reserved", token)
            binders.append(Variable(name, kind))
            scope[name] = kind
            if not self.eat_op(","):
                break
        self.expect_op(".")
        self.scopes.append(scope)
        try:
            body = self.parse_condition()
        finally:
            self.scopes.pop()
        return Exists(tuple(binders), body)

    def _cond_primary(self) -> Condition:
        if self.eat_word("true"):
            return TRUE
        if self.eat_word("false"):
            return FALSE
        if self.at_call("all"):
            self.next()
            return And(*self._cond_list())
        if self.at_call("any"):
            self.next()
            return Or(*self._cond_list())
        if self.at_op("("):
            self.next()
            inner = self.parse_condition()
            self.expect_op(")")
            return inner
        # set atom: S[Task](z1, …)
        if (
            self.at_word("S")
            and self.peek(1).kind == OP
            and self.peek(1).text == "["
        ):
            return self._set_atom()
        # relation atom: Name(term, …)
        if (
            self.peek().kind == IDENT
            and self.peek().text not in RESERVED
            and self.peek(1).kind == OP
            and self.peek(1).text == "("
        ):
            return self._relation_atom()
        return self._comparison()

    def _cond_list(self) -> list[Condition]:
        self.expect_op("(")
        parts: list[Condition] = []
        if not self.at_op(")"):
            while True:
                parts.append(self.parse_condition())
                if not self.eat_op(","):
                    break
        self.expect_op(")")
        return parts

    def _set_atom(self) -> SetAtom:
        self.expect_word("S")
        self.expect_op("[")
        task = self.expect_ident("task name")
        self.expect_op("]")
        self.expect_op("(")
        args: list[Variable] = []
        if not self.at_op(")"):
            while True:
                token = self.peek()
                args.append(self.lookup(self.expect_ident("variable"), token))
                if not self.eat_op(","):
                    break
        self.expect_op(")")
        try:
            return SetAtom(task, tuple(args))
        except ReproError as exc:
            raise self.error(f"invalid set atom: {exc}") from exc

    def _relation_atom(self) -> RelationAtom:
        token = self.peek()
        relation = self.expect_ident("relation name")
        self.expect_op("(")
        args: list[Term] = []
        if not self.at_op(")"):
            while True:
                args.append(self._term())
                if not self.eat_op(","):
                    break
        self.expect_op(")")
        try:
            return RelationAtom(relation, tuple(args))
        except ReproError as exc:
            raise self.error(f"invalid relation atom: {exc}", token) from exc

    def _term(self) -> Term:
        token = self.peek()
        if self.eat_word("null"):
            return NULL
        if token.kind == IDENT and token.text == "_":
            self.next()
            return ANY
        if token.kind == NUMBER:
            self.next()
            return Const(self._fraction(token))
        if self.at_op("-") and self.peek(1).kind == NUMBER:
            self.next()
            number = self.next()
            return Const(-self._fraction(number))
        if token.kind == IDENT:
            self.next()
            return self.lookup(token.text, token)
        raise self.error(f"expected a term, got {token.text or 'end of file'!r}")

    def _fraction(self, token: Token) -> Fraction:
        if "." in token.text or "e" in token.text or "E" in token.text:
            raise self.error(
                "conditions use exact rationals: write p/q, not a float", token
            )
        return Fraction(token.text)

    # -- comparisons ----------------------------------------------------
    def _comparison(self) -> Condition:
        op_token = self.peek()
        left_terms = self._sum()
        rel_token = self.peek()
        if not (rel_token.kind == OP and rel_token.text in _COMPARISONS):
            raise self.error(
                f"expected a comparison operator after the expression, got "
                f"{rel_token.text or 'end of file'!r}",
                rel_token,
            )
        self.next()
        right_terms = self._sum()
        op = rel_token.text
        left_simple = self._as_simple(left_terms)
        right_simple = self._as_simple(right_terms)
        if op in ("=", "!=") and left_simple is not None and right_simple is not None:
            try:
                atom = Eq(left_simple, right_simple)
            except ReproError as exc:
                raise self.error(f"invalid equality: {exc}", op_token) from exc
            return atom if op == "=" else Not(atom)
        left_expr = self._as_linexpr(left_terms, op_token)
        right_expr = self._as_linexpr(right_terms, op_token)
        try:
            return ArithAtom(compare(left_expr, Rel(op), right_expr))
        except ReproError as exc:
            raise self.error(f"invalid arithmetic atom: {exc}", op_token) from exc

    def _sum(self) -> list[tuple[int, tuple]]:
        """A signed additive chain of products, kept symbolic so the
        caller can decide between Eq terms and a LinExpr."""
        items: list[tuple[int, tuple]] = []
        sign = 1
        if self.eat_op("-"):
            sign = -1
        elif self.eat_op("+"):
            sign = 1
        items.append((sign, self._product()))
        while True:
            if self.eat_op("+"):
                sign = 1
            elif self.eat_op("-"):
                sign = -1
            else:
                break
            items.append((sign, self._product()))
        return items

    def _product(self) -> tuple:
        token = self.peek()
        if self.eat_word("null"):
            return ("null",)
        if token.kind == IDENT and token.text == "_":
            self.next()
            return ("wild",)
        if token.kind == NUMBER:
            self.next()
            value = self._fraction(token)
            if self.eat_op("*"):
                var_token = self.peek()
                name = self.expect_ident("variable after `*`")
                return ("scaled", value, self.lookup(name, var_token), var_token)
            return ("const", value)
        if token.kind == IDENT and token.text not in RESERVED:
            self.next()
            return ("var", self.lookup(token.text, token), token)
        raise self.error(
            f"expected a term or expression, got {token.text or 'end of file'!r}"
        )

    @staticmethod
    def _as_simple(items: list[tuple[int, tuple]]) -> Term | None:
        """The single atomic term this sum denotes, or None if compound."""
        if len(items) != 1:
            return None
        sign, item = items[0]
        if item[0] == "null":
            return NULL if sign > 0 else None
        if item[0] == "wild":
            return ANY if sign > 0 else None
        if item[0] == "const":
            return Const(sign * item[1])
        if item[0] == "var" and sign > 0:
            return item[1]
        return None

    def _as_linexpr(self, items: list[tuple[int, tuple]], where: Token) -> LinExpr:
        coeffs: dict[Variable, Fraction] = {}
        constant = Fraction(0)
        for sign, item in items:
            if item[0] == "const":
                constant += sign * item[1]
            elif item[0] in ("var", "scaled"):
                if item[0] == "var":
                    coeff, variable, token = Fraction(sign), item[1], item[2]
                else:
                    coeff, variable, token = sign * item[1], item[2], item[3]
                if variable.kind is not VarKind.NUMERIC:
                    raise self.error(
                        f"arithmetic over non-numeric variable {variable.name!r}",
                        token,
                    )
                coeffs[variable] = coeffs.get(variable, Fraction(0)) + coeff
            else:
                raise self.error(
                    "null/_ cannot appear in an arithmetic expression", where
                )
        return LinExpr(coeffs, constant)

    # ------------------------------------------------------------------
    # properties and formulas
    # ------------------------------------------------------------------
    def parse_property(self, system: HAS) -> PropertyEntry:
        self.expect_word("property")
        name = self.expect_name("property name")
        self.expect_word("on")
        task = self.expect_ident("task name")
        self.expect_op("{")
        global_variables: list[Variable] = []
        if self.eat_word("globals"):
            while True:
                token = self.peek()
                var_name = self.expect_ident("global variable")
                self.expect_op(":")
                if self.eat_word("id"):
                    kind = VarKind.ID
                elif self.eat_word("num"):
                    kind = VarKind.NUMERIC
                else:
                    raise self.error("global variable kind must be `id` or `num`")
                global_variables.append(self.declare(var_name, kind, token))
                if not self.eat_op(","):
                    break
        expect: str | None = None
        if self.eat_word("expect"):
            self.expect_op(":")
            expect = self.expect_ident("expected verdict")
            if expect not in EXPECTATIONS:
                raise self.error(
                    f"expect must be one of {', '.join(EXPECTATIONS)}"
                )
        self.expect_word("formula")
        self.expect_op(":")
        formula = self.parse_formula()
        self.expect_op("}")
        prop = HLTLProperty(
            root=HLTLSpec(task, formula),
            global_variables=tuple(global_variables),
            name=name,
        )
        return PropertyEntry(prop=prop, expect=expect)

    def parse_formula(self) -> Formula:
        left = self._f_until()
        if self.eat_op("->"):
            right = self.parse_formula()
            return OrF(NotF(left), right)
        return left

    def _f_until(self) -> Formula:
        left = self._f_or()
        if self.eat_word("U"):
            return Until(left, self._f_until())
        if self.eat_word("R"):
            return Release(left, self._f_until())
        return left

    def _f_or(self) -> Formula:
        parts = [self._f_and()]
        while self.eat_word("or"):
            parts.append(self._f_and())
        return parts[0] if len(parts) == 1 else OrF(*parts)

    def _f_and(self) -> Formula:
        parts = [self._f_unary()]
        while self.eat_word("and"):
            parts.append(self._f_unary())
        return parts[0] if len(parts) == 1 else AndF(*parts)

    def _f_unary(self) -> Formula:
        if self.eat_word("not"):
            return NotF(self._f_unary())
        if self.eat_word("G"):
            return Release(FalseF(), self._f_unary())
        if self.eat_word("F"):
            return Until(TrueF(), self._f_unary())
        if self.eat_word("X"):
            return Next(self._f_unary())
        return self._f_primary()

    def _f_primary(self) -> Formula:
        if self.eat_word("true"):
            return TrueF()
        if self.eat_word("false"):
            return FalseF()
        if self.at_call("all"):
            self.next()
            parts = self._f_list()
            if not parts:
                raise self.error("all(…) needs at least one formula")
            return AndF(*parts)
        if self.at_call("any"):
            self.next()
            parts = self._f_list()
            if not parts:
                raise self.error("any(…) needs at least one formula")
            return OrF(*parts)
        if self.eat_op("("):
            inner = self.parse_formula()
            self.expect_op(")")
            return inner
        if self.eat_op("{"):
            condition = self.parse_condition()
            self.expect_op("}")
            return Prop(CondProp(condition))
        if self.eat_op("["):
            inner = self.parse_formula()
            self.expect_op("]")
            self.expect_op("@")
            task = self.expect_ident("child task name")
            return Prop(ChildProp(HLTLSpec(task, inner)))
        if self.at_call("open"):
            self.next()
            self.expect_op("(")
            task = self.expect_ident("task name")
            self.expect_op(")")
            return Prop(ServiceProp(ServiceRef(ServiceKind.OPENING, task)))
        if self.at_call("close"):
            self.next()
            self.expect_op("(")
            task = self.expect_ident("task name")
            self.expect_op(")")
            return Prop(ServiceProp(ServiceRef(ServiceKind.CLOSING, task)))
        if self.at_call("svc"):
            self.next()
            self.expect_op("(")
            task = self.expect_ident("task name")
            self.expect_op(".")
            name = self.expect_name("service name")
            self.expect_op(")")
            return Prop(ServiceProp(ServiceRef(ServiceKind.INTERNAL, task, name)))
        raise self.error(
            f"expected a formula, got {self.peek().text or 'end of file'!r}"
        )

    def _f_list(self) -> list[Formula]:
        self.expect_op("(")
        parts: list[Formula] = []
        if not self.at_op(")"):
            while True:
                parts.append(self.parse_formula())
                if not self.eat_op(","):
                    break
        self.expect_op(")")
        return parts

    # ------------------------------------------------------------------
    # instances
    # ------------------------------------------------------------------
    def parse_instance(
        self, schema: DatabaseSchema
    ) -> tuple[str, DatabaseInstance]:
        self.expect_word("instance")
        name = self.expect_name("instance name")
        self.expect_op("{")
        db = DatabaseInstance(schema)
        while self.peek().kind == IDENT and not self.at_op("}"):
            rel_token = self.peek()
            rel_name = self.expect_ident("relation name")
            if rel_name not in schema:
                raise self.error(f"unknown relation {rel_name!r}", rel_token)
            relation = schema.relation(rel_name)
            label = self.expect_name("row label")
            self.expect_op("(")
            given: dict[str, object] = {}
            if not self.at_op(")"):
                while True:
                    attr_token = self.peek()
                    attr_name = self.expect_name("attribute name")
                    if not relation.has_attribute(attr_name) or attr_name == "id":
                        raise self.error(
                            f"{rel_name} has no settable attribute {attr_name!r}",
                            attr_token,
                        )
                    if attr_name in given:
                        raise self.error(
                            f"duplicate attribute {attr_name!r}", attr_token
                        )
                    self.expect_op(":")
                    attribute = relation.attribute(attr_name)
                    if attribute.kind is AttributeKind.NUMERIC:
                        negative = self.eat_op("-")
                        number = self.peek()
                        if number.kind != NUMBER:
                            raise self.error("numeric attribute needs a number")
                        self.next()
                        value = self._fraction(number)
                        given[attr_name] = -value if negative else value
                    else:
                        given[attr_name] = self.expect_name("row label")
                    if not self.eat_op(","):
                        break
            self.expect_op(")")
            missing = [
                a.name for a in relation.attributes if a.name not in given
            ]
            if missing:
                raise self.error(
                    f"{rel_name} row {label!r} misses attributes: "
                    f"{', '.join(missing)}",
                    rel_token,
                )
            values = [given[a.name] for a in relation.attributes]
            try:
                db.add(rel_name, label, *values)
            except ReproError as exc:
                raise self.error(f"invalid row: {exc}", rel_token) from exc
        self.expect_op("}")
        try:
            db.validate()
        except ReproError as exc:
            raise self.error(f"instance {name!r}: {exc}") from exc
        return name, db

    # ------------------------------------------------------------------
    # config
    # ------------------------------------------------------------------
    def parse_config(self) -> VerifierConfig:
        self.expect_word("config")
        self.expect_op("{")
        fields: dict[str, object] = {}
        while self.peek().kind == IDENT:
            token = self.peek()
            key = self.expect_ident("config field")
            if key not in _CONFIG_FIELDS:
                known = ", ".join(sorted(_CONFIG_FIELDS))
                raise self.error(
                    f"unknown config field {key!r} (known: {known})", token
                )
            if key in fields:
                raise self.error(f"duplicate config field {key!r}", token)
            self.expect_op(":")
            fields[key] = self._config_value()
        self.expect_op("}")
        try:
            return VerifierConfig(**fields)  # type: ignore[arg-type]
        except (TypeError, ValueError) as exc:
            raise self.error(f"invalid config: {exc}") from exc

    def _config_value(self) -> object:
        if self.eat_word("true"):
            return True
        if self.eat_word("false"):
            return False
        if self.eat_word("null"):
            return None
        negative = self.eat_op("-")
        token = self.peek()
        if token.kind == NUMBER:
            self.next()
            if "." in token.text or "e" in token.text or "E" in token.text:
                value: object = float(token.text)
            elif "/" in token.text:
                value = float(Fraction(token.text))
            else:
                value = int(token.text)
            return -value if negative else value  # type: ignore[operator]
        if negative:
            raise self.error("expected a number after `-`")
        raise self.error("expected a config value")


def parse_document(text: str, source: str = "<string>") -> ScenarioDocument:
    """Parse a complete ``.has`` document into a :class:`ScenarioDocument`."""
    return _Parser(text, source).parse_document()


def parse_condition(text: str, kinds: dict[str, VarKind] | None = None) -> Condition:
    """Parse a standalone condition (tests and tooling); ``kinds`` maps
    free-variable names to their kinds."""
    parser = _Parser(text, "<condition>")
    parser.kinds = dict(kinds or {})
    condition = parser.parse_condition()
    if parser.peek().kind != EOF:
        raise parser.error(f"trailing input: {parser.peek().text!r}")
    return condition


def parse_formula(text: str, kinds: dict[str, VarKind] | None = None) -> Formula:
    """Parse a standalone HLTL-FO formula (tests and tooling)."""
    parser = _Parser(text, "<formula>")
    parser.kinds = dict(kinds or {})
    formula = parser.parse_formula()
    if parser.peek().kind != EOF:
        raise parser.error(f"trailing input: {parser.peek().text!r}")
    return formula
