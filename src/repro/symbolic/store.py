"""The symbolic constraint store: a lazily-refined partial isomorphism type.

A store records, over a set of :class:`Node` tokens,

* the current *binding* of each artifact variable to a value node (rebound
  when the variable is overwritten — by internal services, child returns,
  or set retrievals);
* an equivalence (union-find) over ID-sorted nodes with congruence: equal
  ID nodes share attribute children — this is the key-dependency / FD
  closure of Definition 15;
* per ID class: null status (true / false / unknown), the anchoring
  relation (the ``x_R`` of navigation sets), or a set of *excluded*
  anchors;
* disequalities between ID classes;
* linear constraints over numeric nodes, decided by Fourier–Motzkin;
* *pins*: labeled references to nodes that must stay identifiable (the
  input snapshots of currently-open child tasks).

A consistent store denotes a non-empty set of total isomorphism types —
unknown relationships can be resolved either way over the infinite ID
domains / the reals — and conditions are applied by case-splitting on
exactly the relationships they test (the VERIFAS-style refinement of the
paper's total types).

Stores are the unit of memoization throughout the verifier:
:meth:`ConstraintStore.canonical_key` renders a store as a nested tuple
invariant under internal node renaming, cached per store behind a dirty
bit (every mutator invalidates) with the expensive per-constraint
canonicalization memoized globally and the finished keys interned — see
docs/performance.md for the cache design and its invariants.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from repro.arith.constraints import Constraint, Rel
from repro.arith.fm import is_satisfiable, project_components
from repro.arith.linexpr import LinExpr
from repro.fuzz.coverage import COVERAGE
from repro.perf.counters import COUNTERS
from repro.perf.phases import PHASES
from repro.database.schema import AttributeKind, DatabaseSchema
from repro.logic.terms import Variable, VarKind
from repro.symbolic.nodes import (
    NULL,
    ConstNode,
    NavNode,
    Node,
    Sort,
    ValueNode,
    ZERO,
)

PinLabel = tuple

# ----------------------------------------------------------------------
# canonical-key memoization (module-global, shared across stores)
# ----------------------------------------------------------------------
# Interning table for canonical-key components: equal keys become the
# *same* tuple object, so the dict lookups that consume them (state
# interning, summary memos, condition-branch dedup) compare by identity
# on the happy path instead of walking nested tuples.
_KEY_INTERN: dict = {}
_KEY_INTERN_LIMIT = 200_000

# Per-(constraint, label-assignment) canonical-form strings: renaming a
# constraint onto access-path labels and canonicalizing it is the single
# hottest step of canonical_key, and the same (constraint, labels) pair
# recurs across thousands of sibling stores.
_CONSTRAINT_CANON_CACHE: dict = {}
_CONSTRAINT_CANON_CACHE_LIMIT = 400_000


def _intern_key(value: tuple) -> tuple:
    if len(_KEY_INTERN) >= _KEY_INTERN_LIMIT:
        _KEY_INTERN.clear()
    return _KEY_INTERN.setdefault(value, value)


def clear_canonical_caches() -> None:
    """Drop the canonical-key memos (tests, benchmarks)."""
    _KEY_INTERN.clear()
    _CONSTRAINT_CANON_CACHE.clear()


def _constraint_canon_repr(constraint: Constraint, label_of: Mapping) -> str:
    """``repr(constraint.rename(label_of).canonical())``, memoized.

    The memo key is the constraint plus the label assignment restricted
    to the unknowns it actually mentions — everything the rename reads
    (unknowns absent from ``label_of`` rename to themselves, and are
    covered by the constraint's own identity).
    """
    labels = frozenset(
        (unknown, label_of[unknown])
        for unknown in constraint.unknowns
        if unknown in label_of
    )
    key = (constraint, labels)
    cached = _CONSTRAINT_CANON_CACHE.get(key)
    if cached is not None:
        COUNTERS.constraint_canon_hits += 1
        return cached
    COUNTERS.constraint_canon_misses += 1
    rendered = repr(constraint.rename(label_of).canonical())
    if len(_CONSTRAINT_CANON_CACHE) >= _CONSTRAINT_CANON_CACHE_LIMIT:
        _CONSTRAINT_CANON_CACHE.clear()
    _CONSTRAINT_CANON_CACHE[key] = rendered
    return rendered


class Inconsistent(Exception):
    """Raised when an assertion contradicts the store."""


class ConstraintStore:
    """Mutable partial isomorphism type.  ``copy()`` before branching."""

    def __init__(self, schema: DatabaseSchema):
        self.schema = schema
        self._serial = 0
        self._binding: dict[Variable, Node] = {}
        self._pins: dict[PinLabel, Node] = {}
        self._parent: dict[Node, Node] = {}
        self._rank: dict[Node, int] = {}
        self._null: dict[Node, bool | None] = {}
        self._anchor: dict[Node, str | None] = {}
        self._excluded: dict[Node, frozenset[str]] = {}   # sparse
        self._children: dict[Node, dict[str, Node]] = {}  # sparse
        self._diseqs: set[frozenset[Node]] = set()
        self._numeric: list[Constraint] = []
        self._numeric_dirty = False
        self._numeric_sat = True
        self.approximate = False
        self._canon_cache: tuple | None = None
        self._register(NULL, Sort.ID)
        self._null[NULL] = True
        self._register(ZERO, Sort.NUMERIC)

    # ------------------------------------------------------------------
    # node management
    # ------------------------------------------------------------------
    def fresh(self, sort: Sort) -> Node:
        """A brand-new anonymous value node of the given sort — the
        symbolic analogue of picking an unconstrained element of the ID
        domain (Def. 14's infinite domains) or of ℝ."""
        self._canon_cache = None
        self._serial += 1
        node = ValueNode(self._serial, sort)
        self._register(node, sort)
        return node

    def const(self, value: Fraction | int) -> Node:
        """The (interned) node denoting a numeric constant."""
        node = ConstNode(Fraction(value))
        if node not in self._parent:
            self._register(node, Sort.NUMERIC)
        return node

    def _register(self, node: Node, sort: Sort) -> None:
        self._parent[node] = node
        self._rank[node] = 0
        self._null[node] = None if sort is Sort.ID else False
        self._anchor[node] = None
        if sort is Sort.NUMERIC:
            self._null[node] = False

    def sort_of(self, node: Node) -> Sort:
        """ID or NUMERIC; navigation nodes take their sort from the
        schema attribute they traverse."""
        if isinstance(node, ValueNode):
            return node.sort
        if isinstance(node, ConstNode):
            return Sort.NUMERIC
        if node is NULL:
            return Sort.ID
        if isinstance(node, NavNode):
            base_root = self.find(node.base)
            relation_name = self._anchor[base_root]
            assert relation_name is not None
            attribute = self.schema.relation(relation_name).attribute(node.attr)
            return (
                Sort.NUMERIC
                if attribute.kind is AttributeKind.NUMERIC
                else Sort.ID
            )
        raise TypeError(f"unknown node {node!r}")

    def find(self, node: Node) -> Node:
        """Union-find root of the node's equality class, with path
        compression.  Classes realize the equality type of Definition 15
        restricted to the facts asserted so far."""
        root = node
        while self._parent[root] is not root:
            root = self._parent[root]
        while self._parent[node] is not root:
            self._parent[node], node = root, self._parent[node]
        return root

    # ------------------------------------------------------------------
    # variable bindings and pins
    # ------------------------------------------------------------------
    def node_of(self, variable: Variable) -> Node:
        """Current value node of a variable (created fresh on first use)."""
        node = self._binding.get(variable)
        if node is None:
            sort = Sort.ID if variable.kind is VarKind.ID else Sort.NUMERIC
            node = self.fresh(sort)
            self._binding[variable] = node
        return self.find(node)

    def bind(self, variable: Variable, node: Node) -> None:
        """Point the variable at the node's class (overwrite semantics of
        service transitions and child returns — Defs. 5–6)."""
        self._canon_cache = None
        self._binding[variable] = self.find(node)

    def rebind_fresh(self, variable: Variable) -> Node:
        """Bind the variable to a brand-new anonymous value (post-condition
        variables range over fresh values before refinement)."""
        self._canon_cache = None
        sort = Sort.ID if variable.kind is VarKind.ID else Sort.NUMERIC
        node = self.fresh(sort)
        self._binding[variable] = node
        return node

    def bound_variables(self) -> tuple[Variable, ...]:
        return tuple(self._binding)

    def pin(self, label: PinLabel, node: Node) -> None:
        self._canon_cache = None
        self._pins[label] = self.find(node)

    def unpin_prefix(self, prefix: PinLabel) -> None:
        """Remove all pins whose label starts with ``prefix``."""
        self._canon_cache = None
        self._pins = {
            label: node
            for label, node in self._pins.items()
            if label[: len(prefix)] != tuple(prefix)
        }

    def pinned(self, label: PinLabel) -> Node | None:
        node = self._pins.get(label)
        return self.find(node) if node is not None else None

    def pins(self) -> dict[PinLabel, Node]:
        return {label: self.find(node) for label, node in self._pins.items()}

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    def nav(self, base: Node, attr: str) -> Node:
        """The node for ``base.attr``; requires the base class anchored."""
        base_root = self.find(base)
        self.assert_not_null(base_root)
        relation_name = self._anchor[self.find(base_root)]
        if relation_name is None:
            raise Inconsistent(f"navigation from unanchored node {base!r}")
        base_root = self.find(base_root)
        relation = self.schema.relation(relation_name)
        attribute = relation.attribute(attr)
        existing = self._children.get(base_root, {}).get(attr)
        if existing is not None:
            return self.find(existing)
        node = NavNode(base_root, attr)
        sort = (
            Sort.NUMERIC if attribute.kind is AttributeKind.NUMERIC else Sort.ID
        )
        self._register(node, sort)
        if sort is Sort.ID:
            self._null[node] = False  # inclusion dependency: FK targets exist
            assert attribute.references is not None
            self._anchor[node] = attribute.references
        self._children.setdefault(base_root, {})[attr] = node
        return node

    # ------------------------------------------------------------------
    # assertions
    # ------------------------------------------------------------------
    def assert_null(self, node: Node) -> None:
        """Force the class to the null value (merging it with NULL's
        class); inconsistent with anchoring or navigation — R(null, …) is
        false and null has no attributes (Section 2)."""
        self._canon_cache = None
        root = self.find(node)
        if self.sort_of(root) is not Sort.ID:
            raise Inconsistent(f"{node!r} is numeric, cannot be null")
        if self._null[root] is False:
            raise Inconsistent(f"{node!r} is known non-null")
        if self._anchor[root] is not None or self._children.get(root):
            raise Inconsistent(f"{node!r} is anchored/navigated, cannot be null")
        self._null[root] = True
        if root is not self.find(NULL):
            self._union(root, self.find(NULL))

    def assert_not_null(self, node: Node) -> None:
        """Record that the class holds a real identifier (no-op for
        numerics, which are never null)."""
        self._canon_cache = None
        root = self.find(node)
        if self.sort_of(root) is not Sort.ID:
            return
        if self._null[root] is True:
            raise Inconsistent(f"{node!r} is known null")
        if self._null[root] is None:
            self._null[root] = False
            self._diseqs.add(frozenset({root, self.find(NULL)}))

    def assert_anchor(self, node: Node, relation: str) -> None:
        """Anchor the class to a relation's ID domain (the ``x_R`` of
        §4.1's navigation sets); ID domains are pairwise disjoint, so a
        second, different anchor is inconsistent."""
        self._canon_cache = None
        self.assert_not_null(node)
        root = self.find(node)
        current = self._anchor[root]
        if current is not None:
            if current != relation:
                raise Inconsistent(
                    f"{node!r} anchored to {current!r}, cannot be {relation!r}"
                )
            return
        if relation in self._excluded.get(root, frozenset()):
            raise Inconsistent(f"{node!r} excludes anchor {relation!r}")
        self._anchor[root] = relation

    def exclude_anchor(self, node: Node, relation: str) -> None:
        """Record that the class is *not* from a relation's ID domain
        (the negative-relation-atom branches of condition application);
        a non-null class excluded from every domain is inconsistent."""
        self._canon_cache = None
        root = self.find(node)
        if self._anchor[root] == relation:
            raise Inconsistent(f"{node!r} is anchored to {relation!r}")
        self._excluded[root] = self._excluded.get(root, frozenset()) | {relation}
        if self._null[root] is False and self._excluded.get(root, frozenset()) >= set(
            self.schema.names
        ):
            raise Inconsistent(f"{node!r} excluded from every ID domain")

    def assert_eq(self, a: Node, b: Node) -> None:
        """Merge the two classes (ID sort: union with congruence over
        navigation children, Definition 15's FD closure; numeric sort:
        recorded as a linear equality instead — numeric tokens are never
        unioned, keeping stored constraints canonical)."""
        self._canon_cache = None
        ra, rb = self.find(a), self.find(b)
        if ra is rb:
            return
        sa, sb = self.sort_of(ra), self.sort_of(rb)
        if sa is not sb:
            raise Inconsistent(f"sort mismatch: {a!r} vs {b!r}")
        if sa is Sort.NUMERIC:
            self.add_constraint(Constraint(self._lin(ra) - self._lin(rb), Rel.EQ))
            return
        if frozenset({ra, rb}) in self._diseqs:
            raise Inconsistent(f"{a!r} and {b!r} are known unequal")
        null_root = self.find(NULL)
        if ra is null_root:
            self.assert_null(rb)
            return
        if rb is null_root:
            self.assert_null(ra)
            return
        self._union(ra, rb)

    def assert_neq(self, a: Node, b: Node) -> None:
        """Record a disequality (ID sort) or a linear ``≠`` constraint
        (numeric sort); immediately inconsistent on a merged class."""
        self._canon_cache = None
        ra, rb = self.find(a), self.find(b)
        sa, sb = self.sort_of(ra), self.sort_of(rb)
        if sa is not sb:
            return  # never equal anyway
        if sa is Sort.NUMERIC:
            self.add_constraint(Constraint(self._lin(ra) - self._lin(rb), Rel.NE))
            return
        if ra is rb:
            raise Inconsistent(f"{a!r} and {b!r} are known equal")
        null_root = self.find(NULL)
        if ra is null_root:
            self.assert_not_null(rb)
            return
        if rb is null_root:
            self.assert_not_null(ra)
            return
        self._diseqs.add(frozenset({ra, rb}))

    def _union(self, ra: Node, rb: Node) -> None:
        null_a, null_b = self._null[ra], self._null[rb]
        if (null_a is True and null_b is False) or (null_a is False and null_b is True):
            raise Inconsistent("null merged with non-null")
        anchor_a, anchor_b = self._anchor[ra], self._anchor[rb]
        if anchor_a and anchor_b and anchor_a != anchor_b:
            raise Inconsistent(f"anchor conflict {anchor_a!r} vs {anchor_b!r}")
        merged_anchor = anchor_a or anchor_b
        merged_excluded = self._excluded.get(ra, frozenset()) | self._excluded.get(rb, frozenset())
        if merged_anchor and merged_anchor in merged_excluded:
            raise Inconsistent(f"anchor {merged_anchor!r} is excluded")
        merged_null = null_a if null_a is not None else null_b
        if merged_null is True and (
            merged_anchor or self._children.get(ra) or self._children.get(rb)
        ):
            raise Inconsistent("null class cannot be anchored / navigated")
        if merged_null is False and merged_excluded >= set(self.schema.names):
            raise Inconsistent("class excluded from every ID domain")
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        self._null[ra] = merged_null
        self._anchor[ra] = merged_anchor
        if merged_excluded:
            self._excluded[ra] = merged_excluded
        new_diseqs: set[frozenset[Node]] = set()
        for pair in self._diseqs:
            renamed = frozenset(self.find(n) for n in pair)
            if len(renamed) == 1:
                raise Inconsistent("union contradicts a disequality")
            new_diseqs.add(renamed)
        self._diseqs = new_diseqs
        children_a = self._children.setdefault(ra, {})
        children_b = self._children.pop(rb, {})
        pending: list[tuple[Node, Node]] = []
        for attr, child_b in children_b.items():
            child_a = children_a.get(attr)
            if child_a is None:
                children_a[attr] = child_b
            else:
                pending.append((child_a, child_b))
        for child_a, child_b in pending:
            self.assert_eq(child_a, child_b)

    # ------------------------------------------------------------------
    # numeric constraints
    # ------------------------------------------------------------------
    def _lin(self, node: Node) -> LinExpr:
        root = self.find(node)
        if isinstance(root, ConstNode):
            return LinExpr({}, root.value)
        return LinExpr({root: 1})

    def add_constraint(self, constraint: Constraint) -> None:
        """Record a linear constraint; satisfiability is checked lazily at
        the next :meth:`is_consistent` / :meth:`equal` query.

        A non-constant ``e >= 0`` / ``e > 0`` is stored in its
        :meth:`~repro.arith.constraints.Constraint.normal_form`
        ``-e <= 0`` / ``-e < 0``, so FM passes the stored object through
        unchanged.  The canonical key cannot tell the two apart:
        ``Constraint.canonical()`` maps both to the same constraint.  It
        does not scale constant constraints, so those keep their
        spelling."""
        self._canon_cache = None
        if not constraint.expr.is_constant:
            constraint = constraint.normal_form()
        self._numeric.append(constraint)
        self._numeric_dirty = True

    def add_linear(self, expr: LinExpr, rel: Rel) -> None:
        """Add ``expr rel 0`` where unknowns are (possibly stale) nodes."""
        mapping: dict[Node, int | Fraction] = {}
        constant = expr.constant
        for unknown, coeff in expr.coeffs.items():
            assert isinstance(unknown, Node)
            root = self.find(unknown)
            if isinstance(root, ConstNode):
                constant += coeff * root.value
            else:
                mapping[root] = mapping.get(root, 0) + coeff
        self.add_constraint(Constraint(LinExpr(mapping, constant), rel))

    def numeric_constraints(self) -> list[Constraint]:
        # numeric tokens are never unioned (numeric equalities are linear
        # constraints, and congruence merges of numeric NavNode children
        # also go through constraints), so stored constraints stay canonical
        return list(self._numeric)

    def _numeric_consistent(self) -> bool:
        if self._numeric_dirty:
            self._numeric_sat = is_satisfiable(self._numeric)
            self._numeric_dirty = False
        return self._numeric_sat

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def equal(self, a: Node, b: Node) -> bool | None:
        """Definitely-equal / definitely-unequal / unknown (None)."""
        ra, rb = self.find(a), self.find(b)
        sa, sb = self.sort_of(ra), self.sort_of(rb)
        if sa is not sb:
            return False
        if sa is Sort.NUMERIC:
            delta = self._lin(ra) - self._lin(rb)
            if delta.is_constant:
                return delta.constant == 0
            canon = self.numeric_constraints()
            if not is_satisfiable(canon + [Constraint(delta, Rel.NE)]):
                return True
            if not is_satisfiable(canon + [Constraint(delta, Rel.EQ)]):
                return False
            return None
        if ra is rb:
            return True
        if frozenset({ra, rb}) in self._diseqs:
            return False
        anchor_a, anchor_b = self._anchor[ra], self._anchor[rb]
        if anchor_a and anchor_b and anchor_a != anchor_b:
            return False  # disjoint ID domains
        if anchor_a and anchor_a in self._excluded.get(rb, frozenset()):
            return False
        if anchor_b and anchor_b in self._excluded.get(ra, frozenset()):
            return False
        null_a, null_b = self._null[ra], self._null[rb]
        if (null_a is True and null_b is False) or (null_a is False and null_b is True):
            return False
        if (null_a is True and anchor_b) or (null_b is True and anchor_a):
            return False
        return None

    def null_status(self, node: Node) -> bool | None:
        """True = known null, False = known non-null, None = unresolved."""
        return self._null[self.find(node)]

    def anchor_of(self, node: Node) -> str | None:
        """The relation whose ID domain the class is known to inhabit."""
        return self._anchor[self.find(node)]

    def excluded_anchors(self, node: Node) -> frozenset[str]:
        """Relations whose ID domains the class is known *not* to inhabit."""
        return self._excluded.get(self.find(node), frozenset())

    def child_of(self, node: Node, attr: str) -> Node | None:
        """The already-materialized navigation child, if any (never
        creates one — use :meth:`nav` for that)."""
        child = self._children.get(self.find(node), {}).get(attr)
        return self.find(child) if child is not None else None

    def is_consistent(self) -> bool:
        """Whether the store denotes at least one total isomorphism type.

        ID-sorted facts are kept consistent eagerly (assertions raise
        :class:`Inconsistent` on contradiction), so only the lazily
        collected numeric constraints need deciding — Fourier–Motzkin
        behind a dirty bit (Section 5's decidable arithmetic check)."""
        try:
            return self._numeric_consistent()
        except Inconsistent:
            return False

    # ------------------------------------------------------------------
    # read-only iteration (witness concretization and diagnostics)
    # ------------------------------------------------------------------
    def class_roots(self) -> tuple[Node, ...]:
        """Every distinct class root, sorted by repr (deterministic)."""
        return tuple(sorted({self.find(node) for node in self._parent}, key=repr))

    def navigation_children(self, node: Node) -> tuple[tuple[str, Node], ...]:
        """The ``(attr, child)`` navigation edges of the node's class,
        attribute-sorted."""
        children = self._children.get(self.find(node), {})
        return tuple(sorted(children.items()))

    def disequalities(self) -> tuple[frozenset[Node], ...]:
        """The recorded disequalities, as root pairs."""
        return tuple(
            frozenset(self.find(node) for node in pair) for pair in self._diseqs
        )

    def binding_of(self, variable: Variable) -> Node | None:
        """The variable's current value node as stored (not canonicalized;
        callers needing the class root apply :meth:`find`), or None when
        the variable is unbound."""
        return self._binding.get(variable)

    def allowed_anchors(self, node: Node) -> tuple[str, ...]:
        """Relations this class may be anchored to."""
        root = self.find(node)
        current = self._anchor[root]
        if current:
            return (current,)
        excluded = self._excluded.get(root, frozenset())
        return tuple(
            name for name in self.schema.names if name not in excluded
        )

    # ------------------------------------------------------------------
    # copying / restriction / canonical form
    # ------------------------------------------------------------------
    def copy(self) -> "ConstraintStore":
        """An independent mutable clone (branch before case-splitting);
        shares nothing mutable with the original, and keeps the cached
        canonical key (equal content ⇒ equal key)."""
        clone = ConstraintStore.__new__(ConstraintStore)
        clone.schema = self.schema
        clone._serial = self._serial
        clone._binding = dict(self._binding)
        clone._pins = dict(self._pins)
        clone._parent = dict(self._parent)
        clone._rank = dict(self._rank)
        clone._null = dict(self._null)
        clone._anchor = dict(self._anchor)
        clone._excluded = dict(self._excluded)
        clone._children = {root: dict(kids) for root, kids in self._children.items() if kids}
        clone._diseqs = set(self._diseqs)
        clone._numeric = list(self._numeric)
        clone._numeric_dirty = self._numeric_dirty
        clone._numeric_sat = self._numeric_sat
        clone.approximate = self.approximate
        clone._canon_cache = self._canon_cache
        return clone

    def live_roots(self) -> set[Node]:
        """Class roots reachable from bindings, pins, and constants."""
        roots: set[Node] = {self.find(NULL), self.find(ZERO)}
        frontier: list[Node] = []
        for node in list(self._binding.values()) + list(self._pins.values()):
            root = self.find(node)
            if root not in roots:
                roots.add(root)
                frontier.append(root)
        for node in list(self._parent):
            if isinstance(node, ConstNode):
                roots.add(self.find(node))
        while frontier:
            root = frontier.pop()
            for child in self._children.get(root, {}).values():
                child_root = self.find(child)
                if child_root not in roots:
                    roots.add(child_root)
                    frontier.append(child_root)
        return roots

    def restrict(self, keep: Iterable[Variable]) -> "ConstraintStore":
        """A new store keeping only facts about ``keep`` variables (and
        pins) — the τ'|x̄in projection of symbolic transitions.

        Numeric constraints are Fourier–Motzkin-projected onto the live
        numeric tokens; ID facts among dead classes are dropped.
        """
        keep_set = set(keep)
        clone = self.copy()
        clone._binding = {
            v: n for v, n in clone._binding.items() if v in keep_set
        }
        clone._pins = {}
        live = clone.live_roots()
        clone._diseqs = {
            pair
            for pair in clone._diseqs
            if all(clone.find(n) in live for n in pair)
        }
        live_tokens = {
            root for root in live if clone.sort_of(root) is Sort.NUMERIC
        }
        canon = clone.numeric_constraints()
        kept, exact = project_components(canon, live_tokens)
        clone._numeric = kept
        clone._numeric_dirty = True
        # Rebuild from scratch: drops every dead node, keeping store sizes
        # bounded by the live structure (stores otherwise snowball along
        # runs and copying them dominates the search).
        fresh = ConstraintStore(self.schema)
        fresh.absorb(clone, {v: v for v in clone._binding})
        fresh.approximate = self.approximate or not exact
        return fresh

    def absorb(
        self,
        other: "ConstraintStore",
        var_translation: Mapping[Variable, "Variable | Node"],
    ) -> dict[Variable, Node]:
        """Replay another store's facts into this one.

        ``var_translation`` maps the other store's variables either to
        variables of this store (which get bound to the translated value)
        or to existing nodes of this store (input snapshots).  Returns the
        node in *this* store now holding each translated variable's value.

        Used for child input extraction (parent facts → child store) and
        for child-return merging (child output facts → parent store).
        """
        live = other.live_roots()
        trans: dict[Node, Node] = {other.find(NULL): self.find(NULL)}
        resolution: dict[Variable, Node] = {}
        # 1. seed translations from the variable map
        for other_var, target in var_translation.items():
            other_node = other._binding.get(other_var)
            if other_node is None:
                continue
            COVERAGE.hit("store:absorb:input_binding")
            other_root = other.find(other_node)
            if isinstance(target, Variable):
                if other_root in trans:
                    self.bind(target, trans[other_root])
                else:
                    sort = (
                        Sort.ID if target.kind is VarKind.ID else Sort.NUMERIC
                    )
                    node = self.fresh(sort)
                    self.bind(target, node)
                    trans[other_root] = node
                resolution[other_var] = self.find(trans[other_root])
            else:
                if other_root in trans:
                    self.assert_eq(trans[other_root], target)
                else:
                    trans[other_root] = self.find(target)
                resolution[other_var] = self.find(trans[other_root])
        # 2. anonymous classes for the remaining live roots
        for root in sorted(live, key=repr):
            if root not in trans:
                if isinstance(root, ConstNode):
                    trans[root] = self.const(root.value)
                else:
                    COVERAGE.hit("store:absorb:fresh_class")
                    trans[root] = self.fresh(other.sort_of(root))
        # 3. per-class facts — iterate in a canonical order: set order
        # follows the process hash seed, and the replay order decides the
        # order numeric constraints are recorded (hence FM pivot choices
        # and the syntactic shape of later projections), which must be
        # reproducible run-over-run
        live_sorted = sorted(live, key=repr)
        for root in live_sorted:
            mine = trans[root]
            if other._null[root] is True:
                COVERAGE.hit("store:absorb:null_fact")
                self.assert_null(mine)
            elif other._null[root] is False:
                COVERAGE.hit("store:absorb:null_fact")
                self.assert_not_null(mine)
            anchor = other._anchor[root]
            if anchor is not None:
                self.assert_anchor(mine, anchor)
            for excluded in other._excluded.get(root, frozenset()):
                if self._anchor[self.find(mine)] != excluded:
                    self.exclude_anchor(mine, excluded)
        # 4. navigation edges (bases are anchored now)
        for root in live_sorted:
            for attr, child in sorted(other._children.get(root, {}).items()):
                child_root = other.find(child)
                if child_root not in trans:
                    continue
                COVERAGE.hit("store:absorb:navigation")
                mine_child = self.nav(trans[root], attr)
                self.assert_eq(mine_child, trans[child_root])
        # 5. disequalities (canonical order again: numeric disequalities
        # append to the constraint list)
        for pair in sorted(
            other._diseqs,
            key=lambda p: tuple(sorted(repr(n) for n in p)),
        ):
            members = [other.find(n) for n in pair]
            if all(m in trans for m in members) and len(members) == 2:
                COVERAGE.hit("store:absorb:disequality")
                self.assert_neq(trans[members[0]], trans[members[1]])
        # 6. numeric constraints
        for constraint in other.numeric_constraints():
            if all(u in trans for u in constraint.unknowns):
                COVERAGE.hit("store:absorb:numeric")
                renamed = constraint.rename(
                    {u: trans[u] for u in constraint.unknowns}
                )
                mapping: dict[Node, int | Fraction] = {}
                constant = renamed.expr.constant
                for unknown, coeff in renamed.expr.coeffs.items():
                    assert isinstance(unknown, Node)
                    root2 = self.find(unknown)
                    if isinstance(root2, ConstNode):
                        constant += coeff * root2.value
                    else:
                        mapping[root2] = mapping.get(root2, 0) + coeff
                self.add_constraint(
                    Constraint(LinExpr(mapping, constant), renamed.rel)
                )
        return resolution

    # ------------------------------------------------------------------
    def access_paths(self) -> dict[Node, tuple]:
        """Canonical access paths per class root: variable names, pin
        labels, constants, ``null``, and navigation chains from those."""
        paths: dict[Node, list] = {}

        def note(root: Node, path: tuple) -> None:
            paths.setdefault(root, []).append(path)

        for variable, node in self._binding.items():
            note(self.find(node), (("var", variable.name),))
        for label, node in self._pins.items():
            note(self.find(node), (("pin",) + tuple(label),))
        for node in self._parent:
            if isinstance(node, ConstNode):
                note(self.find(node), (("const", str(node.value)),))
        note(self.find(NULL), (("null",),))
        frontier = [
            (root, path) for root, plist in paths.items() for path in plist
        ]
        seen = set()
        while frontier:
            root, path = frontier.pop()
            if len(path) > 16:
                continue
            for attr, child in sorted(self._children.get(root, {}).items()):
                child_root = self.find(child)
                child_path = path + (("nav", attr),)
                key = (child_root, child_path)
                if key not in seen:
                    seen.add(key)
                    paths.setdefault(child_root, []).append(child_path)
                    frontier.append((child_root, child_path))
        return {root: tuple(sorted(plist)) for root, plist in paths.items()}

    def canonical_key(self) -> tuple:
        """Hashable identity of the store up to internal node renaming.

        Two stores have equal canonical keys iff they denote the same set
        of isomorphism types: anonymous node serials are replaced by
        canonical *access paths* (variable names, pin labels, constants,
        navigation chains), so the key is invariant under the internal
        renamings that ``copy``/``restrict``/``absorb`` perform.  This is
        what makes state interning, summary memoization (Lemma 21's
        ``R_T`` relation), and condition-branch dedup sound.

        The key is memoized on the store and invalidated by a dirty bit:
        every mutator resets ``_canon_cache`` to None, so a
        mutated-then-rekeyed store always recomputes (property-tested in
        ``tests/test_perf.py``).  The expensive numeric part — renaming
        each linear constraint onto its labels and canonicalizing — is
        additionally memoized globally per (constraint, label assignment),
        and the resulting key tuples are interned so equal keys are
        identical objects.
        """
        if self._canon_cache is not None:
            COUNTERS.store_key_hits += 1
            return self._canon_cache
        COUNTERS.store_key_misses += 1
        # misses do the real canonicalization work; hits are one attribute
        # read, so only misses feed the "canon" phase timer
        token = PHASES.begin("canon")
        try:
            return self._canonical_key_uncached()
        finally:
            PHASES.end("canon", token)

    def _canonical_key_uncached(self) -> tuple:
        paths = self.access_paths()
        label_of = {root: ps[0] for root, ps in paths.items()}
        classes = _intern_key(
            tuple(
                sorted(
                    (
                        paths[root],
                        self._null.get(root),
                        self._anchor.get(root),
                        tuple(sorted(self._excluded.get(root, frozenset()))),
                    )
                    for root in paths
                )
            )
        )
        diseqs = tuple(
            sorted(
                tuple(sorted(label_of[self.find(n)] for n in pair))
                for pair in self._diseqs
                if all(self.find(n) in label_of for n in pair)
            )
        )
        numeric = []
        for constraint in self._numeric:
            numeric.append(_constraint_canon_repr(constraint, label_of))
        key = _intern_key(
            (classes, diseqs, tuple(sorted(set(numeric))))
        )
        self._canon_cache = key
        return key

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        paths = self.access_paths()
        parts = []
        for root, plist in sorted(paths.items(), key=lambda kv: kv[1]):
            flags = []
            if self._null.get(root) is True:
                flags.append("null")
            if self._anchor.get(root):
                flags.append(f"@{self._anchor[root]}")
            label = "=".join(
                ".".join(str(seg[-1]) for seg in p) for p in plist
            )
            parts.append(label + (f"[{','.join(flags)}]" if flags else ""))
        return "Store{" + "; ".join(parts) + "}"
