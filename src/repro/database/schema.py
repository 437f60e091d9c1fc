"""Database schemas per Definition 1 of the paper.

A relation ``R(ID, A1..An, F1..Fm)`` has:

* a key attribute ``ID`` whose domain is an uninterpreted countable set of
  identifiers disjoint per relation,
* numeric non-key attributes ``Ai`` with domain the reals, and
* foreign-key attributes ``Fj``, each referencing the ``ID`` of a relation,
  with inclusion dependency ``R[Fj] ⊆ R_Fj[ID]``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import SchemaError

ID_ATTRIBUTE = "id"


class AttributeKind(enum.Enum):
    """The three attribute kinds of Definition 1."""

    KEY = "key"
    NUMERIC = "numeric"
    FOREIGN_KEY = "foreign_key"


@dataclass(frozen=True)
class Attribute:
    """A single attribute of a relation.

    ``references`` is the name of the referenced relation for foreign keys
    and ``None`` otherwise.
    """

    name: str
    kind: AttributeKind
    references: str | None = None

    def __post_init__(self) -> None:
        if self.kind is AttributeKind.FOREIGN_KEY and not self.references:
            raise SchemaError(f"foreign key {self.name!r} must reference a relation")
        if self.kind is not AttributeKind.FOREIGN_KEY and self.references:
            raise SchemaError(f"attribute {self.name!r} of kind {self.kind.value} cannot reference")

    @property
    def is_id_valued(self) -> bool:
        """True when values of this attribute are identifiers (key or FK)."""
        return self.kind in (AttributeKind.KEY, AttributeKind.FOREIGN_KEY)


@dataclass(frozen=True)
class Relation:
    """A relation symbol with its attribute sequence.

    The key attribute ``ID`` is always implicitly present and always first;
    callers list only the non-key attributes.
    """

    name: str
    attributes: tuple[Attribute, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid relation name {self.name!r}")
        seen: set[str] = {ID_ATTRIBUTE}
        for attr in self.attributes:
            if attr.kind is AttributeKind.KEY:
                raise SchemaError(
                    f"relation {self.name!r}: the key attribute is implicit; "
                    f"do not declare {attr.name!r} as KEY"
                )
            if attr.name in seen:
                raise SchemaError(f"relation {self.name!r}: duplicate attribute {attr.name!r}")
            seen.add(attr.name)

    @property
    def arity(self) -> int:
        """Number of attributes including the implicit ID."""
        return 1 + len(self.attributes)

    @property
    def foreign_keys(self) -> tuple[Attribute, ...]:
        return tuple(a for a in self.attributes if a.kind is AttributeKind.FOREIGN_KEY)

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute by name (including the implicit ID)."""
        if name == ID_ATTRIBUTE:
            return Attribute(ID_ATTRIBUTE, AttributeKind.KEY)
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise SchemaError(f"relation {self.name!r} has no attribute {name!r}")

    def has_attribute(self, name: str) -> bool:
        return name == ID_ATTRIBUTE or any(a.name == name for a in self.attributes)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """All attribute names, ID first, in declaration order."""
        return (ID_ATTRIBUTE,) + tuple(a.name for a in self.attributes)


def numeric(name: str) -> Attribute:
    """Convenience constructor for a numeric attribute."""
    return Attribute(name, AttributeKind.NUMERIC)


def foreign_key(name: str, references: str) -> Attribute:
    """Convenience constructor for a foreign-key attribute."""
    return Attribute(name, AttributeKind.FOREIGN_KEY, references)


@dataclass(frozen=True)
class DatabaseSchema:
    """A finite set of relations with resolved foreign-key references."""

    relations: tuple[Relation, ...] = ()
    _by_name: dict[str, Relation] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        by_name: dict[str, Relation] = {}
        for rel in self.relations:
            if rel.name in by_name:
                raise SchemaError(f"duplicate relation {rel.name!r}")
            by_name[rel.name] = rel
        for rel in self.relations:
            for fk in rel.foreign_keys:
                if fk.references not in by_name:
                    raise SchemaError(
                        f"relation {rel.name!r}: foreign key {fk.name!r} references "
                        f"unknown relation {fk.references!r}"
                    )
        object.__setattr__(self, "_by_name", by_name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self.relations)

    def __len__(self) -> int:
        return len(self.relations)

    def relation(self, name: str) -> Relation:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.relations)

    @property
    def max_arity(self) -> int:
        """Maximum relation arity — the constant ``a`` of Appendix C.3."""
        return max((r.arity for r in self.relations), default=0)
