"""Core domain model: entity accesses, functionalities, and entity structure.

A monolith is described by two ingredients: per-functionality ordered traces
of read/write accesses to domain entities, and the static structure of those
entities (attributes plus references between entities). Both are immutable
value objects; every transformation downstream returns new values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

READ = "R"
WRITE = "W"
MODES = (READ, WRITE)

ASSOCIATION = "association"
INHERITANCE = "inheritance"
REFERENCE_KINDS = (ASSOCIATION, INHERITANCE)


@dataclass(frozen=True, slots=True)
class Access:
    """One read or write of a domain entity at a trace position."""

    entity: str
    mode: str

    def __post_init__(self):
        if not self.entity:
            raise ValueError("access entity name must be non-empty")
        if self.mode not in MODES:
            raise ValueError(f"unknown access mode {self.mode!r} (expected R or W)")


_new_access = object.__new__
_set_entity = Access.entity.__set__
_set_mode = Access.mode.__set__


def _access(entity: str, mode: str) -> Access:
    """A new ``Access`` from a non-empty entity and a mode the caller checked.

    Writes the two slots directly, past the frozen ``__setattr__`` and the
    checks of ``__post_init__``. Every call returns a new object: a trace
    position is an object, and saga checks follow accesses by identity.
    """
    access = _new_access(Access)
    _set_entity(access, entity)
    _set_mode(access, mode)
    return access


@dataclass(frozen=True)
class Functionality:
    """A monolith use case: a name plus its ordered entity-access trace."""

    name: str
    trace: tuple[Access, ...]

    def __post_init__(self):
        if not self.name:
            raise ValueError("functionality name must be non-empty")
        if not self.trace:
            raise ValueError(f"functionality {self.name!r} has an empty trace")

    def entities(self) -> frozenset[str]:
        return frozenset(a.entity for a in self.trace)


@dataclass(frozen=True)
class Attribute:
    name: str
    type: str


@dataclass(frozen=True)
class Reference:
    """A structural link from the owning entity to ``target``.

    ``kind`` is either an association (a plain field) or an inheritance link
    (the owning entity extends ``target``).
    """

    field: str
    target: str
    kind: str = ASSOCIATION

    def __post_init__(self):
        if self.kind not in REFERENCE_KINDS:
            raise ValueError(f"unknown reference kind {self.kind!r}")


@dataclass(frozen=True)
class EntityStructure:
    """Static shape of one domain entity: attributes and outgoing references."""

    name: str
    attributes: tuple[Attribute, ...] = ()
    references: tuple[Reference, ...] = ()


@dataclass(frozen=True)
class MonolithModel:
    """Validated model: every traced entity has a structure entry.

    Functionality names are unique; a repeated one raises ``ValueError``.

    ``warnings`` records repairs made during validation (synthesized
    entities, dropped duplicates). They are diagnostics, not state: two
    models that agree on entities and functionalities compare equal even if
    one of them was repaired on the way in.
    """

    entities: tuple[EntityStructure, ...]
    functionalities: tuple[Functionality, ...]
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        names: set[str] = set()
        for f in self.functionalities:
            if f.name in names:
                raise ValueError(f"duplicate functionality name {f.name!r}")
            names.add(f.name)

    def entity_names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entities)

    def structure(self, name: str) -> EntityStructure:
        for e in self.entities:
            if e.name == name:
                return e
        raise KeyError(name)

    def functionality(self, name: str) -> Functionality:
        for f in self.functionalities:
            if f.name == name:
                return f
        raise KeyError(name)
