"""Core domain model: entity accesses, functionalities, and entity structure.

A monolith is described by two ingredients: per-functionality ordered traces
of read/write accesses to domain entities, and the static structure of those
entities (attributes plus references between entities). Both are immutable
value objects; every transformation downstream returns new values.

A trace, and a saga step's accesses, are stored as two columns: a tuple of
entity names and a string with one mode character (``R`` or ``W``) per
position. Readers that need only names and modes read the columns. The
``Access`` tuple, one object per position, is built once, through
``Access`` and its checks, on the first read of ``Functionality.trace`` or
``Step.accesses``, and that same tuple is returned on every later read, so
code that follows accesses by identity (saga checks do) sees stable objects.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from operator import attrgetter

from ._record import record

READ = "R"
WRITE = "W"
MODES = (READ, WRITE)

ASSOCIATION = "association"
INHERITANCE = "inheritance"
REFERENCE_KINDS = (ASSOCIATION, INHERITANCE)


@record(slots=True)
class Access:
    """One read or write of a domain entity at a trace position."""

    entity: str
    mode: str

    def __post_init__(self):
        if not self.entity:
            raise ValueError("access entity name must be non-empty")
        if self.mode not in MODES:
            raise ValueError(f"unknown access mode {self.mode!r} (expected R or W)")


_entity_of = attrgetter("entity")
_mode_of = attrgetter("mode")


class _AccessColumns:
    """Base of a frozen record that keeps an access sequence as columns.

    ``_entities`` holds the entity names and ``_modes`` one mode character
    per position; ``_built`` is the ``Access`` tuple once it exists, else
    None, or, for a refactored saga step, the functionality it picks its
    accesses from (see ``saga.Step``). A subclass's ``_key`` is its other
    fields and the columns, in the order its ``_from_columns`` takes them.
    Equality, hash and pickling use that key, so a value built from
    accesses equals the same value built from columns.
    """

    __slots__ = ("_entities", "_modes", "_built")

    def _set_accesses(self, accesses) -> None:
        """Keep the given accesses as the cached tuple and derive the columns."""
        built = tuple(accesses)
        _set_entities(self, tuple(map(_entity_of, built)))
        _set_modes(self, "".join(map(_mode_of, built)))
        _set_built(self, built)

    def _set_columns(self, entities: tuple[str, ...], modes: str) -> None:
        """Keep checked columns; the ``Access`` tuple waits for its first read."""
        _set_entities(self, entities)
        _set_modes(self, modes)
        _set_built(self, None)

    def _accesses(self) -> tuple[Access, ...]:
        built = self._built
        if built is None:
            built = tuple(map(Access, self._entities, self._modes))
            _set_built(self, built)
        return built

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        # Rebuilt from the columns; a built tuple travels as state, so a
        # copy shares its accesses and a deep copy copies them.
        return (type(self)._from_columns, self._key(), self._built)

    def __setstate__(self, built) -> None:
        _set_built(self, built)


_set_entities = _AccessColumns._entities.__set__
_set_modes = _AccessColumns._modes.__set__
_set_built = _AccessColumns._built.__set__


@record(eq=False)
class Functionality(_AccessColumns):
    """A monolith use case: a name plus its ordered entity-access trace.

    The trace is stored as columns (see the module docstring). Built from
    ``Access`` values, those values are the ``trace`` tuple; built from
    parsed columns, ``trace`` builds its tuple on the first read and returns
    it on every read after that.
    """

    __slots__ = ("name",)
    name: str
    trace: tuple[Access, ...]

    def __init__(self, name: str, trace: tuple[Access, ...]):
        if not name:
            raise ValueError("functionality name must be non-empty")
        if not trace:
            raise ValueError(f"functionality {name!r} has an empty trace")
        _set_name(self, name)
        self._set_accesses(trace)

    @classmethod
    def _from_columns(cls, name: str, entities: tuple[str, ...], modes: str) -> Functionality:
        """A functionality from checked columns: a non-empty name, as many
        non-empty entity names as ``R``/``W`` characters, at least one."""
        f = object.__new__(cls)
        _set_name(f, name)
        f._set_columns(entities, modes)
        return f

    def _key(self) -> tuple:
        return (self.name, self._entities, self._modes)

    def entities(self) -> frozenset[str]:
        return frozenset(self._entities)


_set_name = Functionality.name.__set__
Functionality.trace = property(_AccessColumns._accesses, doc="The trace as ``Access`` values.")


@record
class Attribute:
    name: str
    type: str


@record
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


@record
class EntityStructure:
    """Static shape of one domain entity: attributes and outgoing references."""

    name: str
    attributes: tuple[Attribute, ...] = ()
    references: tuple[Reference, ...] = ()


@record(uncompared=("warnings",))
class MonolithModel:
    """A monolith's entity structures and functionalities.

    Functionality names are unique; a repeated one raises ``ValueError``.
    A model from ``validate_model`` (so from ``parse_model``) has a
    structure entry for every traced entity. A hand-built one may trace an
    entity it does not declare: ``decompose._index`` numbers that entity
    after the declared ones, and no decomposition fits such a model, since
    ``check_decomposition`` refuses both a listed entity the model lacks
    and a traced entity in no cluster.

    ``warnings`` records repairs made during validation (synthesized
    entities, dropped duplicates). They are diagnostics, not state: two
    models that agree on entities and functionalities compare equal even if
    one of them was repaired on the way in.
    """

    entities: tuple[EntityStructure, ...]
    functionalities: tuple[Functionality, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        names: set[str] = set()
        for f in self.functionalities:
            if f.name in names:
                raise ValueError(f"duplicate functionality name {f.name!r}")
            names.add(f.name)

    def entity_names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entities)

    @cached_property
    def _traced(self) -> tuple[str, ...]:
        """Traced entity names in first-seen order, from the columns on first read."""
        return tuple(dict.fromkeys(chain.from_iterable(f._entities for f in self.functionalities)))

    @cached_property
    def _traced_names(self) -> frozenset[str]:
        """The set of traced entity names, from ``_traced`` on first read
        unless the model was built by ``_with_traced_names``."""
        return frozenset(self._traced)

    @classmethod
    def _with_traced_names(
        cls,
        entities: tuple[EntityStructure, ...],
        functionalities: tuple[Functionality, ...],
        warnings: tuple[str, ...],
        traced_names: frozenset[str],
    ) -> MonolithModel:
        """A model whose traced names the caller has already collected, as
        ``validate_model``'s walk over the traces does."""
        model = cls(entities, functionalities, warnings)
        model.__dict__["_traced_names"] = traced_names
        return model

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
