"""Frozen value records that keep the dataclass protocol.

``@record`` does for a class what ``@dataclass(frozen=True)`` does, with
the same ``__init__`` (parameter names, defaults, annotations and the
``__post_init__`` call), ``__eq__``, ``__hash__``, ``__repr__`` (``...``
for a record met again inside its own repr), frozen ``__setattr__`` and
``__delattr__``, ``__match_args__`` and generated ``__doc__``, from Python
3.13 ``__replace__`` and its field-by-field ``__eq__``, and with
``slots=True`` the same ``__slots__`` and pickling state. Loading it
imports neither ``dataclasses`` nor ``inspect``, whose import and per-class
code generation were most of the package's import time.

Only ``__init__`` is compiled from source, as ``dataclass`` compiles it,
when the class is made. ``__eq__``, ``__hash__``, ``__repr__`` and
``__getstate__`` are plain functions made once per class over an
``operator.attrgetter`` key that returns the tuple of the fields (or of
the compared ones): ``==`` compares the keys (field by field from Python
3.13), ``hash`` hashes the compared key, ``__getstate__`` lists the key
and ``__repr__``, which ``reprlib.recursive_repr`` guards, writes it.

The dataclass protocol is kept lazily too: the first read of
``__dataclass_fields__`` asks ``dataclasses.make_dataclass`` for the
matching ``Field`` objects and caches them on the class, so
``dataclasses.fields``, ``replace``, ``astuple`` and ``is_dataclass`` work
on records. ``FrozenInstanceError`` is imported when it is raised.

Fields are the class's own annotations, in order; a class attribute of a
field's name is its default (a slot descriptor is not). An unslotted
record's ``__init__`` writes through ``object.__setattr__``, as the
dataclass one does: a write into ``self.__dict__`` would be faster, but it
gives the instance a real dictionary, and every later attribute read from
it then takes the slower path (2.3 times slower on Python 3.11).
Annotations are taken to be strings, as they are in a module that
postpones their evaluation (every record module of this package does); the
generated ``__doc__`` writes them with ``repr``, as ``inspect`` does.
"""

from __future__ import annotations

import operator
import reprlib
import sys
from types import MemberDescriptorType

_MISSING = object()

# From Python 3.13 a dataclass's ``__eq__`` checks identity and then
# compares field by field (two records holding NaN floats differ), and
# every dataclass has ``__replace__`` for ``copy.replace``.
_PY313 = sys.version_info >= (3, 13)


def record(cls=None, /, *, slots=False, eq=True, uncompared=()):
    """Make ``cls`` a frozen record, as ``@dataclass(frozen=True)`` would.

    ``slots`` and ``eq`` mean what they mean to ``dataclass``; the fields
    named in ``uncompared`` take no part in ``==`` and ``hash``, as with
    ``field(compare=False)``. A class that defines its own ``__init__``
    keeps it.
    """
    if cls is None:
        return lambda cls: _build(cls, slots, eq, frozenset(uncompared))
    return _build(cls, slots, eq, frozenset(uncompared))


def _build(cls, slots, eq, uncompared):
    annotations = cls.__dict__.get("__annotations__", {})
    names = tuple(annotations)
    defaults = {}
    for name in names:
        default = cls.__dict__.get(name, _MISSING)
        if default is not _MISSING and not isinstance(default, MemberDescriptorType):
            defaults[name] = default
        elif defaults:
            raise TypeError(f"non-default argument {name!r} follows default argument")
    if slots:
        cls = _with_slots(cls, names)

    own = cls.__dict__
    setters = tuple(getattr(cls, name).__set__ for name in names) if slots else None
    fields, compared = _key(names), _key(tuple(n for n in names if n not in uncompared))
    methods = {"__repr__": _repr(names, fields)}
    if "__init__" not in own:
        methods["__init__"] = _init(cls, names, annotations, defaults, setters)
    if eq:
        methods["__eq__"] = _eq(compared)
    if slots:
        methods["__getstate__"] = _getstate(fields)
        methods["__setstate__"] = _setstate(setters)
    if _PY313:
        methods["__replace__"] = _replace
    # As with ``dataclass``: a method the class defines itself is kept, but
    # not ``__setattr__`` or ``__delattr__``, nor a ``__hash__`` of None.
    methods = {attr: method for attr, method in methods.items() if attr not in own}
    methods["__setattr__"], methods["__delattr__"] = _frozen(cls, frozenset(names))
    if eq and own.get("__hash__") is None:
        methods["__hash__"] = _hash(compared)
    for attr, method in methods.items():
        if method is not _replace:
            method.__qualname__ = f"{cls.__qualname__}.{attr}"
        setattr(cls, attr, method)

    if "__match_args__" not in own:
        cls.__match_args__ = names
    if not cls.__doc__:
        cls.__doc__ = cls.__name__ + _signature(names, annotations, defaults)
    spec = [(n, annotations[n], defaults.get(n, _MISSING), n not in uncompared) for n in names]
    cls.__dataclass_fields__ = _Fields(cls, spec, eq)
    return cls


def _with_slots(cls, names):
    """The class again, with ``__slots__`` for its fields, as ``dataclass`` rebuilds it."""
    namespace = dict(cls.__dict__)
    for name in (*names, "__dict__", "__weakref__"):
        namespace.pop(name, None)
    namespace["__slots__"] = names
    rebuilt = type(cls)(cls.__name__, cls.__bases__, namespace)
    rebuilt.__qualname__ = cls.__qualname__
    return rebuilt


def _init(cls, names, annotations, defaults, setters):
    """The ``__init__`` of ``cls``, compiled for its fields. A slotted
    record's writes through the slots' ``setters``."""
    if setters is not None:
        namespace = {f"_set_{i}": setter for i, setter in enumerate(setters)}
        body = [f"_set_{i}(self, {name})" for i, name in enumerate(names)]
    else:
        namespace = {"_setattr": object.__setattr__}
        body = [f"_setattr(self, {name!r}, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    source = f"def __init__({', '.join(('self', *names))}):\n"
    source += "".join(f"    {line}\n" for line in body or ["pass"])
    namespace["__name__"] = cls.__module__
    exec(source, namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults.values()) or None
    init.__annotations__ = {**{name: annotations[name] for name in names}, "return": None}
    return init


def _key(names):
    """The function from a record to the tuple of its fields ``names``."""
    if len(names) > 1:
        return operator.attrgetter(*names)
    if names:
        get = operator.attrgetter(*names)
        return lambda self: (get(self),)
    return lambda self: ()


def _repr(names, fields):
    """``__repr__`` as ``dataclass`` writes it, ``...`` for a record met
    again inside its own repr in one thread."""
    template = "(" + ", ".join(f"{name}={{!r}}" for name in names) + ")"

    @reprlib.recursive_repr()
    def __repr__(self):
        return self.__class__.__qualname__ + template.format(*fields(self))

    return __repr__


def _eq(compared):
    """``__eq__`` over the ``compared`` key: the tuples compared before
    Python 3.13, and from 3.13 field by field. The identity check changes
    no result before 3.13, where a tuple compares its items by identity
    first."""
    if _PY313:

        def same(one, other):
            return all(map(operator.eq, one, other))

    else:
        same = operator.eq

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return same(compared(self), compared(other))
        return NotImplemented

    return __eq__


def _hash(compared):
    def __hash__(self):
        return hash(compared(self))

    return __hash__


def _getstate(fields):
    """``__getstate__`` of a slotted record: the list of its field values."""

    def __getstate__(self):
        return list(fields(self))

    return __getstate__


def _replace(self, /, **changes):
    import dataclasses

    return dataclasses.replace(self, **changes)


def _frozen_error(action, name):
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(f"cannot {action} field {name!r}")


def _frozen(cls, names):
    """``__setattr__`` and ``__delattr__`` that refuse every name on an
    instance of ``cls`` and the field names on an instance of a subclass."""

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise _frozen_error("assign to", name)
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise _frozen_error("delete", name)
        super(cls, self).__delattr__(name)

    return __setattr__, __delattr__


def _setstate(setters):
    """``__setstate__`` of a slotted record: its ``__getstate__`` list of
    field values, written back through the slots."""

    def __setstate__(self, state):
        for setter, value in zip(setters, state):
            setter(self, value)

    return __setstate__


def _signature(names, annotations, defaults) -> str:
    """The text of the ``__init__`` signature, as ``dataclass`` puts it in ``__doc__``."""
    params = []
    for name in names:
        text = f"{name}: {annotations[name]!r}"
        if name in defaults:
            text += f" = {defaults[name]!r}"
        params.append(text)
    return f"({', '.join(params)})"


class _Fields:
    """A record's ``__dataclass_fields__``: made on first read, then cached on the class."""

    def __init__(self, cls, spec, eq):
        self.cls, self.spec, self.eq = cls, spec, eq

    def __get__(self, instance, owner=None):
        import dataclasses

        spec = []
        for name, annotation, default, compare in self.spec:
            if default is _MISSING:
                spec.append((name, annotation, dataclasses.field(compare=compare)))
            else:
                spec.append((name, annotation, dataclasses.field(default=default, compare=compare)))
        made = dataclasses.make_dataclass(self.cls.__name__, spec, eq=self.eq, frozen=True)
        fields = made.__dataclass_fields__
        self.cls.__dataclass_fields__ = fields
        return fields
