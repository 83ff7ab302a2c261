"""Frozen value records.

``@record`` makes a class a frozen value: a compiled ``__init__`` over the
class's fields (parameter names, defaults, annotations and the
``__post_init__`` call), ``==`` and ``hash`` over the tuple of the compared
fields, a ``repr`` that lists the fields (``...`` for a record met again
inside its own repr), and ``__setattr__`` and ``__delattr__`` that raise
``dataclasses.FrozenInstanceError``. With ``slots=True`` the class gets
``__slots__`` for its fields and a pickling state. ``==``, ``hash`` and
``repr`` are the same on every supported Python version. Loading this
module imports neither ``dataclasses`` nor ``inspect``, whose import and
per-class code generation were most of the package's import time;
``FrozenInstanceError`` is imported when it is raised.

Only ``__init__`` is compiled from source, once per shape: the number of
fields, whether the record is slotted and whether it has
``__post_init__``. When a class is made, its shape's code (compiled then if
no earlier class had that shape) gets the class's field names, as
parameter names and, for an unslotted record, as the constants it writes
by; the bytecode, signature and error text are those of a compile for the
class alone. The package's 26 such records share 13 shapes.
``__eq__``, ``__hash__``, ``__repr__`` and ``__getstate__`` are plain
functions made once per class over an ``operator.attrgetter`` key that
returns the tuple of the fields (or of the compared ones): ``==`` compares
the keys, ``hash`` hashes the compared key, ``__getstate__`` lists the key
and ``__repr__``, which ``reprlib.recursive_repr`` guards, writes it.

Fields are the class's own annotations, in order; a class attribute of a
field's name is its default (a slot descriptor is not). An unslotted
record's ``__init__`` writes through ``object.__setattr__``: a write into
``self.__dict__`` would be faster, but it gives the instance a real
dictionary, and every later attribute read from it then takes the slower
path (2.3 times slower on Python 3.11).
"""

from __future__ import annotations

import operator
import reprlib
from functools import cache
from types import FunctionType, MemberDescriptorType

_MISSING = object()


def record(cls=None, /, *, slots=False, eq=True, uncompared=()):
    """Make ``cls`` a frozen record.

    With ``slots`` the fields are slots; with ``eq=False`` the class keeps
    the ``==`` and ``hash`` it inherits; the fields named in ``uncompared``
    take no part in ``==`` and ``hash``. A method the class defines itself
    is kept, but not ``__setattr__`` or ``__delattr__``.
    """
    if cls is None:
        return lambda cls: _build(cls, slots, eq, frozenset(uncompared))
    return _build(cls, slots, eq, frozenset(uncompared))


def _build(cls, slots, eq, uncompared):
    annotations = cls.__dict__.get("__annotations__", {})
    names = tuple(annotations)
    if "self" in names:  # the ``__init__``'s first parameter
        raise TypeError("a record field may not be named 'self'")
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
        methods["__hash__"] = _hash(compared)
    if slots:
        methods["__getstate__"] = _getstate(fields)
        methods["__setstate__"] = _setstate(setters)
    for attr, method in methods.items():
        if attr not in own:
            method.__qualname__ = f"{cls.__qualname__}.{attr}"
            setattr(cls, attr, method)
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    return cls


def _with_slots(cls, names):
    """The class again, with ``__slots__`` for its fields."""
    namespace = dict(cls.__dict__)
    for name in (*names, "__dict__", "__weakref__"):
        namespace.pop(name, None)
    namespace["__slots__"] = names
    rebuilt = type(cls)(cls.__name__, cls.__bases__, namespace)
    rebuilt.__qualname__ = cls.__qualname__
    return rebuilt


def _init(cls, names, annotations, defaults, setters):
    """The ``__init__`` of ``cls``: its shape's template with the class's
    field names put in. A slotted record's writes through the slots'
    ``setters``."""
    if setters is not None:
        namespace = {f"_set_{i}": setter for i, setter in enumerate(setters)}
    else:
        namespace = {"_setattr": object.__setattr__}
    namespace["__name__"] = cls.__module__
    template = _template(len(names), setters is not None, hasattr(cls, "__post_init__"))
    placeholders = {f"_{i}": name for i, name in enumerate(names)}
    code = template.replace(
        co_varnames=("self", *names),
        co_consts=tuple(placeholders.get(const, const) for const in template.co_consts),
    )
    init = FunctionType(code, namespace, "__init__", tuple(defaults.values()) or None)
    init.__annotations__ = {**{name: annotations[name] for name in names}, "return": None}
    return init


@cache
def _template(count, slotted, post_init):
    """The code of an ``__init__`` over ``count`` fields named ``_0``,
    ``_1``, ...: written through ``_set_<i>`` if ``slotted``, else through
    ``_setattr`` with the field name as a constant, and calling
    ``__post_init__`` if ``post_init``."""
    names = [f"_{i}" for i in range(count)]
    if slotted:
        body = [f"_set_{i}(self, {name})" for i, name in enumerate(names)]
    else:
        body = [f"_setattr(self, {name!r}, {name})" for name in names]
    if post_init:
        body.append("self.__post_init__()")
    source = f"def __init__({', '.join(('self', *names))}):\n"
    source += "".join(f"    {line}\n" for line in body or ["pass"])
    namespace = {}
    exec(source, namespace)
    return namespace["__init__"].__code__


def _key(names):
    """The function from a record to the tuple of its fields ``names``."""
    if len(names) > 1:
        return operator.attrgetter(*names)
    if names:
        get = operator.attrgetter(*names)
        return lambda self: (get(self),)
    return lambda self: ()


def _repr(names, fields):
    """``__repr__``: the class name and each field as ``name=value``,
    ``...`` for a record met again inside its own repr in one thread."""
    template = "(" + ", ".join(f"{name}={{!r}}" for name in names) + ")"

    @reprlib.recursive_repr()
    def __repr__(self):
        return self.__class__.__qualname__ + template.format(*fields(self))

    return __repr__


def _eq(compared):
    """``__eq__``: records of one class are equal when the tuples of their
    ``compared`` fields are."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return compared(self) == compared(other)
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


def _setstate(setters):
    """``__setstate__`` of a slotted record: its ``__getstate__`` list of
    field values, written back through the slots."""

    def __setstate__(self, state):
        for setter, value in zip(setters, state):
            setter(self, value)

    return __setstate__


def _frozen_error(action, name):
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(f"cannot {action} field {name!r}")


def _setattr(self, name, value):
    raise _frozen_error("assign to", name)


def _delattr(self, name):
    raise _frozen_error("delete", name)
