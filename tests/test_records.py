"""The package's frozen records are plain values.

Every value class is built by ``mono2ddd._record.record``, not by
``dataclasses.dataclass``. ``Functionality`` and ``Step``, which define
their own ``__init__``, are pinned by their own tests; the other
twenty-four are checked here against a reference ``dataclass(frozen=True)``
made from the same annotations, defaults and methods, with ``slots=True``
for the slotted ones (``Access`` and the twelve Cml nodes): signature,
hash and repr on seeded values, frozenness, a change built through the
constructor, copies, pickling, the pickling state and the
``__post_init__`` checks. Equality is checked against the tuple of the
compared fields, which gives the same result on every Python version
(a dataclass compares field by field from Python 3.13). A record is no
dataclass: it has no dataclass fields, match arguments, generated
docstring or ``__replace__``.

Also checked: importing the command line loads none of ``dataclasses``,
``inspect`` and ``typing``, and no module of the package grows past the
token budget.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import os
import pathlib
import pickle
import random
import subprocess
import sys
import tokenize

import pytest

from helpers import replace

from mono2ddd._record import record
from mono2ddd.cml import (
    CmlAggregate,
    CmlAttribute,
    CmlBoundedContext,
    CmlContextMap,
    CmlCoordination,
    CmlDocument,
    CmlEntity,
    CmlOperation,
    CmlReference,
    CmlRelationship,
    CmlService,
    CmlStep,
)
from mono2ddd.decompose import Decomposition, SimilarityMatrix, SimilarityWeights
from mono2ddd.errors import DecompositionError
from mono2ddd.measures import ClusterMeasures, MeasureReport
from mono2ddd.model import (
    Access,
    Attribute,
    EntityStructure,
    Functionality,
    MonolithModel,
    Reference,
)
from mono2ddd.saga import ReductionStats, Saga, Step

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mono2ddd"

# Each record with the fields that ``==`` and ``hash`` leave out.
UNCOMPARED = {
    SimilarityWeights: (),
    SimilarityMatrix: ("rows",),
    Decomposition: (),
    ClusterMeasures: (),
    MeasureReport: (),
    Attribute: (),
    Reference: (),
    EntityStructure: (),
    MonolithModel: ("warnings",),
    Saga: (),
    ReductionStats: (),
}

# Each slotted record with its defaults. A slotted class keeps no class
# attribute for a default, so they are spelled out here.
SLOTTED_DEFAULTS = {
    Access: {},
    CmlAttribute: {"comments": ()},
    CmlReference: {"comments": ()},
    CmlEntity: {"aggregate_root": False, "attributes": (), "references": (), "comments": ()},
    CmlAggregate: {"entities": (), "comments": ()},
    CmlOperation: {"comments": ()},
    CmlService: {"operations": (), "comments": ()},
    CmlStep: {"comments": ()},
    CmlCoordination: {"steps": (), "comments": ()},
    CmlBoundedContext: {"services": (), "coordinations": (), "aggregates": (), "comments": ()},
    CmlRelationship: {"comments": ()},
    CmlContextMap: {"contains": (), "relationships": (), "comments": ()},
    CmlDocument: {"contexts": (), "trailing_comments": ()},
}


def reference(cls):
    """A frozen dataclass of the record's name, annotations, defaults and
    methods, slotted if the record is."""
    own = vars(cls)
    names = list(cls.__annotations__)
    slots = cls in SLOTTED_DEFAULTS
    defaults = SLOTTED_DEFAULTS[cls] if slots else {n: own[n] for n in names if n in own}
    namespace = {
        "__module__": cls.__module__,
        "__qualname__": cls.__qualname__,
        "__annotations__": dict(cls.__annotations__),
    }
    for name, value in own.items():
        if name not in names and (not name.startswith("__") or name == "__post_init__"):
            namespace[name] = value
    for name in names:
        compare = name not in UNCOMPARED.get(cls, ())
        if name in defaults:
            namespace[name] = dataclasses.field(default=defaults[name], compare=compare)
        elif not compare:
            namespace[name] = dataclasses.field(compare=False)
    return dataclasses.dataclass(frozen=True, slots=slots)(type(cls.__name__, (), namespace))


RECORDS = [*UNCOMPARED, *SLOTTED_DEFAULTS]
REFERENCES = {cls: reference(cls) for cls in RECORDS}


def _pick(rng, options):
    return options[rng.randrange(len(options))]


def _weights(rng):
    return _pick(rng, [(1.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.0, 0.0), (0.25, 0.25, 0.25, 0.25)])


def _functionality(rng, name):
    trace = tuple(Access(_pick(rng, "AB"), _pick(rng, "RW")) for _ in range(rng.randint(1, 2)))
    return Functionality(name, trace)


# One NaN object: records holding it compare equal, as tuples holding it do
# (identity first).
NAN = float("nan")


def _arguments(cls, rng, nan=False):
    """Seeded constructor arguments, drawn from few values so equal pairs
    occur; with ``nan``, some float fields may hold ``NAN``."""
    floats = [0.0, 0.25, NAN] if nan else [0.0, 0.25]
    if cls is SimilarityWeights:
        return _weights(rng)
    if cls is SimilarityMatrix:
        return (_pick(rng, [("A", "B"), ("A",)]), [[rng.random()]])
    if cls is Decomposition:
        clusters = _pick(rng, [(("C0", ("A",)),), (("C0", ("A",)), ("C1", ("B",)))])
        return (SimilarityWeights(*_weights(rng)), len(clusters), clusters)
    if cls is ClusterMeasures:
        return (_pick(rng, "XY"), rng.randint(1, 2), 1, 0.5, _pick(rng, floats), 1.0)
    if cls is MeasureReport:
        names = _pick(rng, ["X", "XY"])
        clusters = tuple(ClusterMeasures(name, 1, 1, 0.5, 0.0, 1.0) for name in names)
        return (clusters, 0.5, _pick(rng, floats), 1.0)
    if cls is Attribute:
        return (_pick(rng, "ab"), _pick(rng, ["String", "Integer"]))
    if cls is Reference:
        return (_pick(rng, "fg"), _pick(rng, "AB"), _pick(rng, ["association", "inheritance"]))
    if cls is EntityStructure:
        attributes = _pick(rng, [(), (Attribute("a", "String"),)])
        return (_pick(rng, "AB"), attributes, _pick(rng, [(), (Reference("r", "A"),)]))
    if cls is MonolithModel:
        functionalities = tuple(_functionality(rng, name) for name in _pick(rng, ["f", "fg"]))
        entities = (EntityStructure("A"), EntityStructure("B"))
        return (entities, functionalities, _pick(rng, [(), ("repaired",)]))
    if cls is Saga:
        steps = (Step(_pick(rng, ["C0", "C1"]), (Access("A", "R"),), 0),)
        return (_pick(rng, "fg"), "C0", steps)
    if cls is ReductionStats:
        return (_pick(rng, "fg"), rng.randint(1, 2), 2, 3, _pick(rng, floats))
    if cls is Access:
        return (_pick(rng, "AB"), _pick(rng, "RW"))
    return _cml_arguments(cls, rng) + (_pick(rng, [(), ("note",)]),)


def _cml_arguments(cls, rng):
    """Seeded arguments of a Cml node but its comments, which come last."""
    name = _pick(rng, "AB")
    if cls is CmlAttribute:
        return (_pick(rng, ["String", "int"]), name)
    if cls is CmlReference:
        return (_pick(rng, "EF"), name)
    if cls is CmlEntity:
        attributes = _pick(rng, [(), (CmlAttribute("String", "a"),)])
        references = _pick(rng, [(), (CmlReference("F", "f"),)])
        return (name, _pick(rng, [False, True]), attributes, references)
    if cls is CmlAggregate:
        return (name, _pick(rng, [(), (CmlEntity("E", True),)]))
    if cls is CmlOperation:
        return (name,)
    if cls is CmlService:
        return (name, _pick(rng, [(), (CmlOperation("op"),)]))
    if cls is CmlStep:
        return (name, "S", _pick(rng, ["op", "undo"]))
    if cls is CmlCoordination:
        return (name, _pick(rng, [(), (CmlStep("A", "S", "op"),)]))
    if cls is CmlBoundedContext:
        services = _pick(rng, [(), (CmlService("S"),)])
        coordinations = _pick(rng, [(), (CmlCoordination("K"),)])
        return (name, services, coordinations, _pick(rng, [(), (CmlAggregate("G"),)]))
    if cls is CmlRelationship:
        return (name, _pick(rng, "BC"))
    if cls is CmlContextMap:
        return (name, _pick(rng, [(), ("A", "B")]), _pick(rng, [(), (CmlRelationship("A", "B"),)]))
    assert cls is CmlDocument
    context_map = _pick(rng, [None, CmlContextMap("M")])
    return (context_map, _pick(rng, [(), (CmlBoundedContext("A"),)]))


def _pairs(cls, seed, count=12, nan=False):
    rng = random.Random(seed)
    ref = REFERENCES[cls]
    return [(cls(*args), ref(*args)) for args in (_arguments(cls, rng, nan) for _ in range(count))]


IDS = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_fields_signature_doc_and_match_args_are_the_dataclass_ones(cls):
    """The fields and the signature are the dataclass's; the dataclass
    protocol, a generated docstring and match arguments are not there."""
    ref = REFERENCES[cls]
    assert tuple(cls.__annotations__) == tuple(f.name for f in dataclasses.fields(ref))
    assert inspect.signature(cls) == inspect.signature(ref)
    assert str(inspect.signature(cls)) == str(inspect.signature(ref))
    assert not dataclasses.is_dataclass(cls) and not hasattr(cls, "__dataclass_fields__")
    assert not (cls.__doc__ or "").startswith(cls.__name__ + "(")
    assert not hasattr(cls, "__match_args__")
    assert not hasattr(cls, "__replace__")


def test_uncompared_fields_stay_out_of_equality():
    a, b = SimilarityMatrix(("A",), [[0.0]]), SimilarityMatrix(("A",), [[1.0]])
    assert a == b and hash(a) == hash(b) == hash((("A",),))
    model = MonolithModel((EntityStructure("A"),), ())
    warned = MonolithModel((EntityStructure("A"),), (), ("repaired",))
    assert model == warned and hash(model) == hash(warned)


def _compared(value):
    """The tuple of the fields of ``value`` that ``==`` and ``hash`` read."""
    cls = type(value)
    return tuple(getattr(value, n) for n in cls.__annotations__ if n not in UNCOMPARED.get(cls, ()))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_equality_hash_and_repr_are_the_dataclass_ones(cls, seed):
    pairs = _pairs(cls, seed, nan=True)
    for value, ref in pairs:
        assert repr(value) == repr(ref)
        assert hash(value) == hash(ref) == hash(_compared(value))
        assert value != ref and not value == ref
        for other, _ in pairs:
            assert (value == other) is (_compared(value) == _compared(other))
            assert (value != other) is (_compared(value) != _compared(other))


@pytest.mark.parametrize("seed", range(3))
def test_the_seeded_values_hold_two_records_alike_but_for_one_nan(seed):
    holding = [value for value, _ in _pairs(ClusterMeasures, seed, nan=True)]
    holding = [value for value in holding if value.coupling != value.coupling]
    assert len({(value.name, value.size) for value in holding}) < len(holding)


def test_records_holding_one_nan_object_are_equal_and_none_has_replace():
    one, other = (ClusterMeasures("X", 1, 1, 0.5, NAN, 1.0) for _ in range(2))
    assert one == other and not one != other and hash(one) == hash(other)
    assert one != ClusterMeasures("X", 1, 1, 0.5, float("nan"), 1.0)
    report = MeasureReport((one,), 0.5, NAN, 1.0)
    assert report == MeasureReport((other,), 0.5, NAN, 1.0)
    for cls in (*RECORDS, Functionality, Step):
        assert not hasattr(cls, "__replace__")


def test_a_record_met_in_its_own_repr_reads_as_an_ellipsis():
    value, ref = SimilarityMatrix(("A",), []), REFERENCES[SimilarityMatrix](("A",), [])
    value.rows.append(value)
    ref.rows.append(ref)
    assert repr(value) == repr(ref) == "SimilarityMatrix(entities=('A',), rows=[...])"


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_records_stay_frozen(cls):
    value, ref = _pairs(cls, 0, count=1)[0]
    for name in cls.__annotations__:
        for target in (value, ref):
            with pytest.raises(dataclasses.FrozenInstanceError) as refused:
                setattr(target, name, None)
            assert str(refused.value) == f"cannot assign to field {name!r}"
            with pytest.raises(dataclasses.FrozenInstanceError) as refused:
                delattr(target, name)
            assert str(refused.value) == f"cannot delete field {name!r}"
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.extra = 1


def _outcome(replace, value, changes):
    """The repr of ``replace``'s result, or the type and text of its error."""
    try:
        return repr(replace(value, **changes))
    except (ValueError, DecompositionError) as error:
        return type(error), str(error)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_replace_copies_and_pickles_keep_the_value(cls):
    rng = random.Random(5)
    for value, ref in _pairs(cls, 1, count=4):
        same = replace(value)
        assert same == value and same is not value and type(same) is cls
        name = _pick(rng, list(cls.__annotations__))
        other, _ = _pairs(cls, 2, count=1)[0]
        change = {name: getattr(other, name)}
        assert _outcome(replace, value, change) == _outcome(replace, ref, change)
        if cls in SLOTTED_DEFAULTS:
            assert value.__getstate__() == ref.__getstate__()
        clones = [copy.copy(value), copy.deepcopy(value)]
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            clones.append(pickle.loads(pickle.dumps(value, protocol)))
        for clone in clones:
            assert type(clone) is cls and clone == value
            assert hash(clone) == hash(value) and repr(clone) == repr(value)


@pytest.mark.parametrize(
    "cls, arguments, error",
    [
        (SimilarityWeights, (0.5, 0.5, 0.5, 0.0), DecompositionError),
        (SimilarityWeights, (float("nan"), 1.0, 0.0, 0.0), DecompositionError),
        (SimilarityWeights, (1.5, -0.5, 0.0, 0.0), DecompositionError),
        (Reference, ("f", "A", "composition"), ValueError),
        (MonolithModel, ((), (Functionality("f", (Access("A", "R"),)),) * 2), ValueError),
        (Access, ("", "R"), ValueError),
        (Access, ("A", "X"), ValueError),
    ],
)
def test_post_init_errors_are_the_dataclass_ones(cls, arguments, error):
    with pytest.raises(error) as raised:
        cls(*arguments)
    with pytest.raises(error) as raised_by_reference:
        REFERENCES[cls](*arguments)
    assert str(raised.value) == str(raised_by_reference.value)


def test_traced_entities_are_cached_on_a_frozen_model():
    f = Functionality("f", (Access("B", "R"), Access("A", "W")))
    model = MonolithModel((EntityStructure("A"),), (f,))
    traced = model._traced
    assert traced == ("B", "A") and model._traced is traced
    assert vars(model)["_traced"] is traced


def test_a_record_keeps_what_its_class_defines():
    @record(slots=True, uncompared=("note",))
    class Pair:
        left: int
        right: int = 0
        note: str = ""

        def __repr__(self):
            return "pair"

    assert Pair.__slots__ == ("left", "right", "note")
    assert repr(Pair(1)) == "pair"
    assert Pair(1, 2, "x") == Pair(1, 2, "y") and hash(Pair(1, 2)) == hash((1, 2))
    assert Pair.__doc__ is None
    restored = object.__new__(Pair)
    restored.__setstate__(Pair(3, 4, "z").__getstate__())
    assert (restored.left, restored.right, restored.note) == (3, 4, "z")
    with pytest.raises(TypeError, match="non-default argument 'b' follows default argument"):

        @record
        class Bad:
            a: int = 0
            b: int


def test_the_methods_serve_a_subclass_from_the_base():
    @record(slots=True)
    class Point:
        x: float
        y: float = 0.0

    class Moved(Point):
        __slots__ = ()

    assert Moved(1.0) == Moved(1.0) != Moved(2.0) and hash(Moved(1.0)) == hash((1.0, 0.0))
    assert repr(Moved(1.0)).endswith("Moved(x=1.0, y=0.0)")
    assert Moved(1.0).__getstate__() == [1.0, 0.0]
    for attr in ("__eq__", "__hash__", "__repr__", "__getstate__"):
        assert attr not in vars(Moved)
        assert vars(Point)[attr].__qualname__ == f"{Point.__qualname__}.{attr}"
    assert Point(1.0) == Point(1.0) and Point(1.0) != Moved(1.0)


def test_the_cli_import_loads_no_dataclasses_or_inspect():
    code = (
        "import sys, mono2ddd.cli\n"
        "modules = ('dataclasses', 'inspect', 'typing', 'mono2ddd.ingest', 'mono2ddd.cml')\n"
        "print(sorted(m for m in modules if m in sys.modules))\n"
        "import copy, pickle, mono2ddd\n"
        "a = mono2ddd.Access('A', 'R')\n"
        "assert a == mono2ddd.Access('A', 'R') and hash(a) == hash(('A', 'R'))\n"
        "assert copy.deepcopy(a) == a == pickle.loads(pickle.dumps(a))\n"
        "print(repr(a), 'dataclasses' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    # Without ``site``: a ``.pth`` file of the environment may import anything.
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "['mono2ddd.cml', 'mono2ddd.ingest']",
        "Access(entity='A', mode='R') False",
    ]


# Past this many tokens, compiling a module in the benchmark's harness
# raises the memory high-water that every job inherits.
TOKEN_BUDGET = 8192


def _tokens(path: pathlib.Path) -> int:
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with path.open("rb") as fh:
        return sum(1 for token in tokenize.tokenize(fh.readline) if token.type not in skipped)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_module_fits_the_token_budget(path):
    assert _tokens(path) <= TOKEN_BUDGET
