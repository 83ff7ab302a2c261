"""Traces kept as columns: the value contract of `Functionality` and `Step`,
and the CLI calls that never build an `Access`.

A functionality's trace and a saga step's accesses are stored as an entity
column and a mode column. Built from `Access` values, those values are the
access tuple; built from parsed columns, the tuple is built on its first
read. Either way the value must behave as the frozen record it was:
same equality, hash, `repr`, pickling, copying and frozenness.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import random

import pytest

from conftest import FIXTURE_A_ACCESSES, TOPIC_QUESTION_ACCESSES, TOPIC_QUESTION_STRUCTURE
from helpers import random_model, replace
from oracles import check_saga

from mono2ddd import cli, saga
from mono2ddd.ingest import accesses_to_json, parse_accesses, structure_to_json
from mono2ddd.model import Access, Functionality
from mono2ddd.saga import Step, parse_sagas

PAIRS = (("A", "R"), ("B", "W"), ("A", "W"), ("A", "R"))


def _accesses(pairs=PAIRS):
    return tuple(Access(e, m) for e, m in pairs)


def _functionalities():
    """The same functionality from Access values and from parsed columns."""
    doc = {"functionalities": [{"name": "f", "trace": [list(p) for p in PAIRS]}]}
    (parsed,) = parse_accesses(json.dumps(doc))
    return Functionality("f", _accesses()), parsed


def _steps():
    """The same step from Access values and from parsed columns."""
    doc = {
        "sagas": [
            {
                "functionality": "f",
                "orchestrator": "C",
                "steps": [{"cluster": "C", "accesses": [list(p) for p in PAIRS]}],
            }
        ]
    }
    (saga,) = parse_sagas(json.dumps(doc))
    return Step("C", _accesses(), 0), saga.steps[0]


def _values():
    return [*_functionalities(), *_steps()]


def _read(value):
    return value.trace if isinstance(value, Functionality) else value.accesses


REPRS = {
    Functionality: "Functionality(name='f', trace=({}))",
    Step: "Step(cluster='C', accesses=({}), index=0)",
}


@pytest.mark.parametrize("built", ["accesses", "columns"])
@pytest.mark.parametrize("kind", [Functionality, Step])
def test_every_read_returns_the_same_tuple(kind, built):
    value = (_functionalities() if kind is Functionality else _steps())[built == "columns"]
    first = _read(value)
    assert type(first) is tuple and all(type(a) is Access for a in first)
    assert [(a.entity, a.mode) for a in first] == list(PAIRS)
    assert len({id(a) for a in first}) == len(PAIRS)
    assert _read(value) is first and _read(value) is first


def test_the_given_accesses_are_the_tuple():
    trace = _accesses()
    assert Functionality("f", trace).trace is trace
    assert Step("C", trace, 0).accesses is trace


@pytest.mark.parametrize("kind", [Functionality, Step])
def test_both_ways_are_equal_with_equal_hashes(kind):
    from_accesses, from_columns = _functionalities() if kind is Functionality else _steps()
    assert from_accesses == from_columns and from_columns == from_accesses
    assert hash(from_accesses) == hash(from_columns)
    # Reading the trace changes neither.
    _read(from_columns)
    assert from_accesses == from_columns and hash(from_accesses) == hash(from_columns)
    assert len({from_accesses, from_columns}) == 1


def test_values_that_differ_in_any_field_are_unequal():
    f = Functionality("f", _accesses())
    g = Functionality("g", _accesses())
    mode = Functionality("f", _accesses(PAIRS[:-1] + (("A", "W"),)))
    entity = Functionality("f", _accesses(PAIRS[:-1] + (("B", "R"),)))
    shorter = Functionality("f", _accesses(PAIRS[:-1]))
    assert len({f, g, mode, entity, shorter}) == 5
    step = Step("C", _accesses(), 0)
    assert len({step, Step("D", _accesses(), 0), Step("C", _accesses(), 1)}) == 3
    assert step != f and f != step
    assert (f == ("f", _accesses())) is False


def test_equality_and_hash_agree_on_random_traces():
    rng = random.Random(20261019)
    values = []
    for _ in range(300):
        pairs = [(rng.choice("AB"), rng.choice("RW")) for _ in range(rng.randint(1, 3))]
        name = rng.choice("fg")
        doc = {"functionalities": [{"name": name, "trace": [list(p) for p in pairs]}]}
        values.append(Functionality(name, _accesses(pairs)))
        values.extend(parse_accesses(json.dumps(doc)))
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b)
            key_a = (a.name, [(x.entity, x.mode) for x in a.trace])
            key_b = (b.name, [(x.entity, x.mode) for x in b.trace])
            assert (a == b) == (key_a == key_b)


@pytest.mark.parametrize("index", range(4))
def test_repr_text_is_the_dataclass_text(index):
    value = _values()[index]
    accesses = ", ".join(f"Access(entity={e!r}, mode={m!r})" for e, m in PAIRS)
    assert repr(value) == REPRS[type(value)].format(accesses)
    one = Functionality("f", (Access("A", "R"),))
    assert repr(one) == "Functionality(name='f', trace=(Access(entity='A', mode='R'),))"


@pytest.mark.parametrize("read_first", [False, True])
@pytest.mark.parametrize("index", range(4))
def test_pickle_and_copy_round_trip(index, read_first):
    value = _values()[index]
    if read_first:
        _read(value)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(value, protocol))
        assert type(clone) is type(value) and clone == value
        assert hash(clone) == hash(value) and repr(clone) == repr(value)
        assert _read(clone) is _read(clone)
    shallow, deep = copy.copy(value), copy.deepcopy(value)
    assert shallow == value and deep == value
    if read_first:
        # As with the dataclass: a copy shares the accesses, a deep copy copies them.
        assert _read(shallow) is _read(value)
    assert all(a is not b for a, b in zip(_read(deep), _read(value)))


@pytest.mark.parametrize("index", range(4))
def test_values_stay_frozen(index):
    value = _values()[index]
    fields = list(type(value).__annotations__)
    expected = ["name", "trace"] if isinstance(value, Functionality) else ["cluster", "accesses", "index"]
    assert fields == expected
    for name in [*fields, "_entities", "_modes", "_built", "other"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
    for name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    assert not hasattr(value, "__dict__")


def test_replace_builds_through_the_constructor():
    f, parsed = _functionalities()
    assert replace(parsed, name="g") == Functionality("g", _accesses())
    step, parsed_step = _steps()
    moved = replace(parsed_step, cluster="D")
    assert moved == Step("D", _accesses(), 0)
    assert moved.accesses is parsed_step.accesses


def test_entities_are_the_traced_names():
    for f in _functionalities():
        assert f.entities() == frozenset({"A", "B"})


def test_constructor_checks_are_unchanged():
    with pytest.raises(ValueError, match="functionality name must be non-empty"):
        Functionality("", _accesses())
    with pytest.raises(ValueError, match="functionality 'f' has an empty trace"):
        Functionality("f", ())


def test_rw_entries_become_two_positions():
    doc = {"functionalities": [{"name": "f", "trace": [["A", "RW"], ["B", "R"]]}]}
    (f,) = parse_accesses(json.dumps(doc))
    assert f == Functionality("f", _accesses((("A", "R"), ("A", "W"), ("B", "R"))))


# --- CLI calls that read only the columns ----------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """The number of ``Access`` objects built: every construction, a trace
    read's included, runs the checked ``__post_init__``."""
    counts = {"checked": 0}
    check = Access.__post_init__

    def counting_check(self):
        counts["checked"] += 1
        check(self)

    monkeypatch.setattr(Access, "__post_init__", counting_check)
    return counts


def _inputs(tmp_path, accesses, structure=None):
    (tmp_path / "accesses.json").write_text(accesses)
    args = ["--accesses", str(tmp_path / "accesses.json")]
    if structure is not None:
        (tmp_path / "structure.json").write_text(structure)
        args += ["--structure", str(tmp_path / "structure.json")]
    return args


def _models():
    yield FIXTURE_A_ACCESSES, None
    yield TOPIC_QUESTION_ACCESSES, TOPIC_QUESTION_STRUCTURE
    rng = random.Random(47)
    for _ in range(3):
        model = random_model(rng, max_entities=8, max_trace=30, with_structure=True)
        yield accesses_to_json(model), structure_to_json(model)


def _main(*argv):
    assert cli.main([str(a) for a in argv]) == 0


@pytest.mark.parametrize("case", range(5))
def test_column_readers_build_no_access(tmp_path, capsys, counted, case):
    accesses, structure = list(_models())[case]
    model = _inputs(tmp_path, accesses, structure)
    dec, sagas = tmp_path / "dec.json", tmp_path / "sagas.json"
    _main("decompose", *model, "-n", 2, "-o", dec)
    _main("sagas", *model, "--decomposition", dec, "-o", sagas)
    counted["checked"] = 0

    _main("decompose", *model, "-n", 2, "-o", tmp_path / "again.json")
    _main("search", *model, "--step", 0.5, "--n", "1,2", "-o", tmp_path / "best.json")
    _main("assess", *model, "--decomposition", dec, "-o", tmp_path / "assess.tsv")
    _main("to-cml", *model, "--decomposition", dec, "--sagas", sagas, "-o", tmp_path / "m.cml")
    _main("diagram", "--format", "dot", *model, "--decomposition", dec, "-o", tmp_path / "m.dot")
    capsys.readouterr()
    assert counted == {"checked": 0}


@pytest.mark.parametrize("read_first", ["trace", "steps"])
@pytest.mark.parametrize("case", range(5))
def test_saga_calls_build_no_access_and_steps_hold_the_trace_objects(
    tmp_path, capsys, counted, monkeypatch, case, read_first
):
    accesses, structure = list(_models())[case]
    model = _inputs(tmp_path, accesses, structure)
    dec = tmp_path / "dec.json"
    _main("decompose", *model, "-n", 2, "-o", dec)

    calls = []
    refactor = saga.refactor_model

    def recording(model, decomposition, policy):
        pairs = refactor(model, decomposition, policy)
        calls.append((model, decomposition, pairs))
        return pairs

    # `sagas` and `to-cml` import it from `saga` when they run.
    monkeypatch.setattr(saga, "refactor_model", recording)
    counted["checked"] = 0
    _main("sagas", *model, "--decomposition", dec, "-o", tmp_path / "sagas.json")
    _main("to-cml", *model, "--decomposition", dec, "-o", tmp_path / "model.cml")
    capsys.readouterr()
    # Taken before any trace or step is read below.
    assert counted == {"checked": 0}
    assert len(calls) == 2

    traced = 0
    for parsed, decomposition, pairs in calls:
        mapping = decomposition.assignment()
        for f, (made, _) in zip(parsed.functionalities, pairs):
            if read_first == "steps":
                for step in made.steps:
                    step.accesses
            assert check_saga(f.trace, mapping, made) == []
            traced += len(f.trace)
    # Each trace was built once, and its steps hold the same objects.
    assert counted == {"checked": traced}
