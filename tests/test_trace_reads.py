"""Trace values and the trace readers against literal copies of the checked loops.

`parse_accesses` and `parse_sagas` build each well-shaped entry straight from
its checked fields and send every other entry through the full checks;
`_criteria` reads the pairs' ratios from one index of the traces. These
tests hold copies of the readers and of `_criteria` as they were before,
entry-by-entry checks and one `_accessors` walk per mode, and require the
same results, or the same error with the same message and location, on
seeded valid documents, on the fuzzer's near-valid documents and on
hand-picked bad entries.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import json
import pickle
import random

import pytest
from hypothesis import given

from helpers import random_model, random_partition, replace
from oracles import check_saga
from test_fuzz import _ACCESSES, _FUZZ, _SAGAS
from test_search import tied_model

from mono2ddd.errors import ContractError
from mono2ddd.ingest import parse_accesses, parse_model
from mono2ddd.model import READ, WRITE, Access, Functionality, MonolithModel
from mono2ddd.saga import Saga, Step, parse_sagas, refactor_model

# `mono2ddd.decompose` as an attribute is the function, not the module.
decompose_module = importlib.import_module("mono2ddd.decompose")

BAD_ENTRIES = [
    "AR",
    ["A"],
    ["A", "R", "x"],
    [1, "R"],
    ["", "R"],
    ["A", "X"],
    ["A", None],
    [["A"], "R"],
]


# --- literal copies of the readers before the fast path -----------------------


def _require(obj, kind, location):
    if not isinstance(obj, kind):
        raise ContractError(f"expected {kind.__name__}, got {type(obj).__name__}", location)
    return obj


def old_parse_accesses(text: str) -> list[Functionality]:
    """Parse an accesses document into functionalities, preserving order."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # syntax, nesting depth or integer size
        raise ContractError(f"malformed JSON: {exc}") from exc
    _require(doc, dict, "$")
    items = _require(doc.get("functionalities", None), list, "functionalities")

    result: list[Functionality] = []
    seen: dict[str, int] = {}
    for i, raw in enumerate(items):
        loc = f"functionalities[{i}]"
        _require(raw, dict, loc)
        name = _require(raw.get("name", None), str, f"{loc}.name")
        if not name:
            raise ContractError("empty functionality name", f"{loc}.name")
        if name in seen:
            raise ContractError(
                f"duplicate functionality name {name!r} (first at functionalities[{seen[name]}])",
                loc,
            )
        seen[name] = i
        raw_trace = _require(raw.get("trace", None), list, f"{loc}.trace")
        if not raw_trace:
            raise ContractError("empty trace", f"{loc}.trace")
        trace: list[Access] = []
        for j, entry in enumerate(raw_trace):
            eloc = f"{loc}.trace[{j}]"
            _require(entry, list, eloc)
            if len(entry) != 2:
                raise ContractError("trace entry must be [entity, mode]", eloc)
            entity, mode = entry
            _require(entity, str, eloc)
            _require(mode, str, eloc)
            if not entity:
                raise ContractError("empty entity name", eloc)
            if mode == "RW":
                trace.append(Access(entity, "R"))
                trace.append(Access(entity, "W"))
            elif mode in ("R", "W"):
                trace.append(Access(entity, mode))
            else:
                raise ContractError(f"unknown access mode {mode!r}", eloc)
        result.append(Functionality(name, tuple(trace)))
    return result


def old_parse_sagas(text: str) -> list[Saga]:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # syntax, nesting depth or integer size
        raise ContractError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("sagas", None), list):
        raise ContractError("sagas document must have a 'sagas' list")
    result = []
    for i, raw in enumerate(doc["sagas"]):
        loc = f"sagas[{i}]"
        if not isinstance(raw, dict):
            raise ContractError("saga must be an object", loc)
        name = raw.get("functionality")
        orchestrator = raw.get("orchestrator")
        raw_steps = raw.get("steps")
        if not isinstance(name, str) or not name:
            raise ContractError("missing functionality name", loc)
        if not isinstance(orchestrator, str) or not orchestrator:
            raise ContractError("missing orchestrator", loc)
        if not isinstance(raw_steps, list) or not raw_steps:
            raise ContractError("missing steps", loc)
        steps = []
        for j, rs in enumerate(raw_steps):
            sloc = f"{loc}.steps[{j}]"
            if not isinstance(rs, dict) or not isinstance(rs.get("cluster"), str):
                raise ContractError("step must name a cluster", sloc)
            accesses = []
            raw_accesses = rs.get("accesses")
            if not isinstance(raw_accesses, list) or not raw_accesses:
                raise ContractError("step must list accesses", sloc)
            for entry in raw_accesses:
                if (
                    not isinstance(entry, list)
                    or len(entry) != 2
                    or not all(isinstance(x, str) for x in entry)
                ):
                    raise ContractError("access must be [entity, mode]", sloc)
                try:
                    accesses.append(Access(entry[0], entry[1]))
                except ValueError as exc:
                    raise ContractError(str(exc), sloc) from exc
            steps.append(Step(rs["cluster"], tuple(accesses), j))
        result.append(Saga(name, orchestrator, tuple(steps)))
    return result


# --- literal copy of the criteria before the one-walk rewrite -----------------


def _accessors(model: MonolithModel, mode: str | None = None) -> dict[str, set[str]]:
    table: dict[str, set[str]] = {e: set() for e in model.entity_names()}
    for f in model.functionalities:
        for a in f.trace:
            if mode is None or a.mode == mode:
                table.setdefault(a.entity, set()).add(f.name)
    return table


def old_criteria(model: MonolithModel):
    """Compute the four similarity criteria of every entity pair once.

    Each pair is ``(e1, e2, a12, w12, r12, a21, w21, r21, s)``.
    """
    entities = model.entity_names()
    acc = _accessors(model)
    wr = _accessors(model, WRITE)
    rd = _accessors(model, READ)

    pair_counts: dict[tuple[str, str], int] = {}
    for f in model.functionalities:
        for prev, cur in zip(f.trace, f.trace[1:]):
            if prev.entity != cur.entity:
                key = (min(prev.entity, cur.entity), max(prev.entity, cur.entity))
                pair_counts[key] = pair_counts.get(key, 0) + 1
    max_pair = max(pair_counts.values(), default=0)

    def ratio(shared: set[str], base: set[str]) -> float:
        if not base:
            return 0.0
        return len(shared & base) / len(base)

    pairs = []
    for i, e1 in enumerate(entities):
        for e2 in entities[i + 1 :]:
            follows = pair_counts.get((min(e1, e2), max(e1, e2)), 0)
            pairs.append(
                (
                    e1,
                    e2,
                    ratio(acc[e2], acc[e1]),
                    ratio(wr[e2], wr[e1]),
                    ratio(rd[e2], rd[e1]),
                    ratio(acc[e1], acc[e2]),
                    ratio(wr[e1], wr[e2]),
                    ratio(rd[e1], rd[e2]),
                    follows / max_pair if max_pair else 0.0,
                )
            )
    return pairs


# --- documents ----------------------------------------------------------------

ENTITIES = ["A", "B", "C", "D", "E"]


def _trace_entries(rng: random.Random, modes: str) -> list[list[str]]:
    return [
        [rng.choice(ENTITIES), rng.choice(modes)] for _ in range(rng.randint(1, 12))
    ]


def accesses_doc(rng: random.Random) -> dict:
    return {
        "functionalities": [
            {"name": f"f{i}", "trace": _trace_entries(rng, ("R", "W", "RW"))}
            for i in range(rng.randint(1, 5))
        ]
    }


def sagas_doc(rng: random.Random) -> dict:
    return {
        "sagas": [
            {
                "functionality": f"f{i}",
                "orchestrator": f"Cluster{rng.randrange(3)}",
                "steps": [
                    {"cluster": f"Cluster{j}", "accesses": _trace_entries(rng, "RW")}
                    for j in range(rng.randint(1, 4))
                ],
            }
            for i in range(rng.randint(1, 4))
        ]
    }


def _with_bad_entry(rng: random.Random, doc: dict, entry) -> str:
    """``doc`` as JSON with ``entry`` put at a random position of a random trace."""
    if "functionalities" in doc:
        entries = rng.choice(doc["functionalities"])["trace"]
    else:
        entries = rng.choice(rng.choice(doc["sagas"])["steps"])["accesses"]
    entries.insert(rng.randint(0, len(entries)), entry)
    return json.dumps(doc)


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except ContractError as exc:
        return "error", (type(exc), str(exc), exc.location)


def assert_same_outcome(new, old, text):
    got, expected = _outcome(new, text), _outcome(old, text)
    assert got == expected
    return got


def _traces(kind, parsed):
    if kind == "accesses":
        return [f.trace for f in parsed]
    return [step.accesses for saga in parsed for step in saga.steps]


def assert_one_object_per_position(kind, parsed):
    for trace in _traces(kind, parsed):
        assert len({id(a) for a in trace}) == len(trace)


READERS = {
    "accesses": (parse_accesses, old_parse_accesses, accesses_doc),
    "sagas": (parse_sagas, old_parse_sagas, sagas_doc),
}
# A saga step holds single accesses, so "RW" is a bad mode there.
BAD_CASES = [(kind, entry) for kind in READERS for entry in BAD_ENTRIES]
BAD_CASES.append(("sagas", ["A", "RW"]))


# --- reader tests -------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(READERS))
def test_readers_match_the_checked_loops_on_valid_documents(kind):
    new, old, make = READERS[kind]
    rng = random.Random(20261018)
    for _ in range(300):
        status, parsed = assert_same_outcome(new, old, json.dumps(make(rng)))
        assert status == "ok"
        assert_one_object_per_position(kind, parsed)


@pytest.mark.parametrize(("kind", "entry"), BAD_CASES, ids=json.dumps)
def test_readers_report_bad_entries_as_before(kind, entry):
    new, old, make = READERS[kind]
    rng = random.Random(json.dumps(entry))
    for _ in range(20):
        status, _ = assert_same_outcome(new, old, _with_bad_entry(rng, make(rng), entry))
        assert status == "error"


@_FUZZ
@given(_ACCESSES)
def test_accesses_reader_matches_the_checked_loop_on_fuzzed_documents(text):
    status, parsed = assert_same_outcome(parse_accesses, old_parse_accesses, text)
    if status == "ok":
        assert_one_object_per_position("accesses", parsed)


@_FUZZ
@given(_SAGAS)
def test_sagas_reader_matches_the_checked_loop_on_fuzzed_documents(text):
    status, parsed = assert_same_outcome(parse_sagas, old_parse_sagas, text)
    if status == "ok":
        assert_one_object_per_position("sagas", parsed)


def test_sagas_from_a_parsed_model_pass_the_identity_oracle():
    # check_saga follows trace accesses by id(); one shared object per
    # (entity, mode) would fail it.
    rng = random.Random(11)
    for _ in range(100):
        model = parse_model(json.dumps(accesses_doc(rng)))
        names = list(model.entity_names())
        dec = random_partition(rng, names, rng.randint(1, len(names)))
        mapping = dec.assignment()
        for f, (saga, _) in zip(model.functionalities, refactor_model(model, dec)):
            assert check_saga(f.trace, mapping, saga) == []


# --- Access values ------------------------------------------------------------


def _read_access(entity: str, mode: str) -> Access:
    """The ``Access`` a first read of a parsed trace builds for one entry."""
    doc = {"functionalities": [{"name": "f", "trace": [[entity, mode]]}]}
    (f,) = parse_accesses(json.dumps(doc))
    (access,) = f.trace
    return access


@pytest.mark.parametrize(("entity", "mode"), [("A", "R"), ("Order_Line", "W")])
def test_built_access_is_the_validated_value(entity, mode):
    built, checked = _read_access(entity, mode), Access(entity, mode)
    assert type(built) is Access
    assert built == checked
    assert hash(built) == hash(checked)
    assert repr(built) == repr(checked) == f"Access(entity={entity!r}, mode={mode!r})"
    assert _read_access(entity, mode) is not built
    assert not hasattr(built, "__dict__")


def test_access_survives_pickle_copy_and_replace():
    a = _read_access("A", "R")
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert clone == a and type(clone) is Access
    assert replace(a, mode="W") == Access("A", "W")
    with pytest.raises(ValueError):
        replace(a, mode="X")


def test_access_stays_frozen_and_checked():
    a = _read_access("A", "R")
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.entity = "B"
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.mode = "W"
    with pytest.raises(ValueError, match="non-empty"):
        Access("", "R")
    with pytest.raises(ValueError, match="unknown access mode 'X'"):
        Access("A", "X")


# --- criteria -----------------------------------------------------------------


def _criteria_models():
    for seed in range(60):
        rng = random.Random(seed)
        yield random_model(rng, max_entities=9, max_functionalities=8, max_trace=14)
        yield tied_model(rng)
    rng = random.Random(60)
    for _ in range(20):
        yield parse_model(json.dumps(accesses_doc(rng)))

def test_criteria_match_the_accessor_tables_exactly():
    for model in _criteria_models():
        index = decompose_module._index(model)
        names = index.names
        pairs = [(names[i], names[j], *ratios) for i, j, *ratios in decompose_module._criteria(index)]
        assert repr(pairs) == repr(old_criteria(model))
