"""Trace collapsing, conflict-aware step merging, and reduction stats."""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import UNIT_WEIGHTS, random_model, random_partition, replace
from oracles import check_saga

from mono2ddd.decompose import Decomposition, decompose
from mono2ddd.errors import ContractError, SagaError
from mono2ddd.ingest import parse_accesses
from mono2ddd.model import WRITE, Access, EntityStructure, MonolithModel
from mono2ddd.saga import (
    ORCHESTRATOR_POLICIES,
    ReductionStats,
    Saga,
    Step,
    collapse_runs,
    merge_steps,
    parse_sagas,
    refactor_functionality,
    refactor_model,
    sagas_to_json,
    stats_tsv,
)


def _steps(*pairs):
    return [(cluster, [Access(e, m) for e, m in accesses]) for cluster, accesses in pairs]


def test_collapse_runs_groups_consecutive_cluster_accesses():
    trace = tuple(Access(e, m) for e, m in (("A", "R"), ("B", "W"), ("C", "R"), ("A", "W")))
    mapping = {"A": "c1", "B": "c1", "C": "c2"}
    assert collapse_runs(trace, mapping) == _steps(
        ("c1", (("A", "R"), ("B", "W"))),
        ("c2", (("C", "R"),)),
        ("c1", (("A", "W"),)),
    )


def test_collapse_runs_rejects_unmapped_entity():
    with pytest.raises(SagaError, match="not mapped"):
        collapse_runs((Access("A", "R"),), {"B": "c1"})


def test_merge_pulls_step_past_unrelated_cluster():
    merged = merge_steps(
        _steps(
            ("c1", (("A", "R"), ("B", "W"))),
            ("c2", (("C", "R"),)),
            ("c1", (("A", "W"),)),
        )
    )
    assert merged == _steps(
        ("c1", (("A", "R"), ("B", "W"), ("A", "W"))),
        ("c2", (("C", "R"),)),
    )


def test_merge_blocked_by_intervening_write():
    steps = _steps(
        ("c1", (("A", "R"),)),
        ("c2", (("A", "W"),)),
        ("c1", (("A", "W"),)),
    )
    assert merge_steps(steps) == steps


def test_merge_blocked_when_moved_write_crosses_read():
    steps = _steps(
        ("c1", (("A", "W"),)),
        ("c2", (("A", "R"),)),
        ("c1", (("A", "W"),)),
    )
    assert merge_steps(steps) == steps


def test_reads_never_block_each_other():
    merged = merge_steps(
        _steps(
            ("c1", (("A", "R"),)),
            ("c2", (("A", "R"),)),
            ("c1", (("A", "R"),)),
        )
    )
    assert merged == _steps(
        ("c1", (("A", "R"), ("A", "R"))),
        ("c2", (("A", "R"),)),
    )


def test_conflicted_alternation_is_a_fixpoint():
    steps = _steps(
        ("c1", (("A", "W"),)),
        ("c2", (("A", "W"),)),
        ("c1", (("A", "W"),)),
        ("c2", (("A", "W"),)),
    )
    assert merge_steps(steps) == steps


def test_fixture_a_reduction_stats(fixture_a, fixture_a_decomposition):
    saga, stats = refactor_functionality(fixture_a, fixture_a_decomposition, "f4")
    assert [s.cluster for s in saga.steps] == ["Cluster1", "Cluster0"]
    assert stats.clusters_touched == 2
    assert stats.cgi == 2
    assert stats.fgi == 3
    assert stats.reduction_pct == pytest.approx(1 / 3, abs=1e-9)

    saga, stats = refactor_functionality(fixture_a, fixture_a_decomposition, "f1")
    assert len(saga.steps) == 1
    assert stats.cgi == 1
    assert stats.reduction_pct == pytest.approx(2 / 3, abs=1e-9)


def test_orchestrator_policies(fixture_a, fixture_a_decomposition):
    first, _ = refactor_functionality(
        fixture_a, fixture_a_decomposition, "f4", orchestrator_policy="first"
    )
    assert first.orchestrator == "Cluster1"
    busiest, _ = refactor_functionality(
        fixture_a, fixture_a_decomposition, "f4", orchestrator_policy="max-accesses"
    )
    # Cluster0 holds two of f4's three accesses.
    assert busiest.orchestrator == "Cluster0"
    # f3 splits 1/1, so max-accesses falls back to the lexicographic least.
    tied, _ = refactor_functionality(
        fixture_a, fixture_a_decomposition, "f3", orchestrator_policy="max-accesses"
    )
    assert tied.orchestrator == "Cluster0"


def test_unknown_orchestrator_policy_rejected(fixture_a, fixture_a_decomposition):
    with pytest.raises(SagaError, match="policy"):
        refactor_functionality(
            fixture_a, fixture_a_decomposition, "f1", orchestrator_policy="last"
        )


def test_unknown_functionality_rejected(fixture_a, fixture_a_decomposition):
    with pytest.raises(SagaError, match="unknown functionality 'nope'"):
        refactor_functionality(fixture_a, fixture_a_decomposition, "nope")


def test_saga_invariants_on_random_traces():
    rng = random.Random(20240819)
    for _ in range(200):
        model = random_model(rng)
        names = list(model.entity_names())
        dec = random_partition(rng, names, rng.randint(1, min(4, len(names))))
        for functionality in model.functionalities:
            saga, stats = refactor_functionality(model, dec, functionality.name)
            violations = check_saga(functionality.trace, dec.assignment(), saga)
            assert not violations, violations
            assert stats.cgi <= stats.fgi
            assert stats.cgi >= stats.clusters_touched


def test_merge_never_increases_step_count():
    rng = random.Random(20240820)
    for _ in range(200):
        model = random_model(rng)
        names = list(model.entity_names())
        dec = random_partition(rng, names, rng.randint(1, len(names)))
        mapping = dec.assignment()
        for functionality in model.functionalities:
            raw = collapse_runs(functionality.trace, mapping)
            merged = merge_steps([(c, list(a)) for c, a in raw])
            assert len(merged) <= len(raw) <= len(functionality.trace)


def test_sagas_round_trip(fixture_a, fixture_a_decomposition):
    sagas = [s for s, _ in refactor_model(fixture_a, fixture_a_decomposition)]
    text = sagas_to_json(sagas)
    assert parse_sagas(text) == sagas
    assert sagas_to_json(parse_sagas(text)) == text


@pytest.mark.parametrize(
    "fragment",
    [
        "not json",
        '{"sagas": 3}',
        '{"sagas": [{"orchestrator": "c", "steps": []}]}',
        '{"sagas": [{"functionality": "f", "steps": [{}]}]}',
        '{"sagas": [{"functionality": "f", "orchestrator": "c", "steps": []}]}',
        '{"sagas": [{"functionality": "f", "orchestrator": "c",'
        ' "steps": [{"cluster": "c", "accesses": []}]}]}',
        '{"sagas": [{"functionality": "f", "orchestrator": "c",'
        ' "steps": [{"cluster": "c", "accesses": [["A", "X"]]}]}]}',
    ],
)
def test_parse_sagas_rejects_bad_documents(fragment):
    with pytest.raises(ContractError):
        parse_sagas(fragment)


def test_stats_tsv_format(fixture_a, fixture_a_decomposition):
    stats = [st for _, st in refactor_model(fixture_a, fixture_a_decomposition)]
    text = stats_tsv(stats)
    lines = text.splitlines()
    assert lines[0] == "name\tclusters\tCGI\tFGI\treduction%"
    assert lines[1] == "f1\t1\t1\t3\t66.67"
    assert lines[4] == "f4\t2\t2\t3\t33.33"


def _restarting_blocks(moved, intervening):
    """Literal copy of the conflict test of the restart-from-zero loop."""
    writes = {a.entity for a in moved if a.mode == WRITE}
    touched = {a.entity for a in moved}
    for a in intervening:
        if a.entity in writes:
            return True
        if a.mode == WRITE and a.entity in touched:
            return True
    return False


def _restarting_merge_steps(steps):
    """Literal copy of the loop that rescanned from step 1 after every merge."""
    steps = [(cluster, list(accesses)) for cluster, accesses in steps]
    changed = True
    while changed:
        changed = False
        for i in range(1, len(steps)):
            cluster, accesses = steps[i]
            target = None
            for j in range(i - 1, -1, -1):
                if steps[j][0] == cluster:
                    target = j
                    break
            if target is None:
                continue
            between = [a for _, acc in steps[target + 1 : i] for a in acc]
            if _restarting_blocks(accesses, between):
                continue
            steps[target][1].extend(accesses)
            del steps[i]
            collapsed = []
            for c, acc in steps:
                if collapsed and collapsed[-1][0] == c:
                    collapsed[-1][1].extend(acc)
                else:
                    collapsed.append((c, acc))
            steps = collapsed
            changed = True
            break
    return steps


def _identities(steps):
    """Steps as (cluster, access ids): equal only for the very same objects in order."""
    return [(cluster, [id(a) for a in accesses]) for cluster, accesses in steps]


def _assert_matches_restarting_loop(steps):
    before = _identities(steps)
    assert _identities(merge_steps(steps)) == _identities(_restarting_merge_steps(steps))
    assert _identities(steps) == before, "merge_steps changed its input"


def _random_steps(rng, clusters, entities, length, collapsed, modes="RW"):
    steps = []
    for _ in range(length):
        choices = clusters
        if collapsed and steps and len(clusters) > 1:
            choices = [c for c in clusters if c != steps[-1][0]]
        accesses = [
            Access(rng.choice(entities), rng.choice(modes))
            for _ in range(rng.randint(1, 4))
        ]
        steps.append((rng.choice(choices), accesses))
    return steps


def test_merge_steps_matches_restarting_loop_on_random_lists():
    rng = random.Random(20261018)
    for case in range(3000):
        clusters = [f"c{k}" for k in range(rng.randint(1, 5))]
        entities = "ABCDEF"[: rng.randint(1, 6)]
        collapsed = case % 2 == 0
        steps = _random_steps(rng, clusters, entities, rng.randint(0, 30), collapsed)
        _assert_matches_restarting_loop(steps)


def test_merge_steps_matches_restarting_loop_on_edge_shapes():
    rng = random.Random(20261019)
    for _ in range(300):
        entities = "ABC"[: rng.randint(1, 3)]
        length = rng.randint(1, 40)
        # Only writes: every shared entity conflicts.
        clusters = [f"c{k}" for k in range(rng.randint(2, 4))]
        _assert_matches_restarting_loop(
            _random_steps(rng, clusters, entities, length, rng.random() < 0.5, modes="W")
        )
        # Strict alternation between two clusters.
        alternating = [
            (f"c{i % 2}", [Access(rng.choice(entities), rng.choice("RW"))])
            for i in range(length)
        ]
        _assert_matches_restarting_loop(alternating)
        # A single cluster, given as uncollapsed steps.
        _assert_matches_restarting_loop(
            _random_steps(rng, ["c0"], entities, length, collapsed=False)
        )


def test_merge_steps_collapses_uncollapsed_input_at_the_first_merge():
    # The first merge moves C. The last two steps alone would end up apart:
    # D could move and the read of E could not. The restarting loop joins
    # them at that first merge, and the write of E then blocks the pair.
    steps = _steps(
        ("c1", (("A", "R"),)),
        ("c2", (("B", "R"),)),
        ("c1", (("C", "R"),)),
        ("c2", (("E", "W"),)),
        ("c1", (("D", "R"),)),
        ("c1", (("E", "R"),)),
    )
    _assert_matches_restarting_loop(steps)
    assert merge_steps(steps) == _steps(
        ("c1", (("A", "R"), ("C", "R"))),
        ("c2", (("B", "R"), ("E", "W"))),
        ("c1", (("D", "R"), ("E", "R"))),
    )


_ACCESSES = st.builds(Access, st.sampled_from("ABCDE"), st.sampled_from("RW"))
_STEP_LISTS = st.lists(
    st.tuples(
        st.sampled_from(("c0", "c1", "c2", "c3")),
        st.lists(_ACCESSES, min_size=1, max_size=4),
    ),
    max_size=25,
)


@settings(max_examples=300, deadline=None)
@given(_STEP_LISTS)
def test_merge_steps_property_equals_restarting_loop(steps):
    _assert_matches_restarting_loop(steps)


@pytest.mark.parametrize("policy", ORCHESTRATOR_POLICIES)
def test_refactor_model_equals_per_functionality_refactoring(policy):
    rng = random.Random(20261020)
    for _ in range(100):
        model = random_model(rng, max_trace=40)
        names = list(model.entity_names())
        dec = random_partition(rng, names, rng.randint(1, min(4, len(names))))
        assert refactor_model(model, dec, policy) == [
            refactor_functionality(model, dec, f.name, policy)
            for f in model.functionalities
        ]


def _json_dumps_sagas(sagas):
    doc = {
        "sagas": [
            {
                "functionality": s.functionality,
                "orchestrator": s.orchestrator,
                "steps": [
                    {
                        "cluster": step.cluster,
                        "accesses": [[a.entity, a.mode] for a in step.accesses],
                    }
                    for step in s.steps
                ],
            }
            for s in sagas
        ]
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Quotes, backslashes, control characters and text outside ASCII.
_AWKWARD_NAMES = (
    "A",
    'say "hi"',
    "back\\slash",
    "tab\there\n",
    "\x00\x1f\x7f",
    "\u00dcn\u00efc\u00f6d\u00e9",
    "\u540d\u524d",
    "\U0001f600",
    "\u2028",
)


def test_sagas_to_json_writes_what_json_dumps_writes():
    rng = random.Random(20261020)
    assert sagas_to_json([]) == _json_dumps_sagas([])
    for _ in range(500):
        sagas = [
            Saga(
                rng.choice(_AWKWARD_NAMES),
                rng.choice(_AWKWARD_NAMES),
                tuple(
                    Step(
                        rng.choice(_AWKWARD_NAMES),
                        tuple(
                            Access(rng.choice(_AWKWARD_NAMES), rng.choice("RW"))
                            for _ in range(rng.randint(0, 3))
                        ),
                        index,
                    )
                    for index in range(rng.randint(0, 3))
                ),
            )
            for _ in range(rng.randint(0, 3))
        ]
        assert sagas_to_json(sagas) == _json_dumps_sagas(sagas)


# --- refactoring by cluster equals the merge walk -------------------------------


def _pick_by_merged_steps(merged, policy):
    if policy == "first":
        return merged[0][0]
    counts = {}
    for cluster, accesses in merged:
        counts[cluster] = counts.get(cluster, 0) + len(accesses)
    best = max(counts.values())
    return min(c for c, n in counts.items() if n == best)


def _reference(functionality, mapping, policy):
    """The saga and stats of the merge walk: `merge_steps(collapse_runs(...))`."""
    merged = merge_steps(collapse_runs(functionality.trace, mapping))
    steps = [
        (cluster, tuple(a.entity for a in accesses), "".join(a.mode for a in accesses))
        for cluster, accesses in merged
    ]
    cgi, fgi = len(merged), len(functionality.trace)
    stats = ReductionStats(
        functionality.name, len({c for c, _ in merged}), cgi, fgi, 1.0 - cgi / fgi
    )
    return functionality.name, _pick_by_merged_steps(merged, policy), steps, stats


def _columns(saga, stats):
    for index, step in enumerate(saga.steps):
        assert step.index == index
    steps = [(step.cluster, step._entities, step._modes) for step in saga.steps]
    return saga.functionality, saga.orchestrator, steps, stats


def _assert_refactoring_matches_merge_walk(model, dec, policy):
    mapping = dec.assignment()
    expected = [_reference(f, mapping, policy) for f in model.functionalities]
    assert [_columns(*pair) for pair in refactor_model(model, dec, policy)] == expected
    for f, reference in zip(model.functionalities, expected):
        assert _columns(*refactor_functionality(model, dec, f.name, policy)) == reference


@pytest.mark.parametrize("policy", ORCHESTRATOR_POLICIES)
def test_refactoring_by_cluster_equals_the_merge_walk(policy):
    rng = random.Random(20261021)
    for _ in range(150):
        model = random_model(rng, max_entities=8, max_trace=40)
        names = list(model.entity_names())
        dec = random_partition(rng, names, rng.randint(1, len(names)))
        _assert_refactoring_matches_merge_walk(model, dec, policy)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(ORCHESTRATOR_POLICIES))
def test_refactoring_by_cluster_property_equals_the_merge_walk(rng, policy):
    model = random_model(rng, max_entities=8, max_trace=30)
    names = list(model.entity_names())
    dec = random_partition(rng, names, rng.randint(1, len(names)))
    _assert_refactoring_matches_merge_walk(model, dec, policy)


# A trace over two clusters: C holds A and B, D holds X.
_TRACE = (("A", "R"), ("X", "W"), ("B", "W"), ("A", "R"), ("X", "R"))
_STEP_C = (("A", "R"), ("B", "W"), ("A", "R"))
_STEP_C_POSITIONS = (0, 2, 3)


def _refactored(read_first):
    """A parsed functionality and the first step of its refactored saga,
    with the trace, the step's accesses, or neither read first."""
    doc = {"functionalities": [{"name": "f", "trace": [list(p) for p in _TRACE]}]}
    (functionality,) = parse_accesses(json.dumps(doc))
    model = MonolithModel(tuple(EntityStructure(e) for e in "ABX"), (functionality,))
    dec = Decomposition(UNIT_WEIGHTS, 2, (("C", ("A", "B")), ("D", ("X",))))
    saga, _ = refactor_functionality(model, dec, "f")
    step = saga.steps[0]
    if read_first == "trace":
        functionality.trace
    elif read_first == "step":
        step.accesses
    return functionality, step


_READ_ORDERS = ("trace", "step", "neither")


@pytest.mark.parametrize("read_first", _READ_ORDERS)
def test_a_refactored_step_holds_the_trace_objects(read_first):
    functionality, step = _refactored(read_first)
    accesses = step.accesses
    assert accesses is step.accesses
    assert [(a.entity, a.mode) for a in accesses] == list(_STEP_C)
    trace = functionality.trace
    assert [id(a) for a in accesses] == [id(trace[i]) for i in _STEP_C_POSITIONS]


@pytest.mark.parametrize("read_first", _READ_ORDERS)
def test_a_refactored_step_is_the_value_built_from_accesses(read_first):
    functionality, step = _refactored(read_first)
    built = Step("C", tuple(Access(e, m) for e, m in _STEP_C), 0)
    assert step == built and built == step and hash(step) == hash(built)
    assert len({step, built}) == 1
    assert step != Step("C", built.accesses, 1) and step != Step("D", built.accesses, 0)
    assert repr(step) == repr(built)


@pytest.mark.parametrize("read_first", _READ_ORDERS)
def test_a_refactored_step_pickles_and_copies(read_first):
    functionality, step = _refactored(read_first)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(step, protocol))
        assert type(clone) is Step and clone == step and hash(clone) == hash(step)
        assert repr(clone) == repr(step)
        assert clone.accesses is clone.accesses
    shallow, deep = copy.copy(step), copy.deepcopy(step)
    assert shallow == step and deep == step
    # As with a built tuple: a copy shares the accesses, a deep copy copies them.
    assert shallow.accesses is step.accesses
    trace = functionality.trace
    assert [id(a) for a in step.accesses] == [id(trace[i]) for i in _STEP_C_POSITIONS]
    assert all(a is not b for a, b in zip(deep.accesses, step.accesses))


@pytest.mark.parametrize("read_first", _READ_ORDERS)
def test_a_refactored_step_replaces_and_stays_frozen(read_first):
    _, step = _refactored(read_first)
    moved = replace(step, index=3)
    assert moved == Step("C", tuple(Access(e, m) for e, m in _STEP_C), 3)
    assert moved.accesses is step.accesses
    for name in ("cluster", "accesses", "index", "_entities", "_modes", "_built"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(step, name, None)
    assert not hasattr(step, "__dict__")
