"""The value contract of the CML nodes that the parser and refactors build.

The twelve ``Cml*`` classes are frozen, slotted records. The parser,
``merge_bounded_contexts`` and ``split_aggregate`` build them through their
own constructors, whose compiled ``__init__`` writes each slot through its
descriptor. A node they build must be the same value as one a caller
builds again from its fields: equal, with the same hash and repr, still
frozen, and surviving ``replace``, copies and pickling. Checked on every node of the golden files, of seeded
generated documents, and of the results of merging and splitting them.
"""

from __future__ import annotations

import copy
import dataclasses
import pathlib
import pickle
import random

import pytest

from helpers import random_model, random_partition

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
    emit_document,
    merge_bounded_contexts,
    parse_document,
    split_aggregate,
)
from mono2ddd.dddmap import build_ddd_model
from mono2ddd.saga import refactor_model

GOLDEN = pathlib.Path(__file__).parent / "golden"

FIELDS = {
    CmlAttribute: ("type", "name", "comments"),
    CmlReference: ("target", "name", "comments"),
    CmlEntity: ("name", "aggregate_root", "attributes", "references", "comments"),
    CmlAggregate: ("name", "entities", "comments"),
    CmlOperation: ("name", "comments"),
    CmlService: ("name", "operations", "comments"),
    CmlStep: ("context", "service", "operation", "comments"),
    CmlCoordination: ("name", "steps", "comments"),
    CmlBoundedContext: ("name", "services", "coordinations", "aggregates", "comments"),
    CmlRelationship: ("upstream", "downstream", "comments"),
    CmlContextMap: ("name", "contains", "relationships", "comments"),
    CmlDocument: ("context_map", "contexts", "trailing_comments"),
}


def nodes(value):
    """Every node in a tree, parents before children."""
    if type(value) in FIELDS:
        yield value
        for name in FIELDS[type(value)]:
            yield from nodes(getattr(value, name))
    elif type(value) is tuple:
        for item in value:
            yield from nodes(item)


def rebuild(value):
    """The same tree built again through the public constructors."""
    if type(value) in FIELDS:
        return type(value)(*(rebuild(getattr(value, name)) for name in FIELDS[type(value)]))
    if type(value) is tuple:
        return tuple(rebuild(item) for item in value)
    return value


def seeded_documents(seed: int) -> list[CmlDocument]:
    """A generated document from a seeded model, as parsed, then merged and split."""
    rng = random.Random(seed)
    model = random_model(rng, max_entities=7, with_structure=True)
    names = list(model.entity_names())
    decomposition = random_partition(rng, names, rng.randint(2, min(4, len(names))))
    sagas = [s for s, _ in refactor_model(model, decomposition)]
    doc = parse_document(emit_document(build_ddd_model(model, decomposition, sagas)))
    docs = [doc]
    a, b = doc.contexts[0].name, doc.contexts[1].name
    merged = merge_bounded_contexts(doc, a, b)
    docs.append(merged)
    for ctx in merged.contexts:
        local = [e.name for e in ctx.entities if not e.is_reference]
        if len(ctx.aggregates) == 1 and len(local) >= 2:
            refs = [e.name for e in ctx.entities if e.is_reference]
            parts = [local[:1] + refs, local[1:]]
            docs.append(split_aggregate(merged, ctx.name, parts))
            break
    return docs


DOCUMENTS = [
    pytest.param(parse_document((GOLDEN / name).read_text()), id=name)
    for name in ("fixture_a.cml", "topic_question.cml")
] + [
    pytest.param(doc, id=f"seed{seed}-{i}")
    for seed in range(6)
    for i, doc in enumerate(seeded_documents(seed))
]


def test_documents_hold_every_node_class():
    seen = {type(node) for param in DOCUMENTS for node in nodes(param.values[0])}
    assert seen == set(FIELDS)
    assert any(len(param.values[0].contexts) > 1 and param.id.startswith("seed")
               for param in DOCUMENTS)


@pytest.mark.parametrize("doc", DOCUMENTS)
def test_built_nodes_equal_public_constructor_nodes(doc):
    again = rebuild(doc)
    assert again == doc
    assert emit_document(again) == emit_document(doc)
    for node, other in zip(nodes(doc), nodes(again)):
        assert type(node) is type(other)
        assert node == other and not node != other
        assert hash(node) == hash(other)
        assert repr(node) == repr(other)
        assert other is not node


@pytest.mark.parametrize("doc", DOCUMENTS)
def test_built_nodes_keep_the_dataclass_contract(doc):
    for node in nodes(doc):
        cls = type(node)
        names = FIELDS[cls]
        assert tuple(f.name for f in dataclasses.fields(node)) == names
        assert cls.__slots__ == names
        assert not hasattr(node, "__dict__")
        assert dataclasses.astuple(node) == dataclasses.astuple(rebuild(node))
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, getattr(node, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, name)
        # A name that is no field is refused too; on 3.10 and 3.11 the frozen
        # ``__setattr__`` of a slotted class raises TypeError for it.
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            node.extra = 1

        same = dataclasses.replace(node)
        assert same == node and same is not node
        changed = dataclasses.replace(node, **{names[-1]: ("changed",)})
        assert changed == cls(*(getattr(node, n) for n in names[:-1]), ("changed",))
        assert changed != node

        for clone in (copy.copy(node), copy.deepcopy(node)):
            assert clone == node and type(clone) is cls
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(node, protocol))
            assert clone == node and type(clone) is cls and hash(clone) == hash(node)
