"""`cml merge` and `cml split` against literal copies of their predecessors.

The merge now keeps every node it does not change (the same object as in
the input) and rebuilds only the rest, and split replaces only the
entities whose root flag moves. The copies below are both functions as
they were before that, when they rebuilt every entity, reference,
coordination and context. On generated documents and on random documents
built to reach every branch (placeholders with and without their
comment, duplicate relationships and services, one-step coordinations,
runs of same-context steps in unrelated contexts), both must give equal
trees or the same error. The merge copy also has the merge's later refusal
of two contexts that both hold a real entity of one name, because the
random documents often repeat a name across contexts, and the split copy
has split's later refusal of an aggregate that lists one entity twice,
which the random documents also hold.
"""

from __future__ import annotations

import random

from helpers import random_ddd_model, replace

from mono2ddd.cml import (
    REFERENCE_COMMENT,
    REFERENCE_SUFFIX,
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
    _reference_target,
    emit_document,
    external_share,
    merge_bounded_contexts,
    split_aggregate,
)
from mono2ddd.errors import RefactorError


def _old_merge(doc: CmlDocument, a: str, b: str) -> CmlDocument:
    """Fuse two contexts into one named ``<a>_<b>``.

    Reference placeholders whose target becomes local collapse into direct
    references; relationships between the pair disappear; coordination steps
    are re-addressed, and runs of now-same-context steps become one step
    whose operation is the concatenation of the run's operation names.
    Coordinations reduced to a single step are demoted to plain operations.
    Two contexts that each hold a real entity of one name are refused.
    """
    if a == b:
        raise RefactorError("cannot merge a context with itself")
    ctx_a = doc.context(a)
    ctx_b = doc.context(b)
    merged_name = f"{a}_{b}"
    if any(c.name == merged_name for c in doc.contexts):
        raise RefactorError(f"context {merged_name!r} already exists")

    local_a = {e.name for agg in ctx_a.aggregates for e in agg.entities if not e.is_reference}
    local_b = {e.name for agg in ctx_b.aggregates for e in agg.entities if not e.is_reference}
    shared = sorted(local_a & local_b)
    if shared:
        raise RefactorError(
            f"context {merged_name!r} would have two entities named {shared[0]!r}, "
            f"one from {a!r} and one from {b!r}"
        )
    local_entities = local_a | local_b

    # Collapse placeholders whose target is now local; dedupe survivors.
    aggregates: list[CmlAggregate] = []
    agg_names: set[str] = set()
    seen_placeholders: set[str] = set()
    for ctx in (ctx_a, ctx_b):
        for agg in ctx.aggregates:
            entities = []
            renames: dict[str, str] = {}
            for e in agg.entities:
                if e.is_reference:
                    target = _reference_target(e)
                    if target in local_entities:
                        renames[e.name] = target
                        continue
                    if e.name in seen_placeholders:
                        renames[e.name] = e.name
                        continue
                    seen_placeholders.add(e.name)
                entities.append(e)
            entities = [
                replace(
                    e,
                    references=tuple(
                        replace(r, target=renames.get(r.target, r.target))
                        for r in e.references
                    ),
                )
                for e in entities
            ]
            name = agg.name
            suffix = 2
            while name in agg_names:
                name = f"{agg.name}_{suffix}"
                suffix += 1
            agg_names.add(name)
            aggregates.append(replace(agg, name=name, entities=tuple(entities)))

    # Placeholder collapses can leave renames dangling across aggregates of
    # the merged context, so rewrite every aggregate against the final map.
    final_names = {e.name for agg in aggregates for e in agg.entities}
    aggregates = [
        replace(
            agg,
            entities=tuple(
                replace(
                    e,
                    references=tuple(
                        replace(
                            r,
                            target=r.target
                            if r.target in final_names
                            else _old_collapse_target(r.target, final_names),
                        )
                        for r in e.references
                    ),
                )
                for e in agg.entities
            ),
        )
        for agg in aggregates
    ]

    old_names = {a, b}

    def readdress(step: CmlStep) -> CmlStep:
        if step.context in old_names:
            return replace(step, context=merged_name)
        return step

    # First pass over every coordination: re-address, collapse runs, demote
    # one-step survivors. Operations created by collapses or demotions are
    # only requested here; services are patched in the assembly pass.
    wanted_ops: list[tuple[str, str, str]] = []
    new_coordinations: dict[str, list[CmlCoordination]] = {}
    for ctx in doc.contexts:
        if ctx.name == b:
            continue
        if ctx.name == a:
            coordinations = list(ctx_a.coordinations) + list(ctx_b.coordinations)
        else:
            coordinations = list(ctx.coordinations)

        kept = []
        for coordination in coordinations:
            collapsed: list[CmlStep] = []
            joined: set[int] = set()
            for step in map(readdress, coordination.steps):
                if collapsed and collapsed[-1].context == step.context:
                    prev = collapsed[-1]
                    collapsed[-1] = replace(
                        prev, operation=f"{prev.operation}_{step.operation}"
                    )
                    joined.add(len(collapsed) - 1)
                else:
                    collapsed.append(step)
            for idx in sorted(joined):
                s = collapsed[idx]
                wanted_ops.append((s.context, s.service, s.operation))
            if len(collapsed) == 1:
                only = collapsed[0]
                wanted_ops.append((only.context, only.service, only.operation))
                continue
            kept.append(replace(coordination, steps=tuple(collapsed)))
        new_coordinations[ctx.name] = kept

    def patch_services(
        ctx_name: str, services: tuple[CmlService, ...]
    ) -> tuple[CmlService, ...]:
        patched = list(services)
        for target_ctx, service_name, op_name in wanted_ops:
            if target_ctx != ctx_name:
                continue
            for idx, s in enumerate(patched):
                if s.name == service_name and all(
                    op.name != op_name for op in s.operations
                ):
                    patched[idx] = replace(
                        s, operations=s.operations + (CmlOperation(op_name),)
                    )
        return tuple(patched)

    all_contexts = []
    for ctx in doc.contexts:
        if ctx.name == b:
            continue
        if ctx.name == a:
            all_contexts.append(
                CmlBoundedContext(
                    merged_name,
                    patch_services(
                        merged_name, tuple(ctx_a.services) + tuple(ctx_b.services)
                    ),
                    tuple(new_coordinations[a]),
                    tuple(aggregates),
                    ctx_a.comments + ctx_b.comments,
                )
            )
        else:
            all_contexts.append(
                replace(
                    ctx,
                    services=patch_services(ctx.name, ctx.services),
                    coordinations=tuple(new_coordinations[ctx.name]),
                )
            )

    context_map = doc.context_map
    if context_map is not None:
        contains = []
        for name in context_map.contains:
            target = merged_name if name in old_names else name
            if target not in contains:
                contains.append(target)
        rels: list[CmlRelationship] = []
        for rel in context_map.relationships:
            if rel.upstream in old_names and rel.downstream in old_names:
                continue
            up = merged_name if rel.upstream in old_names else rel.upstream
            down = merged_name if rel.downstream in old_names else rel.downstream
            for existing_idx, existing in enumerate(rels):
                if existing.upstream == up and existing.downstream == down:
                    rels[existing_idx] = replace(
                        existing, comments=existing.comments + rel.comments
                    )
                    break
            else:
                rels.append(replace(rel, upstream=up, downstream=down))
        context_map = replace(
            context_map, contains=tuple(contains), relationships=tuple(rels)
        )

    return CmlDocument(context_map, tuple(all_contexts), doc.trailing_comments)


def _old_collapse_target(target: str, final_names: set[str]) -> str:
    if target.endswith(REFERENCE_SUFFIX):
        direct = target[: -len(REFERENCE_SUFFIX)]
        if direct in final_names:
            return direct
    return target



def _old_split(
    doc: CmlDocument, context_name: str, partition: list[list[str]]
) -> CmlDocument:
    """Replace a context's single aggregate by one aggregate per part.

    Parts are named ``<aggregate>_1``, ``<aggregate>_2``, ... in partition
    order; each part's root is the entity with the highest external-access
    share from the stats comments (ties by name). References between parts
    stay valid because both parts remain in the same context.
    """
    ctx = doc.context(context_name)
    if len(ctx.aggregates) != 1:
        raise RefactorError(
            f"context {context_name!r} has {len(ctx.aggregates)} aggregates; "
            "split requires exactly one"
        )
    aggregate = ctx.aggregates[0]
    by_name = {e.name: e for e in aggregate.entities}
    # An entity listed twice would lose one of its copies to ``by_name``.
    for i, e in enumerate(aggregate.entities):
        if any(other.name == e.name for other in aggregate.entities[:i]):
            raise RefactorError(f"aggregate {aggregate.name!r} lists entity {e.name!r} twice")

    if not partition or any(not part for part in partition):
        raise RefactorError("every part of the partition must be non-empty")
    claimed: list[str] = [name for part in partition for name in part]
    if len(claimed) != len(set(claimed)):
        raise RefactorError("partition parts overlap")
    if set(claimed) != set(by_name):
        missing = sorted(set(by_name) - set(claimed))
        extra = sorted(set(claimed) - set(by_name))
        details = []
        if missing:
            details.append(f"missing: {', '.join(missing)}")
        if extra:
            details.append(f"not in aggregate: {', '.join(extra)}")
        raise RefactorError(f"partition does not cover the aggregate ({'; '.join(details)})")

    new_aggregates = []
    for i, part in enumerate(partition, start=1):
        entities = [by_name[name] for name in part]
        candidates = [e for e in entities if not e.is_reference]
        if not candidates:
            raise RefactorError(
                f"part {i} has only reference placeholders; no root candidate"
            )
        root = min(candidates, key=lambda e: (-external_share(e), e.name)).name
        entities = [
            replace(e, aggregate_root=e.name == root) for e in entities
        ]
        new_aggregates.append(
            CmlAggregate(f"{aggregate.name}_{i}", tuple(entities), aggregate.comments)
        )

    new_ctx = replace(ctx, aggregates=tuple(new_aggregates))
    contexts = tuple(new_ctx if c.name == context_name else c for c in doc.contexts)
    return CmlDocument(doc.context_map, contexts, doc.trailing_comments)


_CONTEXTS = ("A", "B", "C", "D")
_ENTITIES = ("E0", "E1", "E2", "E3")


def _comments(rng):
    return tuple(f"c{rng.randrange(9)}" for _ in range(rng.choice((0, 0, 0, 1, 2))))


def _entity(rng, context_names):
    base = rng.choice(_ENTITIES)
    if rng.random() < 0.3:
        # A placeholder: found by its comment, or by its suffix alone.
        if rng.random() < 0.5:
            source = rng.choice(context_names)
            return CmlEntity(base + REFERENCE_SUFFIX, comments=(f"{REFERENCE_COMMENT} {source}.{base}",))
        return CmlEntity(base + REFERENCE_SUFFIX)
    targets = _ENTITIES + tuple(e + REFERENCE_SUFFIX for e in _ENTITIES)
    references = tuple(
        CmlReference(rng.choice(targets), f"r{k}", _comments(rng))
        for k in range(rng.randint(0, 2))
    )
    attributes = tuple(CmlAttribute("String", f"a{k}") for k in range(rng.randint(0, 1)))
    share = rng.randrange(0, 101)
    stats = (
        f"accesses: external {share}.00% ({share}/100), local {100 - share}.00% ({100 - share}/100)",
    )
    return CmlEntity(base, rng.random() < 0.5, attributes, references, stats if rng.random() < 0.7 else ())


def _random_document(rng):
    """Small documents that reach every branch of merge and split, duplicates included."""
    names = [rng.choice(_CONTEXTS) for _ in range(rng.randint(2, 5))]
    contexts = []
    for name in names:
        services = tuple(
            CmlService(
                rng.choice(("S", "T")),
                tuple(CmlOperation(rng.choice(("op", "x", "op_x"))) for _ in range(rng.randint(0, 2))),
                _comments(rng),
            )
            for _ in range(rng.randint(0, 2))
        )
        coordinations = tuple(
            CmlCoordination(
                f"K{rng.randrange(4)}",
                tuple(
                    CmlStep(rng.choice(names + ["Z"]), rng.choice(("S", "T")), rng.choice(("op", "x")), _comments(rng))
                    for _ in range(rng.randint(0, 4))
                ),
                _comments(rng),
            )
            for _ in range(rng.randint(0, 3))
        )
        aggregates = tuple(
            CmlAggregate(
                rng.choice(("Agg", "Other")),
                tuple(_entity(rng, names) for _ in range(rng.randint(0, 4))),
                _comments(rng),
            )
            for _ in range(rng.randint(0, 2))
        )
        contexts.append(CmlBoundedContext(name, services, coordinations, aggregates, _comments(rng)))
    context_map = None
    if rng.random() < 0.8:
        relationships = tuple(
            CmlRelationship(rng.choice(names), rng.choice(names), _comments(rng))
            for _ in range(rng.randint(0, 6))
        )
        contains = tuple(rng.choice(names) for _ in range(rng.randint(0, 5)))
        context_map = CmlContextMap("M", contains, relationships, _comments(rng))
    return CmlDocument(context_map, tuple(contexts), _comments(rng))


def _outcome(refactor, *args):
    try:
        return refactor(*args)
    except RefactorError as exc:
        return str(exc)


def _by_name(doc):
    """Contexts, coordinations, entities and relationships under their names."""
    nodes = {}
    for ctx in doc.contexts:
        nodes["ctx", ctx.name] = ctx
        for coordination in ctx.coordinations:
            nodes["coordination", coordination.name] = coordination
        for agg in ctx.aggregates:
            for entity in agg.entities:
                nodes["entity", ctx.name, entity.name] = entity
    for rel in doc.context_map.relationships:
        nodes["rel", rel.upstream, rel.downstream] = rel
    return nodes


def _assert_unchanged_nodes_shared(doc, merged, a, b):
    """A node the merge left equal to its input is the input's object."""
    before = _by_name(doc)
    for key, node in _by_name(merged).items():
        if key[0] == "entity" and key[1] == f"{a}_{b}":
            sources = [before.get(("entity", a, key[2])), before.get(("entity", b, key[2]))]
        else:
            sources = [before.get(key)]
        equal = [source for source in sources if source == node]
        if equal:
            assert any(source is node for source in equal), node


def test_merge_matches_the_rebuild_everything_copy():
    rng = random.Random(20261020)
    merged_count = 0
    for _ in range(3_000):
        doc = _random_document(rng)
        names = [c.name for c in doc.contexts] + ["Nope"]
        a, b = rng.choice(names), rng.choice(names)
        new = _outcome(merge_bounded_contexts, doc, a, b)
        assert new == _outcome(_old_merge, doc, a, b), (doc, a, b)
        merged_count += isinstance(new, CmlDocument)
    # Both outcomes must come up often: a merged tree and a refused merge.
    assert 600 < merged_count < 2_400


def test_merge_chain_matches_the_copy_on_generated_documents():
    rng = random.Random(20261021)
    for _ in range(30):
        doc = random_ddd_model(rng, max_contexts=6)
        old = doc
        while len(doc.contexts) > 1:
            a, b = rng.sample([c.name for c in doc.contexts], 2)
            merged = merge_bounded_contexts(doc, a, b)
            old = _old_merge(old, a, b)
            assert merged == old
            _assert_unchanged_nodes_shared(doc, merged, a, b)
            doc = merged
            assert emit_document(doc) == emit_document(old)


def test_split_matches_the_copy():
    rng = random.Random(20261022)
    split_count = 0
    for _ in range(3_000):
        doc = _random_document(rng)
        ctx = rng.choice(doc.contexts)
        entities = [e.name for agg in ctx.aggregates for e in agg.entities]
        rng.shuffle(entities)
        cuts = sorted(rng.sample(range(1, len(entities)), min(2, max(0, len(entities) - 1))))
        partition = [entities[i:j] for i, j in zip([0] + cuts, cuts + [len(entities)])]
        new = _outcome(split_aggregate, doc, ctx.name, partition)
        assert new == _outcome(_old_split, doc, ctx.name, partition), (doc, partition)
        split_count += isinstance(new, CmlDocument)
    assert split_count > 100
