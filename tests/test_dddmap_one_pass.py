"""The one-pass mapping against a literal copy of the two-pass one.

`build_ddd_model` resolves each cross-context reference while it builds the
context that holds it. Before, `map_decomposition` built a document whose
references could cross contexts, and `resolve_references` rebuilt every
entity, aggregate and context to point those references at placeholders
and to derive the context map's relationships. The copies below are those
two functions as they were. On every drawn input both paths must emit the
same bytes or raise the same error with the same message.
"""

from __future__ import annotations

import random

import pytest

from helpers import random_model, random_partition, replace

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
    emit_document,
    stats_comment,
)
from mono2ddd.dddmap import (
    DEFAULT_MAP_NAME,
    NAMING_HEURISTICS,
    _saga_accesses,
    build_ddd_model,
    elect_root,
    name_operation,
)
from mono2ddd.decompose import Decomposition
from mono2ddd.errors import MappingError
from mono2ddd.model import (
    Access,
    EntityStructure,
    Functionality,
    MonolithModel,
    Reference,
)
from mono2ddd.saga import ORCHESTRATOR_POLICIES, Saga, refactor_model

# --- literal copies of the two-pass mapping ---------------------------------------


def old_map_decomposition(
    model: MonolithModel,
    decomposition: Decomposition,
    sagas: list[Saga],
    naming: str = "full-trace",
    map_name: str = DEFAULT_MAP_NAME,
) -> CmlDocument:
    """Build the raw document; references may still cross contexts.

    A reference keeps its target and field; the document has no reference
    kinds, so an inheritance reference becomes a plain one.

    Run resolve_references (or use build_ddd_model) to replace cross-context
    references with placeholders and derive the context map relationships.
    """
    if naming not in NAMING_HEURISTICS:
        raise MappingError(f"unknown naming heuristic {naming!r}")
    known = {f.name for f in model.functionalities}
    saga_names: set[str] = set()
    for saga in sagas:
        if saga.functionality not in known:
            raise MappingError(
                f"saga {saga.functionality!r} is for a functionality the model does not have"
            )
        if saga.functionality in saga_names:
            raise MappingError(f"functionality {saga.functionality!r} has more than one saga")
        saga_names.add(saga.functionality)
    missing = [f.name for f in model.functionalities if f.name not in saga_names]
    if missing:
        raise MappingError(f"sagas missing for functionalities: {', '.join(missing)}")

    # Operation names per context, in first-seen order.
    operations: dict[str, dict[str, None]] = {name: {} for name, _ in decomposition.clusters}
    coordinations: dict[str, list[CmlCoordination]] = {
        name: [] for name, _ in decomposition.clusters
    }
    for saga in sagas:
        steps = []
        for step in saga.steps:
            if step.cluster not in operations:
                raise MappingError(
                    f"saga {saga.functionality!r} references unknown cluster {step.cluster!r}"
                )
            op_name = name_operation(saga.functionality, step.index, step.accesses, naming)
            operations[step.cluster][op_name] = None
            steps.append(CmlStep(step.cluster, f"{step.cluster}Service", op_name))
        if saga.orchestrator not in coordinations:
            raise MappingError(
                f"saga {saga.functionality!r} names unknown orchestrator {saga.orchestrator!r}"
            )
        if len(saga.steps) > 1:
            coordinations[saga.orchestrator].append(
                CmlCoordination(saga.functionality, tuple(steps))
            )

    structures = {e.name: e for e in model.entities}
    external_accesses, local_accesses = _saga_accesses(sagas)
    contexts = []
    for name, members in decomposition.clusters:
        counts = {m: (external_accesses.get(m, 0), local_accesses.get(m, 0)) for m in members}
        external_total = sum(external for external, _ in counts.values())
        local_total = sum(local for _, local in counts.values())
        root = elect_root(
            {
                m: external / external_total if external_total else 0.0
                for m, (external, _) in counts.items()
            }
        )
        entities = []
        for member, (external, local) in counts.items():
            structure = structures[member]
            entities.append(
                CmlEntity(
                    member,
                    member == root,
                    tuple(CmlAttribute(a.type, a.name) for a in structure.attributes),
                    tuple(CmlReference(r.target, r.field) for r in structure.references),
                    (stats_comment(external, external_total, local, local_total),),
                )
            )
        contexts.append(
            CmlBoundedContext(
                name,
                (CmlService(f"{name}Service", tuple(map(CmlOperation, operations[name]))),),
                tuple(coordinations[name]),
                (CmlAggregate(f"{name}Aggregate", tuple(entities)),),
            )
        )
    context_map = CmlContextMap(map_name, tuple(name for name, _ in decomposition.clusters))
    return CmlDocument(context_map, tuple(contexts))


def old_resolve_references(doc: CmlDocument) -> CmlDocument:
    """Replace cross-context entity references with local placeholders.

    Each distinct outer target gets one ``<Target>_Reference`` entity per
    referencing context, appended to the context's last aggregate, and the
    owner context becomes upstream of the referencer. The relationships of
    the context map, which a document from map_decomposition always has,
    are rebuilt from these references. A placeholder name that an entity
    of the context already has raises ``MappingError``.
    """
    owner = {
        e.name: ctx.name for ctx in doc.contexts for e in ctx.entities if not e.is_reference
    }

    relationships: dict[tuple[str, str], list[tuple[str, str]]] = {}
    contexts = []
    for ctx in doc.contexts:
        names = {e.name for e in ctx.entities}
        placeholders: dict[str, CmlEntity] = {}
        aggregates = []
        for agg in ctx.aggregates:
            entities = []
            for e in agg.entities:
                refs = []
                for r in e.references:
                    target_ctx = owner.get(r.target)
                    if target_ctx is None:
                        raise MappingError(
                            f"reference target {r.target!r} not found in any context"
                        )
                    if target_ctx == ctx.name:
                        refs.append(r)
                        continue
                    placeholder = f"{r.target}{REFERENCE_SUFFIX}"
                    if placeholder not in placeholders:
                        if placeholder in names:
                            raise MappingError(
                                f"context {ctx.name!r} has an entity {placeholder!r}, "
                                f"the name of the placeholder for {target_ctx}.{r.target}"
                            )
                        placeholders[placeholder] = CmlEntity(
                            placeholder,
                            comments=(f"{REFERENCE_COMMENT} {target_ctx}.{r.target}",),
                        )
                    refs.append(replace(r, target=placeholder))
                    causes = relationships.setdefault((target_ctx, ctx.name), [])
                    if (e.name, r.target) not in causes:
                        causes.append((e.name, r.target))
                entities.append(replace(e, references=tuple(refs)))
            aggregates.append(replace(agg, entities=tuple(entities)))
        if placeholders:
            last = aggregates[-1]
            aggregates[-1] = replace(
                last, entities=last.entities + tuple(placeholders[k] for k in sorted(placeholders))
            )
        contexts.append(replace(ctx, aggregates=tuple(aggregates)))

    rels = tuple(
        CmlRelationship(
            up, down, tuple(f"reference: {src} -> {dst}" for src, dst in sorted(causes))
        )
        for (up, down), causes in sorted(relationships.items())
    )
    return CmlDocument(
        replace(doc.context_map, relationships=rels), tuple(contexts), doc.trailing_comments
    )


def old_build(model, decomposition, sagas, naming="full-trace", map_name=DEFAULT_MAP_NAME):
    return old_resolve_references(
        old_map_decomposition(model, decomposition, sagas, naming, map_name)
    )


# --- inputs -----------------------------------------------------------------------

LOOSE = "Loose"


def _renamed(model: MonolithModel, old: str, new: str) -> MonolithModel:
    def name(n):
        return new if n == old else n

    entities = tuple(
        EntityStructure(
            name(e.name),
            e.attributes,
            tuple(Reference(r.field, name(r.target), r.kind) for r in e.references),
        )
        for e in model.entities
    )
    functionalities = tuple(
        Functionality(f.name, tuple(Access(name(a.entity), a.mode) for a in f.trace))
        for f in model.functionalities
    )
    return MonolithModel(entities, functionalities)


def _draw(rng: random.Random):
    """A model with structure, a partition of it, and how to map it.

    Some models name a member ``<Other>_Reference``, some have an entity
    that references one target through two fields, and some carry an
    untraced, structure-only entity that the partition may leave out.
    """
    model = random_model(rng, max_entities=8, with_structure=True)
    names = list(model.entity_names())
    referencing = [e for e in model.entities if e.references]
    if referencing and rng.random() < 0.3:
        e = rng.choice(referencing)
        twice = replace(e, references=e.references + (Reference("again", e.references[0].target),))
        model = MonolithModel(
            tuple(twice if x is e else x for x in model.entities), model.functionalities
        )
    if rng.random() < 0.3:
        victim, other = rng.sample(names, 2)
        model = _renamed(model, victim, f"{other}{REFERENCE_SUFFIX}")
    leave_out = False
    if rng.random() < 0.4:
        targets = rng.sample(model.entity_names(), k=rng.randint(0, 2))
        loose = EntityStructure(LOOSE, (), tuple(Reference(f"l{t}", t) for t in targets))
        entities = list(model.entities) + [loose]
        if rng.random() < 0.3:
            i = rng.randrange(len(model.entities))
            e = entities[i]
            entities[i] = replace(e, references=e.references + (Reference("loose", LOOSE),))
        model = MonolithModel(tuple(entities), model.functionalities)
        leave_out = rng.random() < 0.5
    members = [n for n in model.entity_names() if not (leave_out and n == LOOSE)]
    dec = random_partition(rng, members, rng.randint(1, len(members)))
    return model, dec


def _outcome(build, *args, **kwargs):
    try:
        return emit_document(build(*args, **kwargs))
    except MappingError as exc:
        return type(exc), str(exc)


def test_one_pass_emits_the_two_pass_bytes():
    rng = random.Random(20261019)
    emitted = faults = 0
    seen = set()
    for i in range(1500):
        model, dec = _draw(rng)
        naming = NAMING_HEURISTICS[i % len(NAMING_HEURISTICS)]
        policy = ORCHESTRATOR_POLICIES[(i // len(NAMING_HEURISTICS)) % 2]
        sagas = [s for s, _ in refactor_model(model, dec, policy)]
        map_name = "Shop" if i % 7 == 0 else DEFAULT_MAP_NAME
        new = _outcome(build_ddd_model, model, dec, sagas, naming, map_name)
        assert new == _outcome(old_build, model, dec, sagas, naming, map_name), (i, naming)
        if isinstance(new, str):
            emitted += 1
            seen.add((naming, policy))
            members = {m for _, ms in dec.clusters for m in ms}
            if any(m.endswith(REFERENCE_SUFFIX) for m in members):
                seen.add("member named like a placeholder")
            if LOOSE in model.entity_names() and LOOSE not in members:
                seen.add("structure-only entity left out")
        else:
            faults += 1
            seen.add(f"fault: {new[1].split()[0]}")
    assert emitted >= 1000, emitted
    assert faults >= 50, faults
    assert len(seen) == 2 * len(NAMING_HEURISTICS) + 4, sorted(map(str, seen))


def _fault(rng: random.Random, kind: str):
    """An input with exactly one fault of the given kind, or None if the
    drawn model has no place for it."""
    model = random_model(rng, max_entities=8, with_structure=True)
    names = list(model.entity_names())
    dec = random_partition(rng, names, rng.randint(1, min(4, len(names))))
    sagas = [s for s, _ in refactor_model(model, dec)]
    naming = "full-trace"
    if kind == "naming":
        naming = "fancy"
    elif kind == "missing saga":
        sagas = sagas[1:]
    elif kind == "repeated saga":
        sagas = sagas + sagas[:1]
    elif kind == "unknown saga":
        sagas = sagas + [Saga("nobody", sagas[0].orchestrator, sagas[0].steps)]
    elif kind == "unknown cluster":
        saga = sagas[0]
        steps = (replace(saga.steps[0], cluster="Nowhere"),) + saga.steps[1:]
        sagas = [replace(saga, steps=steps)] + sagas[1:]
    elif kind == "unknown orchestrator":
        sagas = [replace(sagas[0], orchestrator="Nowhere")] + sagas[1:]
    elif kind == "unknown target":
        # One reference to an untraced entity that no cluster holds.
        entities = list(model.entities)
        i = rng.randrange(len(entities))
        entities[i] = replace(
            entities[i], references=entities[i].references + (Reference("loose", LOOSE),)
        )
        model = MonolithModel(tuple(entities) + (EntityStructure(LOOSE),), model.functionalities)
    else:
        # An untraced member named like the placeholder of one outer target.
        owner = dec.assignment()
        crossing = [
            (owner[e.name], r.target)
            for e in model.entities
            for r in e.references
            if owner[r.target] != owner[e.name]
        ]
        if not crossing:
            return None
        context, target = rng.choice(crossing)
        clash = f"{target}{REFERENCE_SUFFIX}"
        model = MonolithModel(model.entities + (EntityStructure(clash),), model.functionalities)
        clusters = tuple(
            (name, members + (clash,) if name == context else members)
            for name, members in dec.clusters
        )
        dec = Decomposition(dec.weights, dec.n, clusters)
    return model, dec, sagas, naming


@pytest.mark.parametrize(
    "kind",
    [
        "naming",
        "missing saga",
        "repeated saga",
        "unknown saga",
        "unknown cluster",
        "unknown orchestrator",
        "unknown target",
        "placeholder clash",
    ],
)
def test_a_single_fault_raises_the_two_pass_error(kind):
    rng = random.Random(kind)
    checked = 0
    while checked < 40:
        drawn = _fault(rng, kind)
        if drawn is None:
            continue
        model, dec, sagas, naming = drawn
        with pytest.raises(MappingError) as new:
            build_ddd_model(model, dec, sagas, naming)
        with pytest.raises(MappingError) as old:
            old_build(model, dec, sagas, naming)
        assert (type(new.value), str(new.value)) == (type(old.value), str(old.value))
        if kind in ("unknown target", "placeholder clash"):
            assert str(new.value).startswith(
                "reference target" if kind == "unknown target" else "context"
            )
        checked += 1
