"""Map a decomposition plus sagas onto a domain-driven design document.

Every cluster becomes a bounded context holding a single aggregate with the
cluster's entities. Saga steps become service operations named by one of
four heuristics; multi-step sagas become coordinations owned by their
orchestrator's context. Entity references that would cross context borders
are replaced by generated ``<Target>_Reference`` placeholder entities, and
each replacement is recorded as an upstream/downstream relationship (the
owner of the referenced entity is upstream). The result is the same
``Cml*`` tree that the emitter, parser, refactorings and diagrams share.
"""

from __future__ import annotations

from dataclasses import replace

from .cml import (
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
    stats_comment,
)
from .decompose import Decomposition
from .errors import MappingError
from .model import READ, WRITE, Access, MonolithModel
from .saga import Saga

NAMING_HEURISTICS = ("generic", "full-trace", "ignore-types", "ignore-order")

DEFAULT_MAP_NAME = "Decomposition"


def name_operation(
    functionality: str, step_index: int, accesses: tuple[Access, ...], heuristic: str
) -> str:
    """Name one saga step's operation per the chosen heuristic."""
    if not accesses:
        raise MappingError("cannot name an operation with no accesses")
    if heuristic == "generic":
        return f"{functionality}_{step_index}"

    order: list[str] = []
    modes: dict[str, set[str]] = {}
    for a in accesses:
        if a.entity not in modes:
            order.append(a.entity)
            modes[a.entity] = set()
        modes[a.entity].add(a.mode)

    if heuristic == "full-trace":
        def prefix(entity: str) -> str:
            m = modes[entity]
            if m == {READ}:
                return "r"
            if m == {WRITE}:
                return "w"
            return "rw"

        return "_".join(prefix(e) + e for e in order)
    if heuristic == "ignore-types":
        return "_".join("ac" + e for e in order)
    if heuristic == "ignore-order":
        return "_".join("ac" + e for e in sorted(order))
    raise MappingError(f"unknown naming heuristic {heuristic!r}")


def _saga_accesses(sagas: list[Saga]) -> tuple[dict[str, int], dict[str, int]]:
    """Per entity, its accesses by multi-step sagas and by single-step ones."""
    external: dict[str, int] = {}
    local: dict[str, int] = {}
    for saga in sagas:
        table = external if len(saga.steps) > 1 else local
        for step in saga.steps:
            for a in step.accesses:
                table[a.entity] = table.get(a.entity, 0) + 1
    return external, local


def access_stats(members: tuple[str, ...], sagas: list[Saga]) -> dict[str, tuple[int, int]]:
    """Per-member (external, local) access counts for one cluster's members.

    External accesses are those made by multi-step (distributed) sagas,
    local accesses those made by single-step sagas.
    """
    external, local = _saga_accesses(sagas)
    return {m: (external.get(m, 0), local.get(m, 0)) for m in members}


def elect_root(external_shares: dict[str, float]) -> str:
    """The aggregate root: highest external-access share, ties by name."""
    if not external_shares:
        raise MappingError("aggregate has no entities to elect a root from")
    return min(external_shares, key=lambda name: (-external_shares[name], name))


def map_decomposition(
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


def resolve_references(doc: CmlDocument) -> CmlDocument:
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


def build_ddd_model(
    model: MonolithModel,
    decomposition: Decomposition,
    sagas: list[Saga],
    naming: str = "full-trace",
    map_name: str = DEFAULT_MAP_NAME,
) -> CmlDocument:
    """Full mapping pipeline: map the decomposition, then close references."""
    return resolve_references(
        map_decomposition(model, decomposition, sagas, naming, map_name)
    )
