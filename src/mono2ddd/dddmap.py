"""Map a decomposition plus sagas onto a domain-driven design model.

Every cluster becomes a bounded context holding a single aggregate with the
cluster's entities. Saga steps become service operations named by one of
four heuristics; multi-step sagas become coordinations owned by their
orchestrator's context. Entity references that would cross context borders
are replaced by generated ``<Target>_Reference`` placeholder entities, and
each replacement is recorded as an upstream/downstream relationship (the
owner of the referenced entity is upstream).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .decompose import Decomposition
from .errors import MappingError
from .model import (
    ASSOCIATION,
    READ,
    WRITE,
    Access,
    Attribute,
    MonolithModel,
    Reference,
)
from .saga import Saga

NAMING_HEURISTICS = ("generic", "full-trace", "ignore-types", "ignore-order")

DEFAULT_MAP_NAME = "Decomposition"
REFERENCE_SUFFIX = "_Reference"


@dataclass(frozen=True)
class AccessStats:
    """An entity's share of its context's external and local accesses."""

    external_pct: float = 0.0
    local_pct: float = 0.0
    external_total: int = 0
    local_total: int = 0


@dataclass(frozen=True)
class DddEntity:
    name: str
    is_aggregate_root: bool = False
    attributes: tuple[Attribute, ...] = ()
    local_refs: tuple[Reference, ...] = ()
    is_reference: bool = False
    stats: AccessStats = field(default_factory=AccessStats)
    # Owning (context, entity) pair for generated reference placeholders.
    reference_of: tuple[str, str] | None = None


@dataclass(frozen=True)
class OperationDef:
    name: str
    access_signature: tuple[Access, ...]


@dataclass(frozen=True)
class Coordination:
    name: str
    steps: tuple[tuple[str, str, str], ...]


@dataclass(frozen=True)
class BoundedContextModel:
    name: str
    aggregate_name: str
    entities: tuple[DddEntity, ...]
    service_name: str
    operations: tuple[OperationDef, ...]
    coordinations: tuple[Coordination, ...]

    def entity(self, name: str) -> DddEntity:
        for e in self.entities:
            if e.name == name:
                return e
        raise MappingError(f"no entity {name!r} in context {self.name!r}")


@dataclass(frozen=True)
class ContextRelationship:
    upstream: str
    downstream: str
    causes: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class DddModel:
    map_name: str
    contexts: tuple[BoundedContextModel, ...]
    relationships: tuple[ContextRelationship, ...]

    def context(self, name: str) -> BoundedContextModel:
        for c in self.contexts:
            if c.name == name:
                return c
        raise MappingError(f"no bounded context {name!r}")


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


def access_stats(
    members: tuple[str, ...], sagas: list[Saga]
) -> dict[str, AccessStats]:
    """Per-entity external/local access shares for one cluster's members.

    External accesses are those made by multi-step (distributed) sagas,
    local accesses those made by single-step sagas; shares are relative to
    the cluster's total in each category.
    """
    member_set = set(members)
    external: dict[str, int] = {m: 0 for m in members}
    local: dict[str, int] = {m: 0 for m in members}
    for saga in sagas:
        table = external if len(saga.steps) > 1 else local
        for step in saga.steps:
            for a in step.accesses:
                if a.entity in member_set:
                    table[a.entity] += 1
    external_sum = sum(external.values())
    local_sum = sum(local.values())
    return {
        m: AccessStats(
            external_pct=external[m] / external_sum if external_sum else 0.0,
            local_pct=local[m] / local_sum if local_sum else 0.0,
            external_total=external[m],
            local_total=local[m],
        )
        for m in members
    }


def elect_root(entities: list[DddEntity]) -> str:
    """The aggregate root: highest external-access share, ties by name."""
    candidates = [e for e in entities if not e.is_reference]
    if not candidates:
        raise MappingError("aggregate has no entities to elect a root from")
    return min(candidates, key=lambda e: (-e.stats.external_pct, e.name)).name


def map_decomposition(
    model: MonolithModel,
    decomposition: Decomposition,
    sagas: list[Saga],
    naming: str = "full-trace",
    map_name: str = DEFAULT_MAP_NAME,
) -> DddModel:
    """Build the raw DDD model; references may still cross contexts.

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

    operations: dict[str, list[OperationDef]] = {
        name: [] for name, _ in decomposition.clusters
    }
    coordinations: dict[str, list[Coordination]] = {
        name: [] for name, _ in decomposition.clusters
    }

    def add_operation(context: str, op: OperationDef) -> None:
        if all(existing.name != op.name for existing in operations[context]):
            operations[context].append(op)

    for saga in sagas:
        addressed = []
        for step in saga.steps:
            if step.cluster not in operations:
                raise MappingError(
                    f"saga {saga.functionality!r} references unknown cluster {step.cluster!r}"
                )
            op_name = name_operation(saga.functionality, step.index, step.accesses, naming)
            add_operation(step.cluster, OperationDef(op_name, step.accesses))
            addressed.append((step.cluster, f"{step.cluster}Service", op_name))
        if saga.orchestrator not in coordinations:
            raise MappingError(
                f"saga {saga.functionality!r} names unknown orchestrator {saga.orchestrator!r}"
            )
        if len(saga.steps) > 1:
            coordinations[saga.orchestrator].append(
                Coordination(saga.functionality, tuple(addressed))
            )

    structures = {e.name: e for e in model.entities}
    contexts = []
    for name, members in decomposition.clusters:
        stats = access_stats(members, sagas)
        entities = [
            DddEntity(
                name=member,
                attributes=structures[member].attributes,
                local_refs=structures[member].references,
                stats=stats[member],
            )
            for member in members
        ]
        root = elect_root(entities)
        entities = [
            replace(e, is_aggregate_root=e.name == root) for e in entities
        ]
        contexts.append(
            BoundedContextModel(
                name=name,
                aggregate_name=f"{name}Aggregate",
                entities=tuple(entities),
                service_name=f"{name}Service",
                operations=tuple(operations[name]),
                coordinations=tuple(coordinations[name]),
            )
        )
    return DddModel(map_name, tuple(contexts), ())


def resolve_references(ddd: DddModel) -> DddModel:
    """Replace cross-context entity references with local placeholders.

    Each distinct outer target gets one ``<Target>_Reference`` entity per
    referencing context, and the owner context becomes upstream of the
    referencer. Inheritance references crossing contexts are flattened to
    plain association references on the placeholder.
    """
    owner: dict[str, str] = {}
    for ctx in ddd.contexts:
        for e in ctx.entities:
            if not e.is_reference:
                owner[e.name] = ctx.name

    relationships: dict[tuple[str, str], list[tuple[str, str]]] = {}
    new_contexts = []
    for ctx in ddd.contexts:
        placeholders: dict[str, DddEntity] = {}
        rewritten = []
        for e in ctx.entities:
            refs = []
            for r in e.local_refs:
                target_ctx = owner.get(r.target)
                if target_ctx is None:
                    raise MappingError(
                        f"reference target {r.target!r} not found in any context"
                    )
                if target_ctx == ctx.name:
                    refs.append(r)
                    continue
                placeholder_name = f"{r.target}{REFERENCE_SUFFIX}"
                if placeholder_name not in placeholders:
                    placeholders[placeholder_name] = DddEntity(
                        name=placeholder_name,
                        is_reference=True,
                        reference_of=(target_ctx, r.target),
                    )
                refs.append(Reference(r.field, placeholder_name, ASSOCIATION))
                causes = relationships.setdefault((target_ctx, ctx.name), [])
                if (e.name, r.target) not in causes:
                    causes.append((e.name, r.target))
            rewritten.append(replace(e, local_refs=tuple(refs)))
        rewritten.extend(placeholders[k] for k in sorted(placeholders))
        new_contexts.append(replace(ctx, entities=tuple(rewritten)))

    rel = tuple(
        ContextRelationship(up, down, tuple(sorted(causes)))
        for (up, down), causes in sorted(relationships.items())
    )
    return DddModel(ddd.map_name, tuple(new_contexts), rel)


def build_ddd_model(
    model: MonolithModel,
    decomposition: Decomposition,
    sagas: list[Saga],
    naming: str = "full-trace",
    map_name: str = DEFAULT_MAP_NAME,
) -> DddModel:
    """Full mapping pipeline: map the decomposition, then close references."""
    return resolve_references(
        map_decomposition(model, decomposition, sagas, naming, map_name)
    )


def check_closed_references(ddd: DddModel) -> list[str]:
    """Structural scan for references that escape their context.

    Returns human-readable problem descriptions; empty means the model is
    closed, which resolve_references guarantees.
    """
    problems = []
    for ctx in ddd.contexts:
        names = {e.name for e in ctx.entities}
        for e in ctx.entities:
            if e.is_reference and (e.attributes or e.local_refs):
                problems.append(
                    f"{ctx.name}.{e.name}: reference placeholder carries structure"
                )
            for r in e.local_refs:
                if r.target not in names:
                    problems.append(
                        f"{ctx.name}.{e.name}.{r.field}: target {r.target!r} is outside the context"
                    )
    return problems
