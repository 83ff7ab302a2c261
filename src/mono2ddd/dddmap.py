"""Map a decomposition plus sagas onto a domain-driven design document.

Every cluster becomes a bounded context holding a single aggregate with the
cluster's entities. Saga steps become service operations named by one of
four heuristics; multi-step sagas become coordinations owned by their
orchestrator's context. While each context is built, an entity reference
that would cross a context border is pointed at a generated
``<Target>_Reference`` placeholder entity instead, and recorded as an
upstream/downstream relationship (the owner of the referenced entity is
upstream). One pass yields the finished ``Cml*`` tree that the emitter,
parser, refactorings and diagrams share.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from itertools import chain

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
from .decompose import Decomposition, check_decomposition
from .errors import MappingError
from .model import READ, WRITE, Access, MonolithModel
from .saga import Saga

NAMING_HEURISTICS = ("generic", "full-trace", "ignore-types", "ignore-order")

DEFAULT_MAP_NAME = "Decomposition"


def name_operation(
    functionality: str, step_index: int, accesses: tuple[Access, ...], heuristic: str
) -> str:
    """Name one saga step's operation per the chosen heuristic."""
    entities = [a.entity for a in accesses]
    modes = [a.mode for a in accesses]
    return _name_operation(functionality, step_index, entities, modes, heuristic)


def _name_operation(
    functionality: str,
    step_index: int,
    entities: Sequence[str],
    modes: Sequence[str],
    heuristic: str,
) -> str:
    """``name_operation`` on a step's entity and mode columns."""
    if not entities:
        raise MappingError("cannot name an operation with no accesses")
    if heuristic == "generic":
        return f"{functionality}_{step_index}"

    order = dict.fromkeys(entities)
    if heuristic == "full-trace":
        pairs = set(zip(entities, modes))

        def prefix(entity: str) -> str:
            if (entity, WRITE) not in pairs:
                return "r"
            if (entity, READ) not in pairs:
                return "w"
            return "rw"

        return "_".join(prefix(e) + e for e in order)
    if heuristic == "ignore-types":
        return "_".join("ac" + e for e in order)
    if heuristic == "ignore-order":
        return "_".join("ac" + e for e in sorted(order))
    raise MappingError(f"unknown naming heuristic {heuristic!r}")


def _saga_accesses(sagas: list[Saga]) -> tuple[Counter[str], Counter[str]]:
    """Per entity, its accesses by multi-step sagas and by single-step ones.

    Each table is one ``Counter`` over all its steps' entities: a ``Counter``
    per step, or an ``update`` per step, pays a type check every time."""
    multi = [saga.steps for saga in sagas if len(saga.steps) > 1]
    single = [saga.steps for saga in sagas if len(saga.steps) <= 1]
    return (
        Counter(chain.from_iterable(step._entities for steps in multi for step in steps)),
        Counter(chain.from_iterable(step._entities for steps in single for step in steps)),
    )


def elect_root(external_shares: dict[str, float]) -> str:
    """The aggregate root: highest external-access share, ties by name."""
    if not external_shares:
        raise MappingError("aggregate has no entities to elect a root from")
    return min(external_shares, key=lambda name: (-external_shares[name], name))


def build_ddd_model(
    model: MonolithModel,
    decomposition: Decomposition,
    sagas: list[Saga],
    naming: str = "full-trace",
    map_name: str = DEFAULT_MAP_NAME,
) -> CmlDocument:
    """Map a decomposition and its sagas onto a finished CML document.

    Each cluster becomes a context with one service and one aggregate; the
    entities keep their attributes, and a reference keeps its field but no
    kind, so an inheritance reference becomes a plain one. A reference to
    an entity of the same cluster stays direct. Any other target is
    replaced by one ``<Target>_Reference`` placeholder per target and
    context, appended after the members in name order, and the target's
    context becomes upstream of the referencing one: each ``[U]-[D]``
    relationship lists its causing references, and the relationships are
    sorted by context pair. ``MappingError`` is raised for an unknown
    naming, sagas that do not cover the model's functionalities once each
    or that name an unknown cluster or orchestrator; then
    ``DecompositionError`` for a decomposition that does not fit the model;
    then ``MappingError`` for a reference target in no cluster and a
    placeholder name that a member of the context already has.
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
            op_name = _name_operation(
                saga.functionality, step.index, step._entities, step._modes, naming
            )
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

    owner = check_decomposition(model, decomposition)
    structures = {e.name: e for e in model.entities}
    external_accesses, local_accesses = _saga_accesses(sagas)
    relationships: dict[tuple[str, str], set[tuple[str, str]]] = {}
    contexts = []
    for name, members in decomposition.clusters:
        counts = {m: (external_accesses[m], local_accesses[m]) for m in members}
        external_total = sum(external for external, _ in counts.values())
        local_total = sum(local for _, local in counts.values())
        root = elect_root(
            {
                m: external / external_total if external_total else 0.0
                for m, (external, _) in counts.items()
            }
        )
        entities = []
        placeholders: dict[str, CmlEntity] = {}
        for member, (external, local) in counts.items():
            structure = structures[member]
            refs = []
            for r in structure.references:
                target_ctx = owner.get(r.target)
                if target_ctx is None:
                    raise MappingError(f"reference target {r.target!r} not found in any context")
                if target_ctx == name:
                    refs.append(CmlReference(r.target, r.field))
                    continue
                placeholder = f"{r.target}{REFERENCE_SUFFIX}"
                if placeholder not in placeholders:
                    if placeholder in counts:
                        raise MappingError(
                            f"context {name!r} has an entity {placeholder!r}, "
                            f"the name of the placeholder for {target_ctx}.{r.target}"
                        )
                    placeholders[placeholder] = CmlEntity(
                        placeholder, comments=(f"{REFERENCE_COMMENT} {target_ctx}.{r.target}",)
                    )
                refs.append(CmlReference(placeholder, r.field))
                relationships.setdefault((target_ctx, name), set()).add((member, r.target))
            entities.append(
                CmlEntity(
                    member,
                    member == root,
                    tuple(CmlAttribute(a.type, a.name) for a in structure.attributes),
                    tuple(refs),
                    (stats_comment(external, external_total, local, local_total),),
                )
            )
        entities.extend(placeholders[k] for k in sorted(placeholders))
        contexts.append(
            CmlBoundedContext(
                name,
                (CmlService(f"{name}Service", tuple(map(CmlOperation, operations[name]))),),
                tuple(coordinations[name]),
                (CmlAggregate(f"{name}Aggregate", tuple(entities)),),
            )
        )
    rels = tuple(
        CmlRelationship(
            up, down, tuple(f"reference: {src} -> {dst}" for src, dst in sorted(causes))
        )
        for (up, down), causes in sorted(relationships.items())
    )
    context_map = CmlContextMap(map_name, tuple(name for name, _ in decomposition.clusters), rels)
    return CmlDocument(context_map, tuple(contexts))
