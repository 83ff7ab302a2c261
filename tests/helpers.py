"""Seeded random generators shared by the unit and acceptance tests, and a
fresh interpreter for the tests of what an import loads."""

from __future__ import annotations

import os
import pathlib
import random
import string
import subprocess
import sys

import mono2ddd
from mono2ddd.cml import (
    REFERENCE_COMMENT,
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
from mono2ddd.decompose import Decomposition, SimilarityWeights
from mono2ddd.model import (
    Access,
    Attribute,
    EntityStructure,
    Functionality,
    MonolithModel,
    Reference,
)

UNIT_WEIGHTS = SimilarityWeights(1.0, 0.0, 0.0, 0.0)


def replace(value, /, **changes):
    """A copy of the record ``value`` with ``changes``, built through its constructor."""
    fields = {name: getattr(value, name) for name in type(value).__annotations__}
    return type(value)(**{**fields, **changes})


def random_model(
    rng: random.Random,
    max_entities: int = 6,
    max_functionalities: int = 6,
    max_trace: int = 10,
    with_structure: bool = False,
) -> MonolithModel:
    entity_names = [
        string.ascii_uppercase[i] for i in range(rng.randint(2, max_entities))
    ]
    functionalities = []
    for i in range(rng.randint(1, max_functionalities)):
        trace = tuple(
            Access(rng.choice(entity_names), rng.choice("RW"))
            for _ in range(rng.randint(1, max_trace))
        )
        functionalities.append(Functionality(f"f{i}", trace))

    entities = []
    for name in entity_names:
        attributes = ()
        references = ()
        if with_structure:
            attributes = tuple(
                Attribute(f"field{k}", rng.choice(("String", "int", "boolean")))
                for k in range(rng.randint(0, 2))
            )
            targets = rng.sample(
                [e for e in entity_names if e != name],
                k=rng.randint(0, min(2, len(entity_names) - 1)),
            )
            references = tuple(
                Reference(f"ref{k}", target) for k, target in enumerate(targets)
            )
        entities.append(EntityStructure(name, attributes, references))
    return MonolithModel(tuple(entities), tuple(functionalities))


def random_partition(rng: random.Random, entity_names: list[str], k: int) -> Decomposition:
    """A uniformly random k-way partition wrapped as a named decomposition."""
    names = list(entity_names)
    rng.shuffle(names)
    groups = [[names[i]] for i in range(k)]
    for name in names[k:]:
        groups[rng.randrange(k)].append(name)
    groups.sort(key=min)
    clusters = tuple(
        (f"Cluster{i}", tuple(sorted(group))) for i, group in enumerate(groups)
    )
    return Decomposition(UNIT_WEIGHTS, k, clusters)


def clusters_dict(decomposition: Decomposition) -> dict[str, tuple[str, ...]]:
    return {name: members for name, members in decomposition.clusters}


def random_ddd_model(rng: random.Random, max_contexts: int = 4) -> CmlDocument:
    """A structurally valid generated document with closed references, for round trips.

    Entities carry stats comments whose shares are drawn apart from their
    counts, and placeholders carry reference comments naming their owner.
    """
    n_contexts = rng.randint(1, max_contexts)
    context_names = [f"Ctx{i}" for i in range(n_contexts)]

    entity_home = {}
    contexts_entities: dict[str, list[str]] = {}
    counter = 0
    for ctx in context_names:
        contexts_entities[ctx] = []
        for _ in range(rng.randint(1, 3)):
            name = f"E{counter}"
            counter += 1
            contexts_entities[ctx].append(name)
            entity_home[name] = ctx

    operations = {
        ctx: tuple(f"op{ctx}_{k}" for k in range(rng.randint(0, 3))) for ctx in context_names
    }

    relationships: dict[tuple[str, str], list[tuple[str, str]]] = {}
    contexts = []
    for ctx in context_names:
        own = contexts_entities[ctx]
        entities = []
        stats = []
        placeholders = {}
        for position, name in enumerate(own):
            refs = []
            others = [e for e in entity_home if e != name]
            for k in range(rng.randint(0, 2) if others else 0):
                target = rng.choice(others)
                if entity_home[target] == ctx:
                    refs.append(CmlReference(target, f"r{k}"))
                else:
                    placeholder = f"{target}_Reference"
                    placeholders[placeholder] = (entity_home[target], target)
                    refs.append(CmlReference(placeholder, f"r{k}"))
                    causes = relationships.setdefault((entity_home[target], ctx), [])
                    if (name, target) not in causes:
                        causes.append((name, target))
            attributes = tuple(CmlAttribute("String", f"a{k}") for k in range(rng.randint(0, 2)))
            entities.append(CmlEntity(name, position == 0, attributes, tuple(refs)))
            # external share, local share, external count, local count
            stats.append(
                (
                    rng.choice((0.0, 0.25, 0.5)),
                    rng.choice((0.0, 0.5, 1.0)),
                    rng.randint(0, 4),
                    rng.randint(0, 4),
                )
            )
        external_total = sum(s[2] for s in stats)
        local_total = sum(s[3] for s in stats)
        entities = [
            replace(
                e,
                comments=(
                    f"accesses: external {ext_pct * 100:.2f}% ({ext}/{external_total}), "
                    f"local {loc_pct * 100:.2f}% ({loc}/{local_total})",
                ),
            )
            for e, (ext_pct, loc_pct, ext, loc) in zip(entities, stats)
        ]
        for placeholder in sorted(placeholders):
            owner_ctx, target = placeholders[placeholder]
            entities.append(
                CmlEntity(placeholder, comments=(f"{REFERENCE_COMMENT} {owner_ctx}.{target}",))
            )

        coordinations = []
        partners = [c for c in context_names if c != ctx and operations[c]]
        if operations[ctx] and partners and rng.random() < 0.5:
            other = rng.choice(partners)
            coordinations.append(
                CmlCoordination(
                    f"flow{ctx}",
                    (
                        CmlStep(ctx, f"{ctx}Service", operations[ctx][0]),
                        CmlStep(other, f"{other}Service", operations[other][0]),
                    ),
                )
            )
        contexts.append(
            CmlBoundedContext(
                ctx,
                (CmlService(f"{ctx}Service", tuple(map(CmlOperation, operations[ctx]))),),
                tuple(coordinations),
                (CmlAggregate(f"{ctx}Aggregate", tuple(entities)),),
            )
        )

    rels = tuple(
        CmlRelationship(
            up, down, tuple(f"reference: {src} -> {dst}" for src, dst in sorted(causes))
        )
        for (up, down), causes in sorted(relationships.items())
    )
    context_map = CmlContextMap("Decomposition", tuple(context_names), rels)
    return CmlDocument(context_map, tuple(contexts))


def run_fresh(code: str, *args: str, cwd: pathlib.Path | None = None) -> str:
    """Stdout of ``code`` run with ``args`` in a new interpreter, where the
    package is not yet imported.

    The interpreter runs without ``site``, so a ``.pth`` file of the
    environment cannot import anything first.
    """
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(mono2ddd.__file__).parent.parent)}
    run = subprocess.run(
        [sys.executable, "-S", "-c", code, *args], capture_output=True, text=True, env=env, cwd=cwd
    )
    assert run.returncode == 0, run.stderr
    return run.stdout
