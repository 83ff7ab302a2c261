"""Seeded synthetic inputs for the benchmark workloads.

Everything here depends only on the seed and the size arguments, so the same
seed always yields byte-identical input files. The program under test only
ever sees the files written here.

Entities and access modes are drawn uniformly at random, like the seeded
models of the test suite, so similarities carry no planted structure and
clustering, measures and sagas all do their general-case work.
"""

from __future__ import annotations

import json
import random

ATTRIBUTE_TYPES = ("String", "int", "boolean", "Date", "double")
# Mode mix for trace entries; RW expands to a read followed by a write.
MODES = ("R",) * 5 + ("W",) * 3 + ("RW",) * 2


def entity_names(count: int) -> list[str]:
    return [f"Ent{i:03d}" for i in range(count)]


def accesses_doc(
    rng: random.Random,
    entities: list[str],
    functionalities: int,
    max_trace: int,
    modules: int = 1,
    foreign: int = 0,
) -> str:
    """Accesses JSON: trace lengths spread evenly over 1..max_trace.

    The lengths are a fixed multiset in seeded order, so total work barely
    moves between seeds while the entries themselves are drawn at random.

    With `modules` > 1 the entities are dealt into that many hidden modules;
    a functionality then draws its accesses from one home module plus
    `foreign` entities picked from the rest, so the model has the modular
    structure a clustering can recover.
    """
    groups = [entities[k::modules] for k in range(modules)]
    others = [[e for e in entities if e not in set(group)] for group in groups]
    lengths = [
        1 + i * (max_trace - 1) // max(functionalities - 1, 1) for i in range(functionalities)
    ]
    rng.shuffle(lengths)
    items = []
    for i, length in enumerate(lengths):
        pool = groups[i % modules] + rng.sample(others[i % modules], k=foreign)
        trace = [[rng.choice(pool), rng.choice(MODES)] for _ in range(length)]
        items.append({"name": f"f{i:04d}", "trace": trace})
    return json.dumps({"functionalities": items}, indent=1) + "\n"


def structure_dsl(rng: random.Random, entities: list[str]) -> str:
    """Structure in the mini DSL: attributes, references and some `extends`.

    A superclass always has a lower index than its subclass, so inheritance
    never forms a cycle.
    """
    lines = [f"# {len(entities)} generated entities"]
    for index, name in enumerate(entities):
        header = f"entity {name}"
        if index > 0 and rng.random() < 0.15:
            header += f" extends {entities[rng.randrange(index)]}"
        lines.append(header + " {")
        for k in range(rng.randint(0, 3)):
            lines.append(f"    attr field{k}: {rng.choice(ATTRIBUTE_TYPES)};")
        others = entities[:index] + entities[index + 1 :]
        for k, target in enumerate(rng.sample(others, k=min(rng.randint(0, 2), len(others)))):
            lines.append(f"    ref link{k} -> {target};")
        lines.append("}")
    return "\n".join(lines) + "\n"


def random_partition_doc(rng: random.Random, entities: list[str], parts: int) -> str:
    """Decomposition JSON for a uniformly random partition into `parts` clusters."""
    names = list(entities)
    rng.shuffle(names)
    groups = [[names[i]] for i in range(parts)]
    for name in names[parts:]:
        groups[rng.randrange(parts)].append(name)
    groups.sort(key=min)
    doc = {
        "params": {"weights": [1.0, 0.0, 0.0, 0.0], "n": parts},
        "clusters": {f"Cluster{i}": sorted(g) for i, g in enumerate(groups)},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
