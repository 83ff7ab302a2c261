"""Modularity measures over a decomposition and the candidate ranking rule.

Cohesion rewards clusters whose entities are used together; coupling counts
cross-cluster hops in the traces; complexity estimates migration cost by
counting read/write interleavings between functionalities that span more
than one cluster. All of them read the one index of a model's traces that
``decompose._index`` builds, the index similarity is read from, and a grid
search shares one memo of per-cluster and per-distributed-set facts across
all its partitions (``_measure``).
"""

from __future__ import annotations

from ._record import record
from .decompose import (
    Decomposition,
    decomposition_to_json,
    _breaks_tsv,
    _Index,
    _index,
    _resolve,
    _search,
)
from .errors import DecompositionError
from .model import MonolithModel


@record
class ClusterMeasures:
    name: str
    size: int
    functionalities: int
    cohesion: float
    coupling: float
    complexity: float


@record
class MeasureReport:
    clusters: tuple[ClusterMeasures, ...]
    cohesion: float
    coupling: float
    complexity: float

    def cluster(self, name: str) -> ClusterMeasures:
        for c in self.clusters:
            if c.name == name:
                return c
        raise DecompositionError(f"unknown cluster {name!r}")


def cohesion(model: MonolithModel, decomposition: Decomposition, name: str) -> float:
    return measure(model, decomposition).cluster(name).cohesion


def coupling(model: MonolithModel, decomposition: Decomposition, name: str) -> float:
    return measure(model, decomposition).cluster(name).coupling


@record
class _ClusterFacts:
    """What one cluster's measures take from its own members alone.

    ``users``: the positions of the functionalities that touch it, which
    ``cohesion`` averages over; ``reach``: the mask of the entities that
    directly follow one of its entities in a trace; ``contained``: the mask
    of the functionalities all of whose entities it holds; ``complexity``:
    its complexity under each set of distributed functionalities (a mask)
    met so far.
    """

    users: list[int]
    cohesion: float
    reach: int
    contained: int
    complexity: dict[int, float]


def _cluster_facts(index: _Index, mask: int, size: int) -> _ClusterFacts:
    hits = [(entities & mask).bit_count() for entities in index.entities]
    users = [position for position, count in enumerate(hits) if count]
    reach = 0
    for e, successors in enumerate(index.successors):
        if mask >> e & 1:
            reach |= successors
    contained = 0
    for position, entities in enumerate(index.entities):
        if entities & mask == entities:
            contained |= 1 << position
    return _ClusterFacts(
        users=users,
        cohesion=sum([count / size for count in hits if count]) / len(users) if users else 0.0,
        reach=reach,
        contained=contained,
        complexity={},
    )


def _complexities(index: _Index, distributed: int) -> list[float]:
    """Each functionality's complexity, given the mask of distributed ones."""
    write_shared = [(m & distributed).bit_count() for m in index.writers]
    read_shared = [(m & distributed).bit_count() for m in index.readers]
    by_functionality = [0.0] * len(index.functionalities)
    for position, (reads, writes, own) in enumerate(zip(index.reads, index.writes, index.own)):
        if distributed >> position & 1:
            total = sum([n * write_shared[e] for e, n in reads.items()])
            total += sum([n * read_shared[e] for e, n in writes.items()])
            by_functionality[position] = float(total - own)
    return by_functionality


def _measure(
    index: _Index, decomposition: Decomposition, memo: dict
) -> tuple[MeasureReport, list[float]]:
    """The report of one partition, plus each functionality's complexity.

    It must fit by ``check_decomposition``'s rule, read from the index's
    ``known`` and ``traced`` names, and a cluster's mask holds the entities
    that rule's map gives it. Clusters are told apart by name. A functionality
    is distributed when no one cluster holds all its entities. Its
    complexity counts, per access, the other distributed functionalities
    that access the same entity in the other mode:
    ``sum(reads(e) * (|W(e) & D| - [f writes e]) + writes(e) * (|R(e) & D|
    - [f reads e]))`` over its entities ``e``, where ``D`` is the set of
    distributed functionalities. The sums are integers, and every float is
    summed in the order the cluster rows and the model list them.

    ``memo`` keeps what partitions of one model share, and must only ever
    see that model's index: a cluster's ``_ClusterFacts`` under its
    ``(entity mask, listed size)``, and the per-functionality complexities
    under the distributed mask. Only coupling, which depends on the other
    clusters, is computed for every partition.
    """
    owner = _resolve(decomposition, index.known, index.traced)
    positions = {name: c for c, name in enumerate(dict.fromkeys(decomposition.cluster_names()))}
    masks = [0] * len(positions)
    ids = index.ids
    for entity, name in owner.items():
        masks[positions[name]] |= 1 << ids[entity]

    facts = []
    contained = 0
    for name, members in decomposition.clusters:
        key = (masks[positions[name]], len(members))
        cluster = memo.get(key)
        if cluster is None:
            cluster = memo[key] = _cluster_facts(index, *key)
        facts.append(cluster)
        contained |= cluster.contained
    distributed = ((1 << len(index.functionalities)) - 1) & ~contained
    by_functionality = memo.get(distributed)
    if by_functionality is None:
        by_functionality = memo[distributed] = _complexities(index, distributed)

    k = len(decomposition.clusters)
    rows = []
    for (name, members), cluster in zip(decomposition.clusters, facts):
        users = cluster.users
        coupling_total = 0.0
        if k > 1:
            for other, other_members in decomposition.clusters:
                if other != name:
                    entered = (cluster.reach & masks[positions[other]]).bit_count()
                    coupling_total += entered / len(other_members)
        complexity = cluster.complexity.get(distributed)
        if complexity is None:
            complexity = cluster.complexity[distributed] = (
                sum([by_functionality[f] for f in users]) / len(users) if users else 0.0
            )
        rows.append(
            ClusterMeasures(
                name=name,
                size=len(members),
                functionalities=len(users),
                cohesion=cluster.cohesion,
                coupling=coupling_total / (k - 1) if k > 1 else 0.0,
                complexity=complexity,
            )
        )

    total_functionalities = len(by_functionality)
    report = MeasureReport(
        clusters=tuple(rows),
        cohesion=sum(r.cohesion for r in rows) / k,
        coupling=sum(r.coupling for r in rows) / k,
        complexity=(
            sum(by_functionality) / total_functionalities if total_functionalities else 0.0
        ),
    )
    return report, by_functionality


def complexity(model: MonolithModel, decomposition: Decomposition, name: str) -> float:
    """Complexity of one functionality under the given decomposition."""
    index = _index(model)
    _, by_functionality = _measure(index, decomposition, {})
    complexities = dict(zip(index.functionalities, by_functionality))
    if name not in complexities:
        raise DecompositionError(f"unknown functionality {name!r}")
    return complexities[name]


def measure(model: MonolithModel, decomposition: Decomposition) -> MeasureReport:
    """Per-cluster and decomposition-level measures of one partition."""
    return _measure(_index(model), decomposition, {})[0]


def search_candidates(
    model: MonolithModel, step: float, n_values: list[int] | tuple[int, ...]
) -> list[tuple[Decomposition, MeasureReport]]:
    """Grid-search decompositions and attach measures to each candidate.

    One index of the model's traces serves the clustering and every
    measure. Cluster names follow from the partition, so equal partitions
    get equal reports and each distinct one is measured once. The grid
    repeats clusters and distributed sets far more than partitions, so one
    ``_measure`` memo serves the whole call: each distinct cluster's facts,
    each distinct distributed set's complexities and each cluster's
    complexity under a distributed set are computed once.
    """
    index = _index(model)
    memo: dict = {}
    reports: dict[tuple, MeasureReport] = {}
    candidates = []
    for d in _search(index, step, n_values):
        if d.clusters not in reports:
            reports[d.clusters] = _measure(index, d, memo)[0]
        candidates.append((d, reports[d.clusters]))
    return candidates


def rank_decompositions(
    candidates: list[tuple[Decomposition, MeasureReport]],
    top_k: int = 100,
) -> Decomposition:
    """Pick the best candidate per the coupling/cohesion/complexity rule.

    Candidates are ordered by coupling ascending then cohesion descending;
    within the first ``top_k`` the one with minimal complexity wins. The
    serialized decomposition is the last tie-break at both stages, which
    makes the result independent of input order.
    """
    if not candidates:
        raise DecompositionError("no candidates to rank")
    if top_k < 1:
        raise DecompositionError(f"topK must be positive, got {top_k}")

    keyed = [
        (report.coupling, -report.cohesion, decomposition_to_json(d), report.complexity, d)
        for d, report in candidates
    ]
    keyed.sort(key=lambda item: item[:3])
    short_list = keyed[:top_k]
    _, _, _, _, winner = min(short_list, key=lambda item: (item[3], item[2]))
    return winner


def report_tsv(report: MeasureReport) -> str:
    """Render the per-cluster table plus a decomposition summary row.

    A cluster name that would break a row (a tab or a line break in it)
    raises ``DecompositionError``.
    """
    lines = ["cluster\tentities\tfunctionalities\tcohesion\tcoupling\tcomplexity"]
    for row in report.clusters:
        if _breaks_tsv(row.name):
            raise DecompositionError(f"cluster name {row.name!r} cannot be a TSV field")
        lines.append(
            "\t".join(
                (
                    row.name,
                    str(row.size),
                    str(row.functionalities),
                    f"{row.cohesion:.6f}",
                    f"{row.coupling:.6f}",
                    f"{row.complexity:.6f}",
                )
            )
        )
    lines.append(
        "\t".join(
            (
                "(decomposition)",
                str(sum(r.size for r in report.clusters)),
                "",
                f"{report.cohesion:.6f}",
                f"{report.coupling:.6f}",
                f"{report.complexity:.6f}",
            )
        )
    )
    return "\n".join(lines) + "\n"
