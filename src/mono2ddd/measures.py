"""Modularity measures over a decomposition and the candidate ranking rule.

Cohesion rewards clusters whose entities are used together; coupling counts
cross-cluster hops in the traces; complexity estimates migration cost by
counting read/write interleavings between functionalities that span more
than one cluster. All of them read the one index of a model's traces that
``decompose._index`` builds, the index a grid search's similarity criteria
and the write, read and sequence criteria are read from, and a grid search
shares one memo of per-cluster and per-distributed-set facts across all its
partitions (``_measure``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import reduce
from operator import add

from ._record import record
from .decompose import (
    Decomposition,
    decomposition_to_json,
    _breaks_tsv,
    _Index,
    _index,
    _integer,
    _search,
    check_decomposition,
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
    """What one cluster's measures take from its own entity mask alone.

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


def _cluster_facts(index: _Index, mask: int) -> _ClusterFacts:
    size = mask.bit_count()
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
    cohesion = reduce(add, [count / size for count in hits if count], 0.0)
    return _ClusterFacts(
        users=users,
        cohesion=cohesion / len(users) if users else 0.0,
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

    The decomposition must fit the index's model (``check_decomposition``),
    so each cluster's mask holds its members' numbers and its size is that
    mask's bit count. A functionality is distributed when no one cluster
    holds all its entities. Its complexity counts, per access, the other
    distributed functionalities that access the same entity in the other
    mode:
    ``sum(reads(e) * (|W(e) & D| - [f writes e]) + writes(e) * (|R(e) & D|
    - [f reads e]))`` over its entities ``e``, where ``D`` is the set of
    distributed functionalities. The sums are integers, and every float is
    summed left to right onto ``0.0``, in the order the cluster rows and the
    model list them: ``reduce``, not ``sum``, which Python 3.12 compensates,
    so every version rounds the same.

    ``memo`` keeps what partitions of one model share, and must only ever
    see that model's index: a cluster's ``_ClusterFacts`` under its entity
    mask, and the per-functionality complexities under ``~D`` (negative, so
    apart from every entity mask). Only coupling, which depends on the other
    clusters, is computed for every partition.
    """
    ids = index.ids
    clusters = decomposition.clusters
    # The members are distinct, so the sum of their bits is their union.
    masks = [sum([1 << ids[m] for m in members]) for _, members in clusters]

    facts = []
    contained = 0
    for mask in masks:
        cluster = memo.get(mask)
        if cluster is None:
            cluster = memo[mask] = _cluster_facts(index, mask)
        facts.append(cluster)
        contained |= cluster.contained
    distributed = ((1 << len(index.functionalities)) - 1) & ~contained
    by_functionality = memo.get(~distributed)
    if by_functionality is None:
        by_functionality = memo[~distributed] = _complexities(index, distributed)

    k = len(clusters)
    rows = []
    for c, ((name, members), cluster) in enumerate(zip(clusters, facts)):
        users = cluster.users
        coupling_total = 0.0
        for other, mask in enumerate(masks):
            if other != c:
                coupling_total += (cluster.reach & mask).bit_count() / len(clusters[other][1])
        complexity = cluster.complexity.get(distributed)
        if complexity is None:
            total = reduce(add, [by_functionality[f] for f in users], 0.0)
            complexity = cluster.complexity[distributed] = total / len(users) if users else 0.0
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

    count = len(by_functionality)
    report = MeasureReport(
        clusters=tuple(rows),
        cohesion=reduce(add, [r.cohesion for r in rows], 0.0) / k,
        coupling=reduce(add, [r.coupling for r in rows], 0.0) / k,
        complexity=reduce(add, by_functionality, 0.0) / count if count else 0.0,
    )
    return report, by_functionality


def complexity(model: MonolithModel, decomposition: Decomposition, name: str) -> float:
    """Complexity of one functionality under the given decomposition."""
    check_decomposition(model, decomposition)
    index = _index(model)
    _, by_functionality = _measure(index, decomposition, {})
    complexities = dict(zip(index.functionalities, by_functionality))
    if name not in complexities:
        raise DecompositionError(f"unknown functionality {name!r}")
    return complexities[name]


def measure(model: MonolithModel, decomposition: Decomposition) -> MeasureReport:
    """Per-cluster and decomposition-level measures of one partition."""
    check_decomposition(model, decomposition)
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
            # Every partition lists the index's names, so all fit if the first does.
            if not reports:
                check_decomposition(model, d)
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
    makes the result independent of input order. It is only written for
    the candidates a tie-break has to order: those tied at the ``top_k``
    cut, and those tied on the least complexity.
    """
    if not candidates:
        raise DecompositionError("no candidates to rank")
    top_k = _integer(top_k, "topK")
    if top_k < 1:
        raise DecompositionError(f"topK must be positive, got {top_k}")

    order = sorted(candidates, key=_rank_key)
    if len(order) > top_k:
        # Only the group that the cut splits needs its serialized order.
        keys = [_rank_key(item) for item in order]
        lo = bisect_left(keys, keys[top_k - 1])
        hi = bisect_right(keys, keys[top_k - 1])
        order[lo:hi] = sorted(order[lo:hi], key=_serialized)
        del order[top_k:]
    best = min(report.complexity for _, report in order)
    tied = [item for item in order if item[1].complexity == best]
    return min(tied, key=_serialized)[0] if len(tied) > 1 else tied[0][0]


def _rank_key(item: tuple[Decomposition, MeasureReport]) -> tuple[float, float]:
    return item[1].coupling, -item[1].cohesion


def _serialized(item: tuple[Decomposition, MeasureReport]) -> str:
    return decomposition_to_json(item[0])


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
