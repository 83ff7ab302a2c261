"""Modularity measures over a decomposition and the candidate ranking rule.

Cohesion rewards clusters whose entities are used together; coupling counts
cross-cluster hops in the traces; complexity estimates migration cost by
counting read/write interleavings between functionalities that span more
than one cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decompose import (
    Decomposition,
    check_decomposition,
    decomposition_to_json,
    search_decompositions,
)
from .errors import DecompositionError
from .model import READ, WRITE, MonolithModel


@dataclass(frozen=True)
class ClusterMeasures:
    name: str
    size: int
    functionalities: int
    cohesion: float
    coupling: float
    complexity: float


@dataclass(frozen=True)
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


def _assignment(model: MonolithModel, decomposition: Decomposition) -> dict[str, str]:
    """Entity -> cluster name, after `check_decomposition` accepts the pair."""
    check_decomposition(model, decomposition)
    return decomposition.assignment()


def _cluster_hits(model: MonolithModel, assignment: dict[str, str]) -> list[dict[str, int]]:
    """Per functionality, in model order: cluster -> its distinct entities there."""
    result = []
    for f in model.functionalities:
        hits: dict[str, int] = {}
        for e in f.entities():
            hits[assignment[e]] = hits.get(assignment[e], 0) + 1
        result.append(hits)
    return result


def _complexities(model: MonolithModel, hits: list[dict[str, int]]) -> dict[str, float]:
    """Complexity of every functionality, keyed by name in model order.

    A distributed functionality (one touching more than one cluster) scores,
    per access, the number of other distributed functionalities that access
    the same entity in the opposite mode. The writer and reader tables are
    built once; a functionality's own entry is subtracted from them.
    """
    distributed = [f for f, h in zip(model.functionalities, hits) if len(h) > 1]
    writers: dict[str, set[str]] = {}
    readers: dict[str, set[str]] = {}
    for g in distributed:
        for a in g.trace:
            table = writers if a.mode == WRITE else readers
            table.setdefault(a.entity, set()).add(g.name)

    result = dict.fromkeys((f.name for f in model.functionalities), 0.0)
    for f in distributed:
        total = 0
        for a in f.trace:
            others = (writers if a.mode == READ else readers).get(a.entity, ())
            total += len(others) - (f.name in others)
        result[f.name] = float(total)
    return result


def complexity(model: MonolithModel, decomposition: Decomposition, name: str) -> float:
    """Complexity of one functionality under the given decomposition."""
    hits = _cluster_hits(model, _assignment(model, decomposition))
    complexities = _complexities(model, hits)
    if name not in complexities:
        raise DecompositionError(f"unknown functionality {name!r}")
    return complexities[name]


def measure(model: MonolithModel, decomposition: Decomposition) -> MeasureReport:
    """Per-cluster and decomposition-level measures in one pass over the traces."""
    assignment = _assignment(model, decomposition)
    hits = _cluster_hits(model, assignment)
    by_functionality = _complexities(model, hits)

    # Cluster -> (functionality, its distinct entities in the cluster) in
    # model order; cluster -> next cluster in a trace -> entities entered.
    touching: dict[str, list[tuple[str, int]]] = {
        name: [] for name, _ in decomposition.clusters
    }
    followed: dict[str, dict[str, set[str]]] = {name: {} for name in touching}
    for f, f_hits in zip(model.functionalities, hits):
        for name, count in f_hits.items():
            touching[name].append((f.name, count))
        for prev, cur in zip(f.trace, f.trace[1:]):
            source, target = assignment[prev.entity], assignment[cur.entity]
            if source != target:
                followed[source].setdefault(target, set()).add(cur.entity)

    k = len(decomposition.clusters)
    rows = []
    for name, members in decomposition.clusters:
        users = touching[name]
        coupling_total = 0.0
        if k > 1:
            for other, other_members in decomposition.clusters:
                if other != name:
                    coupling_total += len(followed[name].get(other, ())) / len(other_members)
        rows.append(
            ClusterMeasures(
                name=name,
                size=len(members),
                functionalities=len(users),
                cohesion=(
                    sum(count / len(members) for _, count in users) / len(users)
                    if users
                    else 0.0
                ),
                coupling=coupling_total / (k - 1) if k > 1 else 0.0,
                complexity=(
                    sum(by_functionality[f] for f, _ in users) / len(users)
                    if users
                    else 0.0
                ),
            )
        )

    total_functionalities = len(model.functionalities)
    return MeasureReport(
        clusters=tuple(rows),
        cohesion=sum(r.cohesion for r in rows) / k,
        coupling=sum(r.coupling for r in rows) / k,
        complexity=(
            sum(by_functionality.values()) / total_functionalities
            if total_functionalities
            else 0.0
        ),
    )


def search_candidates(
    model: MonolithModel, step: float, n_values: list[int] | tuple[int, ...]
) -> list[tuple[Decomposition, MeasureReport]]:
    """Grid-search decompositions and attach measures to each candidate.

    Cluster names follow from the partition, so equal partitions get equal
    reports and each distinct one is measured once.
    """
    reports: dict[tuple, MeasureReport] = {}
    candidates = []
    for d in search_decompositions(model, step, n_values):
        if d.clusters not in reports:
            reports[d.clusters] = measure(model, d)
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
    """Render the per-cluster table plus a decomposition summary row."""
    lines = ["cluster\tentities\tfunctionalities\tcohesion\tcoupling\tcomplexity"]
    for row in report.clusters:
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
