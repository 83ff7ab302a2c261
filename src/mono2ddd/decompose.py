"""Similarity-driven clustering of entities into candidate decompositions.

The pipeline is: trace statistics -> pairwise similarity -> agglomerative
clustering (average linkage on distance ``1 - s``) -> named clusters. A grid
search enumerates weight combinations and cluster counts to produce candidate
decompositions for later ranking.

Everything here is deterministic: ties in the linkage step are broken by the
lexicographically smallest pair of cluster representatives, and cluster names
are assigned by each cluster's smallest member.
"""

from __future__ import annotations

import json
import math
from collections.abc import Container, Iterable
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from .errors import ContractError, DecompositionError
from .model import WRITE, MonolithModel

WEIGHT_TOLERANCE = 1e-9
# Largest number of (weights, n) candidates a grid may have: C(parts + 3, 3)
# weight vectors, where parts = 1 / step, times the number of distinct
# cluster counts. Larger grids are rejected before any is built; step 0.02
# with three counts (70278 candidates) still fits, step 0.01 does not.
MAX_GRID_CANDIDATES = 100_000


@dataclass(frozen=True)
class SimilarityWeights:
    """Convex weights for the four similarity criteria."""

    access: float
    write: float
    read: float
    sequence: float

    def __post_init__(self):
        values = self.as_tuple()
        for v in values:
            # Written as "not in range" so that NaN, which fails every comparison, fails it.
            if not -WEIGHT_TOLERANCE <= v <= 1 + WEIGHT_TOLERANCE:
                raise DecompositionError(f"weight out of range: {v}")
        if abs(sum(values) - 1.0) > WEIGHT_TOLERANCE:
            raise DecompositionError(f"weights must sum to 1, got {sum(values)}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.access, self.write, self.read, self.sequence)


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric entity similarity, keyed by sorted entity names."""

    entities: tuple[str, ...]
    values: dict[tuple[str, str], float] = field(compare=False)

    def similarity(self, e1: str, e2: str) -> float:
        if e1 == e2:
            return 1.0
        return self.values.get((min(e1, e2), max(e1, e2)), 0.0)

    def distance(self, e1: str, e2: str) -> float:
        return 1.0 - self.similarity(e1, e2)


@dataclass(frozen=True)
class Decomposition:
    """A named partition of the model's entities."""

    weights: SimilarityWeights
    n: int
    clusters: tuple[tuple[str, tuple[str, ...]], ...]

    def cluster_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.clusters)

    def members(self, name: str) -> tuple[str, ...]:
        for cname, members in self.clusters:
            if cname == name:
                return members
        raise DecompositionError(f"unknown cluster {name!r}")

    def assignment(self) -> dict[str, str]:
        return {e: name for name, members in self.clusters for e in members}


@dataclass(frozen=True)
class _Criteria:
    """The weight-independent part of the similarity of one model.

    ``pairs`` holds, for every entity pair ``(e1, e2)`` with ``e1 < e2``
    (the key ``SimilarityMatrix`` looks a pair up under, whatever the model's
    entity order), the directed access, write and read ratios both ways plus
    the symmetric sequence ratio: ``(e1, e2, a12, w12, r12, a21, w21, r21, s)``.
    """

    entities: tuple[str, ...]
    pairs: tuple[tuple[str, str, float, float, float, float, float, float, float], ...]


def _criteria(model: MonolithModel) -> _Criteria:
    """Compute the four similarity criteria of every entity pair once.

    One walk over each trace collects the functionalities that access,
    write and read each entity, and counts consecutive pairs of distinct
    entities. A set of functionalities is a bit mask over their names, so
    an intersection size is ``(m1 & m2).bit_count()``; a pair's two
    directed ratios share that size and divide it by either side's size.
    """
    entities = model.entity_names()
    acc = dict.fromkeys(entities, 0)
    wr = dict.fromkeys(entities, 0)
    rd = dict.fromkeys(entities, 0)
    bits: dict[str, int] = {}
    pair_counts: dict[tuple[str, str], int] = {}
    for f in model.functionalities:
        bit = 1 << bits.setdefault(f.name, len(bits))
        written: set[str] = set()
        read: set[str] = set()
        prev = None
        for a in f.trace:
            e = a.entity
            if a.mode == WRITE:
                written.add(e)
            else:
                read.add(e)
            if e != prev:
                if prev is not None:
                    key = (prev, e) if prev < e else (e, prev)
                    pair_counts[key] = pair_counts.get(key, 0) + 1
                prev = e
        for table, touched in ((wr, written), (rd, read), (acc, written | read)):
            for e in touched:
                table[e] = table.get(e, 0) | bit
    max_pair = max(pair_counts.values(), default=0)

    pairs = []
    ordered = sorted(entities)
    for i, e1 in enumerate(ordered):
        a1, w1, r1 = acc[e1], wr[e1], rd[e1]
        na1, nw1, nr1 = a1.bit_count(), w1.bit_count(), r1.bit_count()
        for e2 in ordered[i + 1 :]:
            a2, w2, r2 = acc[e2], wr[e2], rd[e2]
            na2, nw2, nr2 = a2.bit_count(), w2.bit_count(), r2.bit_count()
            shared_a = (a1 & a2).bit_count()
            shared_w = (w1 & w2).bit_count()
            shared_r = (r1 & r2).bit_count()
            follows = pair_counts.get((e1, e2), 0)
            pairs.append(
                (
                    e1,
                    e2,
                    shared_a / na1 if na1 else 0.0,
                    shared_w / nw1 if nw1 else 0.0,
                    shared_r / nr1 if nr1 else 0.0,
                    shared_a / na2 if na2 else 0.0,
                    shared_w / nw2 if nw2 else 0.0,
                    shared_r / nr2 if nr2 else 0.0,
                    follows / max_pair if max_pair else 0.0,
                )
            )
    return _Criteria(entities, tuple(pairs))


def _combine(criteria: _Criteria, weights: SimilarityWeights) -> SimilarityMatrix:
    """Weigh the criteria into a similarity matrix.

    Each direction is ``wa*a + ww*w + wr*r + ws*s`` and the pair's value is
    the mean of both directions, evaluated in this order so every weight
    vector gives the same floats as a from-scratch computation.
    """
    wa, ww, wr, ws = weights.as_tuple()
    values = {
        (e1, e2): (
            (wa * a12 + ww * w12 + wr * r12 + ws * s)
            + (wa * a21 + ww * w21 + wr * r21 + ws * s)
        )
        / 2.0
        for e1, e2, a12, w12, r12, a21, w21, r21, s in criteria.pairs
    }
    return SimilarityMatrix(criteria.entities, values)


def build_similarity(model: MonolithModel, weights: SimilarityWeights) -> SimilarityMatrix:
    """Compute the symmetrized similarity matrix for all model entities."""
    return _combine(_criteria(model), weights)


def _distance_rows(matrix: SimilarityMatrix) -> tuple[list[str], list[list[float]]]:
    """Entity names in sorted order and their distances as rows of a list.

    Entity ``i`` is ``names[i]``, so comparing numbers compares names.
    ``rows[i][j]`` is ``matrix.distance(names[i], names[j])``: a pair is
    looked up under its sorted names, as ``build_similarity`` stores every
    pair, and a pair a hand-built matrix stores any other way counts as
    similarity 0.
    """
    names = sorted(set(matrix.entities))
    ids = {name: i for i, name in enumerate(names)}
    rows = [[1.0] * len(names) for _ in names]
    for i, row in enumerate(rows):
        row[i] = 0.0
    for (e1, e2), value in matrix.values.items():
        if e1 < e2 and e1 in ids and e2 in ids:
            i, j = ids[e1], ids[e2]
            rows[i][j] = rows[j][i] = 1.0 - value
    return names, rows


def _agglomerate(
    matrix: SimilarityMatrix, weights: SimilarityWeights, n_values: list[int]
) -> list[Decomposition]:
    """Merge down to ``min(n_values)`` clusters, cutting at every requested count.

    The merge sequence does not depend on where it stops, so each cut equals
    a separate run down to that count. Entities are numbered in name order
    and a cluster is keyed by its smallest member (its head). The linkage of
    two clusters is the exact in-order sum of their entity distances, outer
    loop over the cluster with the smaller head; it is computed when either
    cluster is formed and kept until one of them merges, so no running
    totals change the float results.
    """
    names, rows = _distance_rows(matrix)
    members: dict[int, list[int]] = {e: [e] for e in range(len(names))}
    # The mean distance of two single entities is their distance.
    linkages = {
        (lo, hi): (row[hi], lo, hi)
        for lo, row in enumerate(rows)
        for hi in range(lo + 1, len(rows))
    }
    cuts: dict[int, Decomposition] = {}
    wanted = set(n_values)
    while True:
        if len(members) in wanted:
            named = tuple(
                (f"Cluster{idx}", tuple(names[e] for e in members[head]))
                for idx, head in enumerate(sorted(members))
            )
            cuts[len(members)] = Decomposition(weights, len(members), named)
        if len(members) <= min(wanted):
            break
        _, lo, hi = min(linkages.values())
        merged = sorted(members.pop(lo) + members.pop(hi))
        merged_rows = [rows[x] for x in merged]
        del linkages[(lo, hi)]
        for head, group in members.items():
            del linkages[(head, hi) if head < hi else (hi, head)]
            # Overwrites the linkage of ``head`` and ``lo``, summed with the
            # outer loop over the cluster with the smaller head.
            if head < lo:
                total = sum([row[y] for row in map(rows.__getitem__, group) for y in merged])
                linkages[(head, lo)] = (total / (len(group) * len(merged)), head, lo)
            else:
                total = sum([row[y] for row in merged_rows for y in group])
                linkages[(lo, head)] = (total / (len(merged) * len(group)), lo, head)
        members[lo] = merged
    return [cuts[n] for n in sorted(wanted)]


def cluster(matrix: SimilarityMatrix, weights: SimilarityWeights, n: int) -> Decomposition:
    """Agglomerate entities into ``n`` clusters with average linkage.

    Cluster distance is the mean pairwise entity distance; ties are broken
    by the lexicographically smallest (first, second) member pair so equal
    inputs always produce equal outputs.
    """
    entities = matrix.entities
    if n < 1:
        raise DecompositionError(f"cluster count must be positive, got {n}")
    if n > len(entities):
        raise DecompositionError(f"cannot make {n} clusters from {len(entities)} entities")
    return _agglomerate(matrix, weights, [n])[0]


def decompose(model: MonolithModel, weights: SimilarityWeights, n: int) -> Decomposition:
    return cluster(build_similarity(model, weights), weights, n)


def _grid_parts(step: float) -> int:
    """Validate a grid step and return the number of steps that make up 1."""
    if not math.isfinite(step) or step <= 0 or step > 1:
        raise DecompositionError(f"grid step must be in (0, 1], got {step}")
    inverse = 1.0 / step
    parts = round(inverse) if math.isfinite(inverse) else 0
    if abs(parts * step - 1.0) > WEIGHT_TOLERANCE:
        raise DecompositionError(f"grid step {step} does not divide 1")
    return parts


def _check_grid_size(parts: int, counts: int) -> None:
    size = math.comb(parts + 3, 3) * counts
    if size > MAX_GRID_CANDIDATES:
        raise DecompositionError(
            f"grid of {size} candidates exceeds the limit of {MAX_GRID_CANDIDATES}; "
            "use a coarser step or fewer cluster counts"
        )


def weight_grid(step: float) -> list[SimilarityWeights]:
    """All weight combinations on a grid of the given step, summing to 1."""
    parts = _grid_parts(step)
    _check_grid_size(parts, 1)
    grid = []
    for a in range(parts + 1):
        for w in range(parts - a + 1):
            for r in range(parts - a - w + 1):
                s = parts - a - w - r
                grid.append(
                    SimilarityWeights(a * step, w * step, r * step, s * step)
                )
    return grid


def search_decompositions(
    model: MonolithModel, step: float, n_values: list[int] | tuple[int, ...]
) -> list[Decomposition]:
    """Cluster the model for every grid weight and every requested size.

    The similarity criteria are computed once, and each weight vector is
    clustered once and cut at every requested size. Results come back sorted
    by (weights, n).
    """
    if not n_values:
        raise DecompositionError("no cluster counts requested")
    for n in n_values:
        if n < 1 or n > len(model.entity_names()):
            raise DecompositionError(f"cluster count {n} out of range for this model")
    counts = sorted(set(n_values))
    _check_grid_size(_grid_parts(step), len(counts))
    criteria = _criteria(model)
    results = [
        d
        for weights in weight_grid(step)
        for d in _agglomerate(_combine(criteria, weights), weights, counts)
    ]
    results.sort(key=lambda d: (d.weights.as_tuple(), d.n))
    return results


def _json_array(items: list[str], indent: str) -> str:
    """A JSON array of already indented items, closed at ``indent``."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + f"\n{indent}]"


def decomposition_to_json(decomposition: Decomposition) -> str:
    """Write what ``json.dumps(..., indent=2, sort_keys=True)`` writes.

    With ``indent`` the json module runs its pure-Python encoder, so the
    layout is written here; strings go through its C quoting and numbers
    through its C encoder.
    """
    quote = encode_basestring_ascii
    clusters = [
        f"    {quote(name)}: "
        + _json_array([f"      {quote(m)}" for m in members], "    ")
        for name, members in sorted(dict(decomposition.clusters).items())
    ]
    # json.dumps separates the items of a flat list of numbers by ", ".
    weights = json.dumps(list(decomposition.weights.as_tuple()))[1:-1].split(", ")
    clusters_json = "{\n" + ",\n".join(clusters) + "\n  }" if clusters else "{}"
    return (
        f'{{\n  "clusters": {clusters_json},\n'
        f'  "params": {{\n    "n": {json.dumps(decomposition.n)},\n'
        f'    "weights": {_json_array([f"      {w}" for w in weights], "    ")}\n  }}\n}}\n'
    )


def _check_fit(
    decomposition: Decomposition, known: Container[str], traced: Iterable[str]
) -> None:
    """``check_decomposition``'s two rules, given the model's entity names
    and its traced entity names in trace order."""
    for _, members in decomposition.clusters:
        for entity in members:
            if entity not in known:
                raise DecompositionError(
                    f"decomposition names entity {entity!r}, which the model does not have"
                )
    assigned = {e for _, members in decomposition.clusters for e in members}
    for entity in traced:
        if entity not in assigned:
            raise DecompositionError(f"entity {entity!r} is not mapped to a cluster")


def check_decomposition(model: MonolithModel, decomposition: Decomposition) -> None:
    """Reject a decomposition that does not fit the model.

    Every entity it names must exist in the model, and every traced entity
    must be in one of its clusters.
    """
    traced = (a.entity for f in model.functionalities for a in f.trace)
    _check_fit(decomposition, set(model.entity_names()), traced)


def parse_decomposition(text: str) -> Decomposition:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # syntax, nesting depth or integer size
        raise ContractError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict) or "clusters" not in doc:
        raise ContractError("decomposition document must have a 'clusters' object")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ContractError("'params' must be an object")
    raw_weights = params.get("weights", [1.0, 0.0, 0.0, 0.0])
    if (
        not isinstance(raw_weights, list)
        or len(raw_weights) != 4
        or not all(type(v) in (int, float) for v in raw_weights)
    ):
        raise ContractError("params.weights must be a list of four numbers")
    try:
        values = [float(v) for v in raw_weights]
    except OverflowError as exc:
        raise ContractError("params.weights must be a list of four numbers") from exc
    weights = SimilarityWeights(*values)
    raw_clusters = doc["clusters"]
    if not isinstance(raw_clusters, dict) or not raw_clusters:
        raise ContractError("'clusters' must be a non-empty object")
    clusters = []
    seen: set[str] = set()
    for name in sorted(raw_clusters):
        members = raw_clusters[name]
        if not isinstance(members, list) or not members:
            raise ContractError(f"cluster {name!r} must list at least one entity")
        for m in members:
            if not isinstance(m, str):
                raise ContractError(f"cluster {name!r} has a non-string member")
            if m in seen:
                raise ContractError(f"entity {m!r} appears in more than one cluster")
            seen.add(m)
        clusters.append((name, tuple(sorted(members))))
    n = params.get("n", len(clusters))
    if n != len(clusters):
        raise ContractError(f"params.n is {n} but document has {len(clusters)} clusters")
    return Decomposition(weights, len(clusters), tuple(clusters))
