"""Similarity-driven clustering of entities into candidate decompositions.

The pipeline is: trace index -> pairwise similarity -> agglomerative
clustering (average linkage on distance ``1 - s``) -> named clusters. A grid
search enumerates weight combinations and cluster counts to produce candidate
decompositions for later ranking.

One walk over a model's traces builds its index (``_index``), which the
measures in ``measures``, a grid search's similarity and any similarity
that weighs writes, reads or sequence read. Similarity is weighed straight
into the rows of numbered entity distances that the clustering reads; one
weight vector's similarity computes only the criteria it weighs, and one
that weighs access alone reads each trace only for its distinct entities.

Clustering does not re-sum linkages: a float screen kept by Lance and
Williams' update rule, with a nearest-neighbour cache per row, finds the
closest pair, and only pairs the screen cannot tell apart are re-summed
exactly as the merge rule defines them, so a whole merge sequence costs
about the square of the entity count rather than its cube.

Everything here is deterministic: ties in the linkage step are broken by the
lexicographically smallest pair of cluster representatives, and cluster names
are assigned by each cluster's smallest member.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_left
from collections import Counter
from functools import reduce
from itertools import compress
from json.encoder import encode_basestring_ascii
from operator import add

from ._record import record
from .errors import ContractError, DecompositionError, json_document
from .model import READ, MonolithModel

WEIGHT_TOLERANCE = 1e-9
# Largest number of (weights, n) candidates a grid may have: C(parts + 3, 3)
# weight vectors, where parts = 1 / step, times the number of distinct
# cluster counts. Larger grids are rejected before any is built; step 0.02
# with three counts (70278 candidates) still fits, step 0.01 does not.
MAX_GRID_CANDIDATES = 100_000


@record
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
        total = reduce(add, values, 0.0)
        if abs(total - 1.0) > WEIGHT_TOLERANCE:
            raise DecompositionError(f"weights must sum to 1, got {total}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.access, self.write, self.read, self.sequence)


@record(uncompared=("rows",))
class SimilarityMatrix:
    """Symmetric entity distances, numbered in entity name order.

    ``entities`` are the model's distinct entity names in name order, and
    ``rows[i][j]`` is the distance ``1 - s`` of ``entities[i]`` and
    ``entities[j]``.
    """

    entities: tuple[str, ...]
    rows: list[list[float]]

    def distance(self, e1: str, e2: str) -> float:
        """The pair's distance; a name the model lacks is at 1 from all others."""
        if e1 == e2:
            return 0.0
        names = self.entities
        i, j = bisect_left(names, e1), bisect_left(names, e2)
        if names[i : i + 1] == (e1,) and names[j : j + 1] == (e2,):
            return self.rows[i][j]
        return 1.0

    def similarity(self, e1: str, e2: str) -> float:
        return 1.0 - self.distance(e1, e2)


@record
class Decomposition:
    """A named partition of the model's entities.

    Building one checks that it is a partition, in this order, and raises
    ``DecompositionError`` for the first fault: no clusters, then per
    cluster in order a name an earlier cluster has, no entities, or an
    entity listed already; then an ``n`` that is not the int count of the
    clusters. Whether it fits a model is ``check_decomposition``'s.
    """

    weights: SimilarityWeights
    n: int
    clusters: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        clusters = self.clusters
        if not clusters:
            raise DecompositionError("decomposition has no clusters")
        names, listed = set(), set()
        for name, members in clusters:
            if name in names:
                raise DecompositionError(f"two clusters are named {name!r}")
            if not members:
                raise DecompositionError(f"cluster {name!r} has no entities")
            for m in members:
                if m in listed:
                    raise DecompositionError(f"entity {m!r} is listed more than once")
                listed.add(m)
            names.add(name)
        n = self.n
        if type(n) is not int or n != len(clusters):
            raise DecompositionError(f"n is {n!r} but the decomposition has {len(clusters)} clusters")

    def cluster_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.clusters)

    def members(self, name: str) -> tuple[str, ...]:
        for cname, members in self.clusters:
            if cname == name:
                return members
        raise DecompositionError(f"unknown cluster {name!r}")

    def assignment(self) -> dict[str, str]:
        return {e: name for name, members in self.clusters for e in members}


@record
class _Index:
    """The facts of one model's traces that similarity and the measures read.

    Entities are numbered: the model's distinct entity names in name order
    (``names``, so comparing numbers compares names), then any traced entity
    the model lacks (only a hand-built model has one, and no decomposition
    fits it) in first-seen order. A set of entities is a bit mask over those
    numbers, and a set of functionalities is a bit mask over their model
    positions. Whether a decomposition fits is ``check_decomposition``'s.

    - ``ids``: entity name -> number.
    - Per functionality, in model order: its name (``functionalities``), the
      mask of its entities (``entities``), its trace's entities with each
      repeat dropped (``runs``: consecutive entries follow each other),
      entity -> its reads (``reads``) and writes (``writes``) of it, and
      ``own``, ``reads + writes`` summed over the entities it both reads and
      writes (there it meets itself among the accessors in the other mode).
    - Per entity: the functionalities that read it (``readers``) and write it
      (``writers``), and the entities that directly follow it (``successors``).
    """

    names: tuple[str, ...]
    ids: dict[str, int]
    functionalities: tuple[str, ...]
    entities: tuple[int, ...]
    runs: tuple[list[int], ...]
    reads: tuple[dict[int, int], ...]
    writes: tuple[dict[int, int], ...]
    own: tuple[int, ...]
    readers: tuple[int, ...]
    writers: tuple[int, ...]
    successors: tuple[int, ...]


def _names(model: MonolithModel) -> tuple[str, ...]:
    """The model's distinct entity names in name order, numbered by position."""
    return tuple(sorted(set(model.entity_names())))


def _index(model: MonolithModel) -> _Index:
    """Walk every trace once and keep what similarity and the measures need."""
    names = _names(model)
    ids = {name: e for e, name in enumerate(names)}
    readers = [0] * len(names)
    writers = [0] * len(names)
    successors = [0] * len(names)
    masks, runs, all_reads, all_writes, all_own = [], [], [], [], []
    for position, f in enumerate(model.functionalities):
        reads: dict[int, int] = {}
        writes: dict[int, int] = {}
        run: list[int] = []
        prev = -1
        for entity, mode in zip(f._entities, f._modes):
            e = ids.get(entity)
            if e is None:
                e = ids[entity] = len(readers)
                readers.append(0)
                writers.append(0)
                successors.append(0)
            if mode == READ:
                reads[e] = reads.get(e, 0) + 1
            else:
                writes[e] = writes.get(e, 0) + 1
            if e != prev:
                if prev >= 0:
                    successors[prev] |= 1 << e
                run.append(e)
                prev = e
        bit = 1 << position
        mask = 0
        for e in reads:
            readers[e] |= bit
            mask |= 1 << e
        for e in writes:
            writers[e] |= bit
            mask |= 1 << e
        masks.append(mask)
        runs.append(run)
        all_reads.append(reads)
        all_writes.append(writes)
        all_own.append(sum([reads[e] + writes[e] for e in reads.keys() & writes.keys()]))
    return _Index(
        names=names,
        ids=ids,
        functionalities=tuple(f.name for f in model.functionalities),
        entities=tuple(masks),
        runs=tuple(runs),
        reads=tuple(all_reads),
        writes=tuple(all_writes),
        own=tuple(all_own),
        readers=tuple(readers),
        writers=tuple(writers),
        successors=tuple(successors),
    )


def _criteria(index: _Index) -> list[tuple]:
    """The weight-independent part of the similarity of every entity pair.

    For every pair ``i < j`` of the model's entities: the directed access,
    write and read ratios both ways plus the symmetric sequence ratio,
    ``(i, j, a_ij, w_ij, r_ij, a_ji, w_ji, r_ji, s)``. A directed ratio is
    the share of ``i``'s accessors (writers, readers) that also access
    (write, read) ``j``; both directions share one intersection size,
    ``(m1 & m2).bit_count()``. ``s`` counts the pair's consecutive
    occurrences in either order over the count of the most frequent pair.
    A grid search computes these once and weighs them per vector
    (``_combine``); ``build_similarity``, for one vector, computes only the
    ones its weights use.
    """
    pair_counts = _pair_counts(index)
    max_pair = max(pair_counts.values(), default=0)

    entities = range(len(index.names))
    rd, wr = index.readers, index.writers
    acc = [r | w for r, w in zip(rd, wr)]
    pairs = []
    for i in entities:
        a1, w1, r1 = acc[i], wr[i], rd[i]
        na1, nw1, nr1 = a1.bit_count(), w1.bit_count(), r1.bit_count()
        for j in entities[i + 1 :]:
            a2, w2, r2 = acc[j], wr[j], rd[j]
            na2, nw2, nr2 = a2.bit_count(), w2.bit_count(), r2.bit_count()
            shared_a = (a1 & a2).bit_count()
            shared_w = (w1 & w2).bit_count()
            shared_r = (r1 & r2).bit_count()
            follows = pair_counts.get((i, j), 0)
            pairs.append(
                (
                    i,
                    j,
                    shared_a / na1 if na1 else 0.0,
                    shared_w / nw1 if nw1 else 0.0,
                    shared_r / nr1 if nr1 else 0.0,
                    shared_a / na2 if na2 else 0.0,
                    shared_w / nw2 if nw2 else 0.0,
                    shared_r / nr2 if nr2 else 0.0,
                    follows / max_pair if max_pair else 0.0,
                )
            )
    return pairs


def _combine(
    names: tuple[str, ...], criteria: list[tuple], weights: SimilarityWeights
) -> SimilarityMatrix:
    """Weigh the criteria into distance rows.

    Each direction is ``wa*a + ww*w + wr*r + ws*s``, the pair's similarity
    is the mean of both directions, evaluated in this order so every weight
    vector gives the same floats as a from-scratch computation, and its
    distance is ``1 - similarity``.
    """
    wa, ww, wr, ws = weights.as_tuple()
    rows = [[0.0] * len(names) for _ in names]
    for i, j, a12, w12, r12, a21, w21, r21, s in criteria:
        rows[i][j] = rows[j][i] = 1.0 - (
            (wa * a12 + ww * w12 + wr * r12 + ws * s) + (wa * a21 + ww * w21 + wr * r21 + ws * s)
        ) / 2.0
    return SimilarityMatrix(names, rows)


def _pair_counts(index: _Index) -> dict[tuple[int, int], int]:
    """How often each pair ``i < j`` occurs consecutively, in either order."""
    follows: Counter[tuple[int, int]] = Counter()
    for run in index.runs:
        follows.update(zip(run, run[1:]))
    pair_counts: dict[tuple[int, int], int] = {}
    for (prev, e), count in follows.items():
        key = (prev, e) if prev < e else (e, prev)
        pair_counts[key] = pair_counts.get(key, 0) + count
    return pair_counts


def _accessors(model: MonolithModel, names: tuple[str, ...]) -> list[int]:
    """Per entity of ``names``, as ``_index`` numbers them, the mask of the
    functionalities that access it, read from each trace's distinct entities.

    A traced entity the model does not declare has no number in ``names``
    and is skipped; ``_index`` numbers it after them, so no similarity row
    reads it there either.
    """
    get = {name: e for e, name in enumerate(names)}.get
    acc = [0] * len(names)
    for position, f in enumerate(model.functionalities):
        bit = 1 << position
        for entity in set(f._entities):
            e = get(entity)
            if e is not None:
                acc[e] |= bit
    return acc


def build_similarity(model: MonolithModel, weights: SimilarityWeights) -> SimilarityMatrix:
    """Compute the symmetrized similarity matrix for all model entities.

    Only the criteria whose weight is non-zero are computed: the sequence
    pair counts, and each intersection of accessors, writers or readers,
    only when its weight needs it. The write, read and sequence criteria
    read the trace index (``_index``); the access criterion alone takes its
    masks from each trace's distinct entities (``_accessors``). Each
    direction adds its terms in the order of ``_combine`` onto ``0.0``. A
    term of weight zero is a zero, and adding a zero changes at most the
    sign of a zero sum, which ``1.0 - (forward + backward) / 2.0`` erases;
    so every distance is bit-equal to ``_combine`` over all four criteria.
    """
    wa, ww, wr, ws = weights.as_tuple()
    if ww or wr or ws:
        index = _index(model)
        names, rd, wt = index.names, index.readers, index.writers
        acc = [r | w for r, w in zip(rd, wt)]
        pair_counts = _pair_counts(index) if ws else {}
    else:
        names = _names(model)
        acc = rd = wt = _accessors(model, names)
        pair_counts = {}
    size = len(names)
    na, nw, nr = ([m.bit_count() for m in masks] for masks in (acc, wt, rd))
    max_pair = max(pair_counts.values(), default=0)
    rows = [[0.0] * size for _ in names]
    for i in range(size):
        a1, w1, r1 = acc[i], wt[i], rd[i]
        na1, nw1, nr1 = na[i], nw[i], nr[i]
        row = rows[i]
        for j in range(i + 1, size):
            forward = backward = 0.0
            if wa:
                shared, n2 = (a1 & acc[j]).bit_count(), na[j]
                forward += wa * (shared / na1 if na1 else 0.0)
                backward += wa * (shared / n2 if n2 else 0.0)
            if ww:
                shared, n2 = (w1 & wt[j]).bit_count(), nw[j]
                forward += ww * (shared / nw1 if nw1 else 0.0)
                backward += ww * (shared / n2 if n2 else 0.0)
            if wr:
                shared, n2 = (r1 & rd[j]).bit_count(), nr[j]
                forward += wr * (shared / nr1 if nr1 else 0.0)
                backward += wr * (shared / n2 if n2 else 0.0)
            if ws:
                follows = ws * (pair_counts.get((i, j), 0) / max_pair if max_pair else 0.0)
                forward += follows
                backward += follows
            row[j] = rows[j][i] = 1.0 - (forward + backward) / 2.0
    return SimilarityMatrix(names, rows)


def _linkage(rows: list[list[float]], a: list[int], b: list[int]) -> float:
    """The average linkage of clusters ``a`` and ``b`` as the merge rule reads it.

    ``a`` is the cluster with the smaller head. Its sorted members are the
    outer loop and ``b``'s sorted members the inner one; the terms are
    summed left to right onto ``0.0`` in that order (``reduce``, not ``sum``,
    which Python 3.12 compensates) and divided by ``len(a) * len(b)``.
    """
    terms = [row[y] for row in map(rows.__getitem__, a) for y in b]
    return reduce(add, terms, 0.0) / (len(a) * len(b))


def _agglomerate(
    matrix: SimilarityMatrix, weights: SimilarityWeights, n_values: list[int]
) -> list[Decomposition]:
    """Merge down to ``min(n_values)`` clusters, cutting at every requested count.

    The merge sequence does not depend on where it stops, so each cut equals
    a separate run down to that count. Entities are numbered in name order
    and a cluster is keyed by its smallest member (its head). Each merge
    joins the pair with the smallest ``(_linkage, lo, hi)``, where ``lo <
    hi`` are the two heads.

    Finding that pair does not re-sum every linkage. A screen keeps float
    average linkages, updated at each merge by Lance and Williams' rule
    ``d(k, a|b) = (na*d(k, a) + nb*d(k, b)) / (na + nb)``, and each head
    caches its nearest larger head (value and partner); a merge rescans
    only the merged row and the rows whose partner was one of the pair
    (Müllner's generic algorithm, not the NN-chain, whose order of tied
    merges differs). The pairs whose screened value is within ``tol`` of
    the screened minimum are the candidates. A single candidate is merged;
    several are each recomputed with ``_linkage`` and the smallest
    ``(value, lo, hi)`` is merged.

    The screen chooses what ``_linkage`` would choose if ``tol`` is at least
    twice the largest gap between a screened value and its ``_linkage``:
    then the pair ``_linkage`` ranks first, and every pair tied with it,
    lies within ``tol`` of the screened minimum. With ``E`` entities, unit
    roundoff ``u = 2**-53`` and distances of magnitude at most 1 (plus the
    weights' 1e-9 slack), ``_linkage`` sums at most ``E*E/4`` terms in order,
    so it is off the real mean by at most about ``(E*E/4 + 1) * u``; each
    Lance-Williams update averages its inputs' errors and adds at most
    ``3u``, and a linkage is updated at most ``E`` times, so a screened value
    is off by at most about ``3*E*u``. Twice their sum is below
    ``tol = (E + 4)**2 * u``, so every merge is the one that re-summing all
    linkages would make.
    """
    names, rows = matrix.entities, matrix.rows
    size = len(names)
    tol = (size + 4) ** 2 * 2.0**-53
    inf = math.inf
    screened = [row[:] for row in rows]
    for e, row in enumerate(screened):
        row[e] = inf
    nearest = [inf] * size
    partner = [-1] * size

    def rescan(i: int) -> None:
        row = screened[i]
        value = nearest[i] = min(row[i + 1 :], default=inf)
        partner[i] = row.index(value, i + 1) if value < inf else -1

    for e in range(size):
        rescan(e)
    members: dict[int, list[int]] = {e: [e] for e in range(size)}
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
        limit = min(nearest) + tol
        pairs = [
            (lo, hi)
            for lo in compress(range(size), map(limit.__ge__, nearest))
            for hi in compress(range(lo + 1, size), map(limit.__ge__, screened[lo][lo + 1 :]))
        ]
        if len(pairs) == 1:
            [(lo, hi)] = pairs
        else:
            _, lo, hi = min((_linkage(rows, members[a], members[b]), a, b) for a, b in pairs)

        a, b = members[lo], members.pop(hi)
        na, nb = len(a), len(b)
        row_lo, row_hi = screened[lo], screened[hi]
        row_lo[hi] = nearest[hi] = inf
        for k in members:
            if k == lo:
                continue
            value = row_lo[k] = (na * row_lo[k] + nb * row_hi[k]) / (na + nb)
            row_k = screened[k]
            row_k[lo] = value
            row_k[hi] = inf
            if k < lo:
                if partner[k] == lo or partner[k] == hi:
                    rescan(k)
                # An average is never below both its inputs; only rounding
                # can take it under the cached value.
                elif value < nearest[k]:
                    nearest[k], partner[k] = value, lo
            elif k < hi and partner[k] == hi:
                rescan(k)
        rescan(lo)
        members[lo] = sorted(a + b)
    return [cuts[n] for n in sorted(wanted)]


def cluster(matrix: SimilarityMatrix, weights: SimilarityWeights, n: int) -> Decomposition:
    """Agglomerate entities into ``n`` clusters with average linkage.

    Cluster distance is the mean pairwise entity distance. Each merge joins
    the closest pair, and a tie goes to the pair whose smallest members come
    first by name (the smaller of the two, then the other), so equal inputs
    always produce equal outputs. Each merge costs time linear in the
    number of clusters, plus a rescan of the few rows whose nearest
    neighbour merged; ``_agglomerate`` says how, and why the float screen
    it uses picks the same pair as re-summing every linkage would.
    """
    entities = matrix.entities
    n = _integer(n, "cluster count")
    if n < 1:
        raise DecompositionError(f"cluster count must be positive, got {n}")
    if n > len(entities):
        raise DecompositionError(f"cannot make {n} clusters from {len(entities)} entities")
    return _agglomerate(matrix, weights, [n])[0]


def _integer(value, what: str) -> int:
    """``value`` as ``operator.index`` reads it; ``DecompositionError`` if it refuses."""
    try:
        return operator.index(value)
    except TypeError:
        raise DecompositionError(f"{what} must be an integer, got {value!r}") from None


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
    return _search(_index(model), step, n_values)


def _search(
    index: _Index, step: float, n_values: list[int] | tuple[int, ...]
) -> list[Decomposition]:
    """``search_decompositions`` on an index built already."""
    if not n_values:
        raise DecompositionError("no cluster counts requested")
    n_values = [_integer(n, "cluster count") for n in n_values]
    for n in n_values:
        if n < 1 or n > len(index.names):
            raise DecompositionError(f"cluster count {n} out of range for this model")
    counts = sorted(set(n_values))
    _check_grid_size(_grid_parts(step), len(counts))
    criteria = _criteria(index)
    results = [
        d
        for weights in weight_grid(step)
        for d in _agglomerate(_combine(index.names, criteria, weights), weights, counts)
    ]
    results.sort(key=lambda d: (d.weights.as_tuple(), d.n))
    return results


def _json_array(items: list[str], indent: str) -> str:
    """A JSON array of already indented items, closed at ``indent``."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + f"\n{indent}]"


def _breaks_tsv(name: str) -> bool:
    """Whether ``name`` holds a tab or a line boundary ``str.splitlines`` splits at."""
    return "\t" in name or "".join(name.splitlines()) != name


def decomposition_to_json(decomposition: Decomposition) -> str:
    """Write what ``json.dumps(..., indent=2, sort_keys=True)`` writes.

    With ``indent`` the json module runs its pure-Python encoder, so the
    layout is written here; strings go through its C quoting and numbers
    through its C encoder. A ``Decomposition`` is a partition, so
    ``parse_decomposition`` reads the text back as the same one.
    """
    quote = encode_basestring_ascii
    clusters = [
        f"    {quote(name)}: "
        + _json_array([f"      {quote(m)}" for m in members], "    ")
        for name, members in sorted(decomposition.clusters)
    ]
    # json.dumps separates the items of a flat list of numbers by ", ".
    weights = json.dumps(list(decomposition.weights.as_tuple()))[1:-1].split(", ")
    clusters_json = "{\n" + ",\n".join(clusters) + "\n  }"
    return (
        f'{{\n  "clusters": {clusters_json},\n'
        f'  "params": {{\n    "n": {decomposition.n},\n'
        f'    "weights": {_json_array([f"      {w}" for w in weights], "    ")}\n  }}\n}}\n'
    )


def check_decomposition(model: MonolithModel, decomposition: Decomposition) -> dict[str, str]:
    """Each listed entity's cluster.

    ``DecompositionError`` names the first listed entity the model lacks,
    else the first traced entity in no cluster. Every function that takes a
    model and a decomposition applies this rule through this function. The
    traced names are the model's set of them; only an error walks the
    traces, for the first one in trace order.
    """
    owner = decomposition.assignment()
    known = set(model.entity_names())
    for entity in owner:
        if entity not in known:
            raise DecompositionError(
                f"decomposition names entity {entity!r}, which the model does not have"
            )
    if not owner.keys() >= model._traced_names:
        for entity in model._traced:
            if entity not in owner:
                raise DecompositionError(f"entity {entity!r} is not mapped to a cluster")
    return owner


def parse_decomposition(text: str) -> Decomposition:
    doc = json_document(text)
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
    if type(n) is not int:
        raise ContractError(f"params.n must be an integer, got {n!r}")
    if n != len(clusters):
        raise ContractError(f"params.n is {n} but document has {len(clusters)} clusters")
    return Decomposition(weights, len(clusters), tuple(clusters))
