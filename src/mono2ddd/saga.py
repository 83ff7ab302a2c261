"""Rewrite fine-grained access traces as coarse-grained sagas.

A functionality's trace is collapsed into maximal same-cluster runs, and
each run merges backward into the last earlier step of its cluster whenever
the reordering cannot change the outcome of any read/write conflict
(``collapse_runs`` and ``merge_steps``). The result is a saga: an ordered
list of cluster-local steps plus an orchestrator.

Under a decomposition no such merge is ever blocked. A decomposition maps
each entity to exactly one cluster, so a run of cluster ``c`` touches only
entities of ``c`` and a step of any other cluster touches none of them: no
access between a run and the last step of its cluster can conflict with
it. Every run therefore joins that step, and a refactored saga has one
step per cluster the trace touches, in order of first appearance, holding
the cluster's accesses in trace order; its CGI is the number of clusters
touched. ``refactor_model`` and ``refactor_functionality`` build that
grouping directly from the trace columns, in one pass.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from ._record import record
from .decompose import Decomposition, _breaks_tsv, _json_array, check_decomposition
from .errors import ContractError, SagaError
from .model import WRITE, Access, Functionality, MonolithModel, _AccessColumns, _set_built

ORCHESTRATOR_POLICIES = ("first", "max-accesses")


@record(eq=False)
class Step(_AccessColumns):
    """One saga step: the cluster it runs in, its accesses in trace order,
    and its position in the saga.

    The accesses are stored as columns, like a functionality's trace (see
    ``mono2ddd.model``). Built from ``Access`` values, those values are the
    ``accesses`` tuple; built from a parsed sagas document, ``accesses``
    builds its tuple on the first read and returns it on every later one.
    A step refactored from a functionality keeps that functionality in
    place of the tuple, and its first read of ``accesses`` picks the
    functionality's own ``Access`` objects out of ``trace``, so the saga
    holds exactly the trace's objects whichever is read first. The link
    travels as a built tuple does: a copy shares the functionality, a deep
    copy copies it.
    """

    __slots__ = ("cluster", "index")
    cluster: str
    accesses: tuple[Access, ...]
    index: int

    def __init__(self, cluster: str, accesses: tuple[Access, ...], index: int):
        _set_cluster(self, cluster)
        self._set_accesses(accesses)
        _set_index(self, index)

    @classmethod
    def _from_columns(
        cls,
        cluster: str,
        entities: tuple[str, ...],
        modes: str,
        index: int,
        source: Functionality | None = None,
    ) -> Step:
        """A step from checked columns: as many non-empty entity names as
        ``R``/``W`` characters. ``source`` is the functionality whose trace
        holds these accesses at the positions of these entities, and no
        others."""
        step = object.__new__(cls)
        _set_cluster(step, cluster)
        step._set_columns(entities, modes)
        _set_index(step, index)
        if source is not None:
            _set_built(step, source)
        return step

    def _key(self) -> tuple:
        return (self.cluster, self._entities, self._modes, self.index)

    def _step_accesses(self) -> tuple[Access, ...]:
        source = self._built
        if source.__class__ is not Functionality:
            return self._accesses()
        own = frozenset(self._entities)
        built = tuple([a for a in source.trace if a.entity in own])
        _set_built(self, built)
        return built


_set_cluster = Step.cluster.__set__
_set_index = Step.index.__set__
Step.accesses = property(Step._step_accesses, doc="The step's accesses as ``Access`` values.")


@record
class Saga:
    functionality: str
    orchestrator: str
    steps: tuple[Step, ...]


@record
class ReductionStats:
    functionality: str
    clusters_touched: int
    cgi: int
    fgi: int
    reduction_pct: float


def collapse_runs(
    trace: tuple[Access, ...], entity_to_cluster: dict[str, str]
) -> list[tuple[str, list[Access]]]:
    """Group consecutive accesses that stay within one cluster."""
    steps: list[tuple[str, list[Access]]] = []
    for access in trace:
        try:
            cluster = entity_to_cluster[access.entity]
        except KeyError:
            raise SagaError(f"entity {access.entity!r} is not mapped to a cluster") from None
        if steps and steps[-1][0] == cluster:
            steps[-1][1].append(access)
        else:
            steps.append((cluster, [access]))
    return steps


def _collapse(steps: list[tuple[str, list[Access]]]) -> list[tuple[str, list[Access]]]:
    """Join adjacent same-cluster steps, copying every access list."""
    collapsed: list[tuple[str, list[Access]]] = []
    for cluster, accesses in steps:
        if collapsed and collapsed[-1][0] == cluster:
            collapsed[-1][1].extend(accesses)
        else:
            collapsed.append((cluster, list(accesses)))
    return collapsed


def _merge_target(
    live: list[tuple[str, list[Access], set[str], set[str]]],
    cluster: str,
    written: set[str],
    touched: set[str],
) -> int | None:
    """Index of the live step a new step may merge into, or None.

    Walks back to the last step of ``cluster`` and stops early at the first
    step whose accesses conflict with the moved ones.
    """
    for j in range(len(live) - 1, -1, -1):
        other, _, other_written, other_touched = live[j]
        if other == cluster:
            return j
        if not (written.isdisjoint(other_touched) and touched.isdisjoint(other_written)):
            return None
    return None


def merge_steps(
    steps: list[tuple[str, list[Access]]]
) -> list[tuple[str, list[Access]]]:
    """Merge steps into earlier same-cluster steps where conflicts allow.

    The result is the fixpoint of this rule: take the first step ``i`` whose
    last earlier same-cluster step ``t`` exists and whose accesses do not
    conflict with those of steps ``t+1 .. i-1``; append step ``i`` to step
    ``t``, delete it, join adjacent same-cluster steps, and apply the rule
    again. Moving accesses M past accesses B conflicts exactly when an
    entity written in M is touched in B or an entity touched in M is
    written in B, so each step keeps its written and touched entity sets
    and the test walks step by step with ``isdisjoint``.

    The scan never restarts. A merge only grows earlier steps, and the
    conflict test is monotone in both the moved and the intervening
    accesses, so every step before ``i`` that was blocked, or had no earlier
    step of its cluster, stays that way; the scan resumes after ``i``. In a
    collapsed list the only adjacency a merge creates is the seam between
    steps ``i-1`` and ``i+1``, and the next scan step closes it as an
    ordinary merge into its neighbour. Input that is not collapsed is fully
    collapsed at the first merge, as the rule does, so the result is the
    same for any input. Each step is moved at most once and walks back only
    over live steps.

    On the runs of a trace under a decomposition nothing is ever blocked:
    each entity belongs to exactly one cluster, so the entities of a moved
    step and of every step it walks back over are disjoint. The result is
    then one step per cluster, in order of first appearance, which
    ``refactor_model`` builds without this walk.
    """
    live: list[tuple[str, list[Access], set[str], set[str]]] = []
    pending = steps
    k = 0
    collapsed = False
    while k < len(pending):
        cluster, accesses = pending[k]
        k += 1
        written = {a.entity for a in accesses if a.mode == WRITE}
        touched = {a.entity for a in accesses}
        target = _merge_target(live, cluster, written, touched)
        if target is None:
            live.append((cluster, list(accesses), written, touched))
            continue
        _, merged, merged_written, merged_touched = live[target]
        merged.extend(accesses)
        merged_written |= written
        merged_touched |= touched
        if not collapsed:
            pending, k, collapsed = _collapse(pending[k:]), 0, True
    return [(cluster, accesses) for cluster, accesses, _, _ in live]


def _pick_orchestrator(sizes: dict[str, int], policy: str) -> str:
    """The orchestrator of a saga with ``sizes[c]`` accesses in the step of
    cluster ``c``, the clusters in step order."""
    if policy == "first":
        return next(iter(sizes))
    if policy == "max-accesses":
        best = max(sizes.values())
        return min(c for c, n in sizes.items() if n == best)
    raise SagaError(f"unknown orchestrator policy {policy!r}")


def _refactor(
    functionality: Functionality, mapping: dict[str, str], orchestrator_policy: str
) -> tuple[Saga, ReductionStats]:
    """The saga of one trace: its positions grouped by cluster (see the
    module docstring), read from the trace columns. ``mapping`` is
    ``check_decomposition``'s map, so it holds every traced entity."""
    entities = functionality._entities
    modes = functionality._modes
    groups: dict[str, list[int]] = {}
    for position, cluster in enumerate(map(mapping.__getitem__, entities)):
        group = groups.get(cluster)
        if group is None:
            groups[cluster] = [position]
        else:
            group.append(position)
    steps = []
    for index, (cluster, positions) in enumerate(groups.items()):
        if len(positions) == len(entities):
            columns = entities, modes
        elif len(positions) == 1:
            columns = (entities[positions[0]],), modes[positions[0]]
        else:
            pick = itemgetter(*positions)
            columns = pick(entities), "".join(pick(modes))
        steps.append(Step._from_columns(cluster, *columns, index, functionality))
    sizes = {cluster: len(positions) for cluster, positions in groups.items()}
    saga = Saga(
        functionality=functionality.name,
        orchestrator=_pick_orchestrator(sizes, orchestrator_policy),
        steps=tuple(steps),
    )
    fgi = len(entities)
    cgi = len(steps)
    stats = ReductionStats(
        functionality=functionality.name,
        clusters_touched=cgi,
        cgi=cgi,
        fgi=fgi,
        reduction_pct=1.0 - cgi / fgi,
    )
    return saga, stats


def refactor_functionality(
    model: MonolithModel,
    decomposition: Decomposition,
    name: str,
    orchestrator_policy: str = "first",
) -> tuple[Saga, ReductionStats]:
    mapping = check_decomposition(model, decomposition)
    try:
        functionality = model.functionality(name)
    except KeyError:
        raise SagaError(f"unknown functionality {name!r}") from None
    return _refactor(functionality, mapping, orchestrator_policy)


def refactor_model(
    model: MonolithModel,
    decomposition: Decomposition,
    orchestrator_policy: str = "first",
) -> list[tuple[Saga, ReductionStats]]:
    mapping = check_decomposition(model, decomposition)
    return [_refactor(f, mapping, orchestrator_policy) for f in model.functionalities]


class _AccessItems(dict):
    """The JSON text of each ``(entity, mode)`` step entry, written on first use."""

    def __missing__(self, key: tuple[str, str]) -> str:
        entity, mode = key
        text = self[key] = (
            f"            [\n              {encode_basestring_ascii(entity)},\n"
            f"              {encode_basestring_ascii(mode)}\n            ]"
        )
        return text


def sagas_to_json(sagas: list[Saga]) -> str:
    """Write what ``json.dumps(..., indent=2, sort_keys=True)`` writes.

    With ``indent`` the json module runs its pure-Python encoder, so the
    layout is written here and only the strings go through its C quoting.
    Each distinct ``(entity, mode)`` item is written once per call.
    """
    quote = encode_basestring_ascii
    items = _AccessItems()
    item = items.__getitem__
    saga_items = []
    for s in sagas:
        step_items = []
        for step in s.steps:
            accesses = list(map(item, zip(step._entities, step._modes)))
            step_items.append(
                f'        {{\n          "accesses": {_json_array(accesses, " " * 10)},\n'
                f'          "cluster": {quote(step.cluster)}\n        }}'
            )
        saga_items.append(
            f'    {{\n      "functionality": {quote(s.functionality)},\n'
            f'      "orchestrator": {quote(s.orchestrator)},\n'
            f'      "steps": {_json_array(step_items, " " * 6)}\n    }}'
        )
    return f'{{\n  "sagas": {_json_array(saga_items, "  ")}\n}}\n'


def parse_sagas(text: str) -> list[Saga]:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # syntax, nesting depth or integer size
        raise ContractError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("sagas", None), list):
        raise ContractError("sagas document must have a 'sagas' list")
    result = []
    for i, raw in enumerate(doc["sagas"]):
        loc = f"sagas[{i}]"
        if not isinstance(raw, dict):
            raise ContractError("saga must be an object", loc)
        name = raw.get("functionality")
        orchestrator = raw.get("orchestrator")
        raw_steps = raw.get("steps")
        if not isinstance(name, str) or not name:
            raise ContractError("missing functionality name", loc)
        if not isinstance(orchestrator, str) or not orchestrator:
            raise ContractError("missing orchestrator", loc)
        if not isinstance(raw_steps, list) or not raw_steps:
            raise ContractError("missing steps", loc)
        steps = []
        for j, rs in enumerate(raw_steps):
            sloc = f"{loc}.steps[{j}]"
            if not isinstance(rs, dict) or not isinstance(rs.get("cluster"), str):
                raise ContractError("step must name a cluster", sloc)
            raw_accesses = rs.get("accesses")
            if not isinstance(raw_accesses, list) or not raw_accesses:
                raise ContractError("step must list accesses", sloc)
            entities: list[str] = []
            modes: list[str] = []
            add_entity = entities.append
            add_mode = modes.append
            for entry in raw_accesses:
                # The shape json.loads gives a valid entry; anything else is checked in full.
                if type(entry) is list and len(entry) == 2:
                    entity, mode = entry
                    if type(entity) is str and entity and (mode == "R" or mode == "W"):
                        add_entity(entity)
                        add_mode(mode)
                        continue
                entity, mode = _checked_access(entry, sloc)
                add_entity(entity)
                add_mode(mode)
            steps.append(Step._from_columns(rs["cluster"], tuple(entities), "".join(modes), j))
        result.append(Saga(name, orchestrator, tuple(steps)))
    return result


def _checked_access(entry, sloc: str) -> tuple[str, str]:
    """The entity and mode of one step entry off the fast path, or its ContractError."""
    if (
        not isinstance(entry, list)
        or len(entry) != 2
        or not all(isinstance(x, str) for x in entry)
    ):
        raise ContractError("access must be [entity, mode]", sloc)
    try:
        access = Access(entry[0], entry[1])
    except ValueError as exc:
        raise ContractError(str(exc), sloc) from exc
    return access.entity, access.mode


def stats_tsv(stats: list[ReductionStats]) -> str:
    """The reduction table; a functionality name that would break a row
    (a tab or a line break in it) raises ``SagaError``."""
    lines = ["name\tclusters\tCGI\tFGI\treduction%"]
    for s in stats:
        if _breaks_tsv(s.functionality):
            raise SagaError(f"functionality name {s.functionality!r} cannot be a TSV field")
        lines.append(
            "\t".join(
                (
                    s.functionality,
                    str(s.clusters_touched),
                    str(s.cgi),
                    str(s.fgi),
                    f"{s.reduction_pct * 100:.2f}",
                )
            )
        )
    return "\n".join(lines) + "\n"
