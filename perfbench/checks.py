"""Output checks, run outside the timed region.

Two kinds. Every artifact's SHA-256 must match the digest pinned for that
workload and seed in `pinned.json` (or, for a seed with no pin, the first
rep's digest, so reps at least agree). Independent checks then run once per
run on the first rep's files, using `tests/oracles.py` and `tests/dotcheck.py`
read-only: every search candidate is re-clustered and re-measured and the
winner re-ranked, assess is recomputed by the brute-force measures, every
saga passes `check_saga`, every emitted `.cml` validates to `[]` and every DOT
file parses.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import dotcheck
import oracles
from mono2ddd.cml import parse_document, validate_document
from mono2ddd.ingest import parse_model

PINNED = Path(__file__).resolve().parent / "pinned.json"
PINNED_SEEDS = range(40)  # `pin.py` pins every one of these for every workload
DIGEST_CHARS = 16
# oracle_complexity costs about (total trace length)^2 steps; above this the
# assess check recomputes cohesion and coupling only.
ORACLE_COMPLEXITY_LIMIT = 5e7
TOLERANCE = 1.5e-6  # the TSVs print six decimals
SEARCH_SAMPLE = 3  # partitions besides the winner's whose complexity is recomputed


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:DIGEST_CHARS]


def pinned(workload: str, seed: int) -> dict[str, str] | None:
    if not PINNED.exists():
        return None
    table = json.loads(PINNED.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


class Checker:
    """Independent checks of one rep's artifacts; each returns problems."""

    def __init__(self, rep_dir: Path, plan):
        self.rep = rep_dir
        self.plan = plan
        self._model = None

    def text(self, name: str) -> str:
        return (self.rep / name).read_text(encoding="utf-8")

    @property
    def model(self):
        if self._model is None:
            structure = self.text(self.plan.structure) if self.plan.structure else None
            self._model = parse_model(self.text(self.plan.accesses), structure)
        return self._model

    def clusters(self, name: str) -> dict[str, list[str]]:
        return json.loads(self.text(name))["clusters"]

    def run(self, op) -> list[str]:
        try:
            return getattr(self, f"check_{op.check}")(op)
        except Exception as exc:  # a malformed artifact is a failed check
            return [f"{op.name}: check raised {type(exc).__name__}: {exc}"]

    def _close(self, what: str, got: float, want: float) -> list[str]:
        if abs(got - want) > TOLERANCE:
            return [f"{what}: output {got} but oracle {want}"]
        return []

    def _affordable(self) -> bool:
        total = sum(len(f.trace) for f in self.model.functionalities)
        return total * total <= ORACLE_COMPLEXITY_LIMIT

    def check_search(self, op) -> list[str]:
        """The rows must be the weight grid times the n values, and best.json
        the candidate `oracle_rank` picks.

        `exact_partitions` rebuilds each row's partition, and the oracles
        recompute its cohesion and coupling. A row whose clustering met an
        exact tie between different pairs is not re-derived: the package
        compares float means, whose rounding may break such a tie either way.
        It enters the rank with its printed measures. Complexity, whose
        oracle is slow, is recomputed for the winner and for SEARCH_SAMPLE
        other partitions; the rank uses the printed complexity, a multiple
        of 1/F that six decimals keep apart.
        """
        step, n_values = self.plan.facts["step"], self.plan.facts["n"]
        parts = round(1 / step)
        grid = sorted(
            ((a * step, w * step, r * step, (parts - a - w - r) * step), n)
            for a in range(parts + 1)
            for w in range(parts + 1 - a)
            for r in range(parts + 1 - a - w)
            for n in n_values
        )
        rows = [line.split("\t") for line in self.text("candidates.tsv").splitlines()[1:]]
        keys = [(tuple(float(w) for w in row[0].split(",")), int(row[1])) for row in rows]
        if sorted(keys) != grid:
            return [f"search: the {len(rows)} candidate rows are not the grid"]
        best = json.loads(self.text("best.json"))
        best_key = (tuple(best["params"]["weights"]), len(best["clusters"]))
        exact = {weights: exact_partitions(self.model, weights, n_values)
                 for weights in {weights for weights, _ in keys}}
        problems = []
        printed_complexity = {}  # partition -> (row, complexity) of re-derived rows
        candidates = []
        for (weights, n), row in zip(keys, rows):
            what = f"search {row[0]} n={n}"
            partition, tied = exact[weights][n]
            if tied and (weights, n) == best_key:
                partition = frozenset(frozenset(m) for m in best["clusters"].values())
            named = _named(partition)
            cohesion, coupling = float(row[2]), float(row[3])
            if not tied:
                cohesion = sum(oracles.oracle_cohesion(self.model, named, c) for c in named) / n
                coupling = sum(oracles.oracle_coupling(self.model, named, c) for c in named) / n
                problems += self._close(f"{what} cohesion", float(row[2]), cohesion)
                problems += self._close(f"{what} coupling", float(row[3]), coupling)
                if printed_complexity.setdefault(partition, (what, row[4]))[1] != row[4]:
                    problems.append(f"{what}: complexity differs from another row's of its partition")
            candidates.append({
                "cohesion": cohesion, "coupling": coupling, "complexity": float(row[4]),
                "serialized": oracles.serialize_candidate(weights, named),
                "weights": list(weights), "clusters": named, "what": what, "row": row,
            })
        want = oracles.oracle_rank(candidates)
        if best["params"]["weights"] != want["weights"] or best["clusters"] != want["clusters"]:
            problems.append(f"search: best.json is not {want['what']}, which the selection rule picks")
        measures = oracles.oracle_decomposition_measures(self.model, want["clusters"])
        for what, printed, expected in zip(("cohesion", "coupling", "complexity"),
                                           want["row"][2:], measures):
            problems += self._close(f"{want['what']} (the winner) {what}", float(printed), expected)
        winner = frozenset(frozenset(m) for m in want["clusters"].values())
        others = [p for p in printed_complexity if p != winner]
        for partition in random.Random(0).sample(others, min(SEARCH_SAMPLE, len(others))):
            named = _named(partition)
            complexity = sum(
                oracles.oracle_complexity(self.model, named, f.name)
                for f in self.model.functionalities
            ) / len(self.model.functionalities)
            what, printed = printed_complexity[partition]
            problems += self._close(f"{what} complexity", float(printed), complexity)
        return problems

    def check_assess(self, op) -> list[str]:
        clusters = self.clusters("dec.json")
        rows = [line.split("\t") for line in self.text("assess.tsv").splitlines()[1:]]
        by_name = {row[0]: row for row in rows}
        problems = []
        if set(by_name) != set(clusters) | {"(decomposition)"}:
            return [f"assess: rows {sorted(by_name)} do not match the clusters"]
        for name in clusters:
            row = by_name[name]
            problems += self._close(
                f"assess {name} cohesion", float(row[3]),
                oracles.oracle_cohesion(self.model, clusters, name))
            problems += self._close(
                f"assess {name} coupling", float(row[4]),
                oracles.oracle_coupling(self.model, clusters, name))
        total = by_name["(decomposition)"]
        if self._affordable():
            want = oracles.oracle_decomposition_measures(self.model, clusters)
            for i, what in enumerate(("cohesion", "coupling", "complexity")):
                problems += self._close(f"assess {what}", float(total[3 + i]), want[i])
        return problems

    def check_sagas(self, op) -> list[str]:
        entity_to_cluster = {
            e: name for name, members in self.clusters("dec.json").items() for e in members
        }
        sagas = json.loads(self.text("sagas.json"))["sagas"]
        functionalities = self.model.functionalities
        if [s["functionality"] for s in sagas] != [f.name for f in functionalities]:
            return ["sagas: functionalities differ from the model's"]
        stats = [line.split("\t") for line in self.text("sagas.tsv").splitlines()[1:]]
        problems = []
        for f, raw, row in zip(functionalities, sagas, stats):
            saga = _rebind(f.trace, raw)
            problems += [f"saga {f.name}: {p}" for p in oracles.check_saga(f.trace, entity_to_cluster, saga)]
            touched = len({s.cluster for s in saga.steps})
            want = [f.name, str(touched), str(len(saga.steps)), str(len(f.trace))]
            if row[:4] != want:
                problems.append(f"sagas.tsv row {row} but sagas.json gives {want}")
        if len(stats) != len(sagas):
            problems.append("sagas.tsv and sagas.json disagree on the saga count")
        return problems

    def check_cml(self, op) -> list[str]:
        (name,) = op.outputs
        return [f"{name}: {p}" for p in validate_document(parse_document(self.text(name)))]

    def check_dot(self, op) -> list[str]:
        (name,) = op.outputs
        dotcheck.check_dot(self.text(name))
        return []

    def check_bpmn(self, op) -> list[str]:
        (name,) = op.outputs
        coordination = op.args(self.rep)[op.args(self.rep).index("--coordination") + 1]
        sagas = json.loads(self.text("sagas.json"))["sagas"]
        saga = next(s for s in sagas if s["functionality"] == coordination)
        lanes = [line.split(":", 1)[0] for line in self.text(name).splitlines()]
        want = [step["cluster"] for step in saga["steps"]]
        if lanes != want:
            return [f"{name}: lanes {lanes} but saga steps {want}"]
        return []


def exact_partitions(model, weights, n_values) -> dict[int, tuple[frozenset, bool]]:
    """Average-linkage partition for each n, computed in exact rationals,
    with a flag that says whether an exact tie between different pairs was
    met on the way.

    Fractions keep the tie rule of `cluster` exact: the pair with the
    smallest (first member, first member) wins. Floats can round two equal
    means apart; `oracles.oracle_cluster` and the package round differently,
    so on a tie they may disagree with each other and with the rule.
    Similarity follows the definition in `oracles.oracle_similarity`.
    """
    access, write, read, sequence = (Fraction(w) for w in weights)
    by_any = oracles.access_sets(model)
    by_read = oracles.access_sets(model, "R")
    by_write = oracles.access_sets(model, "W")
    adjacency = oracles.adjacency_counts(model)
    seq_max = max(adjacency.values(), default=0)

    def share(table, e_from, e_to):
        base = table[e_from]
        return Fraction(len(base & table[e_to]), len(base)) if base else Fraction(0)

    def one_way(e1, e2):
        value = (access * share(by_any, e1, e2) + write * share(by_write, e1, e2)
                 + read * share(by_read, e1, e2))
        if seq_max:
            value += sequence * Fraction(adjacency.get(frozenset((e1, e2)), 0), seq_max)
        return value

    # A cluster is keyed by its smallest member, the name the tie rule uses.
    members = {e: [e] for e in sorted(by_any)}
    dist = {
        (a, b): 1 - (one_way(a, b) + one_way(b, a)) / 2
        for a in members for b in members if a < b
    }
    found = {}
    tied = False
    while True:
        if len(members) in n_values:
            found[len(members)] = (frozenset(frozenset(m) for m in members.values()), tied)
        if len(members) <= min(n_values):
            return found
        nearest = min(dist.values())
        closest = [pair for pair, d in dist.items() if d == nearest]
        tied = tied or len(closest) > 1
        a, b = min(closest)
        na, nb = len(members[a]), len(members[b])
        members[a] += members.pop(b)
        for m in members:
            if m != a:
                pair_a = (min(a, m), max(a, m))
                pair_b = (min(b, m), max(b, m))
                dist[pair_a] = (na * dist[pair_a] + nb * dist.pop(pair_b)) / (na + nb)
        del dist[(a, b)]


def _named(partition) -> dict[str, list[str]]:
    """Cluster names as the package gives them: Cluster0.. by smallest member."""
    ordered = sorted((sorted(part) for part in partition), key=lambda part: part[0])
    return {f"Cluster{i}": members for i, members in enumerate(ordered)}


def _rebind(trace, raw: dict):
    """A saga object whose accesses are the trace's own Access objects.

    `check_saga` tracks accesses by identity. The k-th (entity, mode) access
    in saga order is bound to the k-th such access in the trace; equal
    accesses are interchangeable, so a conflict reordered by the saga still
    shows up as one. Accesses the trace does not have stay unbound objects.
    """
    pending: dict[tuple[str, str], list] = {}
    for access in reversed(trace):
        pending.setdefault((access.entity, access.mode), []).append(access)
    steps = []
    for step in raw["steps"]:
        accesses = []
        for entity, mode in step["accesses"]:
            queue = pending.get((entity, mode))
            accesses.append(queue.pop() if queue else SimpleNamespace(entity=entity, mode=mode))
        steps.append(SimpleNamespace(cluster=step["cluster"], accesses=tuple(accesses)))
    return SimpleNamespace(steps=tuple(steps))
