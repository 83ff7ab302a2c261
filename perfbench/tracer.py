"""Outside-in tracer: times every public function of the package's layers.

Nothing in the package is edited. After `mono2ddd` is imported, each public
module-level function of a layer module is replaced by a timing wrapper in
*every* `mono2ddd*` module namespace that binds the same function object.
Matching by identity matters because `measures` and `cli` import names with
`from .decompose import ...`, and modules are reached through `sys.modules`
because `mono2ddd.decompose` as an attribute is the `decompose` function
that `__init__` rebinds over the submodule name.

Spans are kept in memory with their parent, so self time is a span's
duration minus its direct children's durations. A few wrapped functions
also feed counts taken from their arguments or return values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "mono2ddd"
LAYERS = ("cli", "ingest", "decompose", "measures", "saga", "dddmap", "cml", "diagrams")


def _count_cluster(counts, args, kwargs, result):
    members = [m for _, m in result.clusters]
    counts["decompose.merges"] += sum(len(m) for m in members) - result.n
    counts["decompose.candidates"] += 1
    counts["_partitions"].add(frozenset(members))


def _count_refactor(counts, args, kwargs, result):
    for _, stats in result:
        counts["saga.fgi"] += stats.fgi
        counts["saga.cgi"] += stats.cgi
        counts["saga.excess_steps"] += stats.cgi - stats.clusters_touched


def _count_ddd(counts, args, kwargs, result):
    counts["dddmap.placeholders"] += sum(
        1 for ctx in result.contexts for e in ctx.entities if e.is_reference
    )
    counts["dddmap.relationships"] += len(result.relationships)


def _count_model(counts, args, kwargs, result):
    counts["ingest.accesses"] += sum(len(f.trace) for f in result.functionalities)


def _count_emit(counts, args, kwargs, result):
    counts["cml.emit_bytes"] += len(result.encode("utf-8"))


def _count_parse(counts, args, kwargs, result):
    text = args[0] if args else kwargs.get("text", "")
    counts["cml.parse_bytes"] += len(text.encode("utf-8"))


# Function -> hook deriving counts from its inputs or outputs.
HOOKS = {
    "decompose.cluster": _count_cluster,
    "saga.refactor_model": _count_refactor,
    "dddmap.build_ddd_model": _count_ddd,
    "ingest.parse_model": _count_model,
    "cml.emit_document": _count_emit,
    "cml.parse_document": _count_parse,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.escaped: dict[str, list[BaseException]] = {layer: [] for layer in LAYERS}
        self.counts: dict = dict.fromkeys(_COUNTED, 0)
        self.counts["_partitions"] = set()
        self.wrapped: list[str] = []
        self.broken_hooks: set[str] = set()

    def install(self) -> None:
        """Wrap every public function of the layer modules, wherever bound."""
        originals: dict[int, tuple[str, object]] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:
                continue  # a deleted layer reports its metrics as absent
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and id(obj) not in originals
                ):
                    originals[id(obj)] = (f"{layer}.{attr}", obj)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        self.wrapped = sorted(name for name, _ in originals.values())
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                # `originals` keeps every function alive, so ids are not reused.
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    namespace[attr] = wrapper

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        escaped = self.escaped[name.split(".", 1)[0]]
        hook = HOOKS.get(name)
        counts = self.counts
        broken = self.broken_hooks
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # Count an exception once per layer it escapes from.
                if not any(e is exc for e in escaped):
                    escaped.append(exc)
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(counts, args, kwargs, result)
                except Exception:  # a changed return type must not break the program
                    broken.add(name)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per-function calls, inclusive and self time; per-layer errors; counts.

        Inclusive time counts only the outermost span of a name, so a
        function that calls itself is not counted twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        functions: dict[str, list] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            row = functions.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[2] += end - start - child_time[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                row[1] += end - start
        counts = {k: v for k, v in self.counts.items() if not k.startswith("_")}
        counts["decompose.distinct"] = len(self.counts["_partitions"])
        return {
            "functions": functions,
            "errors": {layer: len(excs) for layer, excs in self.escaped.items()},
            "counts": counts,
            "wrapped": self.wrapped,
            "broken_hooks": sorted(self.broken_hooks),
        }


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum the summaries of the jobs of one chain."""
    total = {"functions": {}, "errors": {}, "counts": {}, "wrapped": set(), "broken_hooks": set()}
    for s in summaries:
        for name, row in s["functions"].items():
            acc = total["functions"].setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(row):
                acc[i] += v
        for key in ("errors", "counts"):
            for name, v in s[key].items():
                total[key][name] = total[key].get(name, 0) + v
        total["wrapped"].update(s["wrapped"])
        total["broken_hooks"].update(s["broken_hooks"])
    return total


# Timed metric -> (kind, functions): the summed inclusive time ("incl") or
# call count ("calls") of the functions. Counted metric -> the function whose
# hook feeds it. A metric whose functions are all gone, or whose hook no
# longer understands its function's result, is reported absent.
_TIMED = {
    "ingest.parse_model_s": ("incl", ["ingest.parse_model"]),
    "decompose.build_similarity_s": ("incl", ["decompose.build_similarity"]),
    "decompose.build_similarity_calls": ("calls", ["decompose.build_similarity"]),
    "decompose.cluster_s": ("incl", ["decompose.cluster"]),
    "decompose.cluster_calls": ("calls", ["decompose.cluster"]),
    "measures.measure_s": ("incl", ["measures.measure"]),
    "measures.measure_calls": ("calls", ["measures.measure"]),
    "measures.complexity_s": ("incl", ["measures.complexity"]),
    "measures.complexity_calls": ("calls", ["measures.complexity"]),
    "measures.rank_s": ("incl", ["measures.rank_decompositions"]),
    "saga.refactor_model_s": ("incl", ["saga.refactor_model"]),
    "saga.merge_steps_s": ("incl", ["saga.merge_steps"]),
    "dddmap.build_ddd_model_s": ("incl", ["dddmap.build_ddd_model"]),
    "cml.emit_s": ("incl", ["cml.emit_document"]),
    "cml.parse_s": ("incl", ["cml.parse_document"]),
    "cml.merge_s": ("incl", ["cml.merge_bounded_contexts"]),
    "cml.split_s": ("incl", ["cml.split_aggregate"]),
    "diagrams.dot_s": ("incl", ["diagrams.document_dot", "diagrams.decomposition_dot"]),
    "diagrams.bpmn_s": ("incl", ["diagrams.coordination_bpmn"]),
}
_COUNTED = {
    "ingest.accesses": "ingest.parse_model",
    "decompose.merges": "decompose.cluster",
    "decompose.candidates": "decompose.cluster",
    "saga.fgi": "saga.refactor_model",
    "saga.cgi": "saga.refactor_model",
    "saga.excess_steps": "saga.refactor_model",
    "dddmap.placeholders": "dddmap.build_ddd_model",
    "dddmap.relationships": "dddmap.build_ddd_model",
    "cml.emit_bytes": "cml.emit_document",
    "cml.parse_bytes": "cml.parse_document",
}
_DERIVED = {
    "decompose.distinct_frac": ("ratio", "higher"),
    "cml.parse_mb_per_s": ("MB/s", "higher"),
}


def per_layer_spec() -> list[dict]:
    """Every per-layer metric with its unit and direction, in report order."""
    spec = []
    for name, (kind, _) in _TIMED.items():
        spec.append({"name": name, "unit": "s" if kind == "incl" else "count", "better": "lower"})
    for name in _COUNTED:
        unit = "bytes" if name.endswith("_bytes") else "count"
        spec.append({"name": name, "unit": unit, "better": "lower"})
    for name, (unit, better) in _DERIVED.items():
        spec.append({"name": name, "unit": unit, "better": better})
    for layer in LAYERS:
        spec.append({"name": f"{layer}.self_s", "unit": "s", "better": "lower"})
    for layer in LAYERS:
        spec.append({"name": f"{layer}.errors", "unit": "count", "better": "lower"})
    for name, unit in (("trace.overhead_frac", "ratio"), ("trace.traced_wall_s", "s"),
                       ("trace.untraced_wall_s", "s")):
        spec.append({"name": name, "unit": unit, "better": "lower"})
    return spec


def layer_metrics(chain: dict) -> dict[str, float]:
    """Per-layer metrics of one traced chain (trace.* are added by the caller)."""
    functions, wrapped, counts = chain["functions"], chain["wrapped"], chain["counts"]
    counted = wrapped - set(chain["broken_hooks"])
    out: dict[str, float] = {}
    for name, (kind, sources) in _TIMED.items():
        present = [s for s in sources if s in wrapped]
        if present:
            column = 0 if kind == "calls" else 1
            out[name] = sum(functions.get(s, [0, 0.0, 0.0])[column] for s in present)
    for name, source in _COUNTED.items():
        if source in counted:
            out[name] = counts.get(name, 0)
    if "decompose.cluster" in counted:
        candidates = counts.get("decompose.candidates", 0)
        distinct = counts.get("decompose.distinct", 0)
        out["decompose.distinct_frac"] = distinct / candidates if candidates else 0.0
    if "cml.parse_document" in counted:
        seconds = out["cml.parse_s"]
        out["cml.parse_mb_per_s"] = out["cml.parse_bytes"] / 1e6 / seconds if seconds else 0.0
    for layer in LAYERS:
        prefix = layer + "."
        if any(w.startswith(prefix) for w in wrapped):
            out[f"{layer}.self_s"] = sum(
                row[2] for fn, row in functions.items() if fn.startswith(prefix)
            )
            out[f"{layer}.errors"] = chain["errors"].get(layer, 0)
    return out
