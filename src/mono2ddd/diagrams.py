"""Text diagram exports: DOT context maps and BPMN-sketch lane listings."""

from __future__ import annotations

from .cml import CmlDocument
from .decompose import Decomposition, check_decomposition
from .errors import MappingError
from .model import MonolithModel


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def decomposition_dot(model: MonolithModel, decomposition: Decomposition) -> str:
    """Undirected context map; edges count functionalities shared by two clusters.

    Each entity counts for the cluster ``check_decomposition`` gives it, and
    a decomposition that does not fit the model raises its
    ``DecompositionError``.
    """
    assignment = check_decomposition(model, decomposition)
    names = decomposition.cluster_names()

    shared: dict[tuple[str, str], int] = {}
    for f in model.functionalities:
        touched = sorted(set(map(assignment.__getitem__, f._entities)))
        for i, c1 in enumerate(touched):
            for c2 in touched[i + 1 :]:
                shared[(c1, c2)] = shared.get((c1, c2), 0) + 1

    lines = [f"graph {_quote('ContextMap')} {{"]
    for name in names:
        lines.append(f"    {_quote(name)};")
    for i, c1 in enumerate(names):
        for c2 in names[i + 1 :]:
            count = shared.get((c1, c2), 0)
            if count:
                lines.append(f"    {_quote(c1)} -- {_quote(c2)} [label={_quote(str(count))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def document_dot(doc: CmlDocument) -> str:
    """Directed context map from a parsed document (upstream -> downstream)."""
    lines = [f"digraph {_quote('ContextMap')} {{"]
    for ctx in doc.contexts:
        lines.append(f"    {_quote(ctx.name)};")
    for rel in doc.relationships:
        lines.append(f"    {_quote(rel.upstream)} -> {_quote(rel.downstream)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def coordination_bpmn(doc: CmlDocument, coordination_name: str) -> str:
    """One lane line per step: ``<ContextName>: <operationName>``."""
    for ctx in doc.contexts:
        for coordination in ctx.coordinations:
            if coordination.name == coordination_name:
                lines = [
                    f"{step.context}: {step.operation}" for step in coordination.steps
                ]
                return "\n".join(lines) + "\n"
    raise MappingError(f"no coordination named {coordination_name!r}")
