"""
Diagram exports
===============

Two text formats accompany the generated model: Graphviz DOT for the
context map (undirected with shared-functionality counts when drawn from
a decomposition, directed when drawn from a document's relationships)
and a BPMN-style lane listing for any coordination.
"""

from mono2ddd import (
    SimilarityWeights,
    build_ddd_model,
    coordination_bpmn,
    decompose,
    decomposition_dot,
    document_dot,
    emit_document,
    parse_document,
    parse_model,
    refactor_model,
)

ACCESSES = """
{
  "functionalities": [
    {"name": "f1", "trace": [["A", "R"], ["B", "W"], ["A", "W"]]},
    {"name": "f2", "trace": [["C", "R"], ["D", "R"], ["C", "W"]]},
    {"name": "f3", "trace": [["A", "R"], ["C", "W"]]},
    {"name": "f4", "trace": [["C", "R"], ["A", "W"], ["B", "R"]]}
  ]
}
"""

model = parse_model(ACCESSES)
decomposition = decompose(model, SimilarityWeights(1.0, 0.0, 0.0, 0.0), 2)

# Decomposition view: one node per cluster, edge labels count the
# functionalities whose traces touch both endpoints.
print(decomposition_dot(model, decomposition))

# Document view: edges follow the upstream -> downstream relationships
# recorded in the emitted document.
sagas = [s for s, _ in refactor_model(model, decomposition)]
doc = parse_document(emit_document(build_ddd_model(model, decomposition, sagas)))
print(document_dot(doc))

# BPMN lanes: one line per saga step, "<Context>: <operation>".
print(coordination_bpmn(doc, "f4"), end="")
