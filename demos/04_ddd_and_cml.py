"""
From clusters to a bounded-context model
========================================

Each cluster becomes a bounded context holding one aggregate; saga steps
become service operations; multi-step sagas become coordinations owned
by their orchestrator context. Cross-context entity references turn into
local reference placeholders plus an upstream/downstream relationship,
and everything is emitted as a context-mapping DSL document.
"""

from mono2ddd import (
    SimilarityWeights,
    build_ddd_model,
    decompose,
    emit_document,
    merge_bounded_contexts,
    parse_document,
    parse_model,
    refactor_model,
    split_aggregate,
)

ACCESSES = """
{
  "functionalities": [
    {"name": "editTopic", "trace": [["Topic", "R"], ["Topic", "W"]]},
    {"name": "answerQuestion", "trace": [["Question", "R"], ["Question", "W"]]}
  ]
}
"""

STRUCTURE = """
entity Topic {
    attr name: String;
    ref question -> Question;
}
entity Question {
    attr title: String;
    attr content: String;
}
"""

model = parse_model(ACCESSES, STRUCTURE)
decomposition = decompose(model, SimilarityWeights(1.0, 0.0, 0.0, 0.0), 2)
sagas = [s for s, _ in refactor_model(model, decomposition)]

# Operation names come from a heuristic; full-trace encodes the entities
# and access modes of each step, e.g. rwTopic for a read-then-write.
generated = build_ddd_model(model, decomposition, sagas, naming="full-trace")
text = emit_document(generated)
print(text)

# Topic references Question, which lives in the other context, so the
# emission contains a generated Question_Reference placeholder and an
# upstream/downstream relationship between the contexts.

# The document parses back losslessly and supports two refactorings.
doc = parse_document(text)

merged = merge_bounded_contexts(doc, "Cluster0", "Cluster1")
print("after merge:", [c.name for c in merged.contexts])
# With both entities local again, the placeholder collapses to a plain
# entity reference and the relationship disappears.
print(emit_document(merged))

split = split_aggregate(doc, "Cluster1", [["Topic", "Question_Reference"]])
ctx = split.context("Cluster1")
print("after split:", [a.name for a in ctx.aggregates])
