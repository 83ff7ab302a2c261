"""Turn monolith entity-access traces into microservice candidate
decompositions, quality measures, saga refactorings, and a generated
domain-driven design model emitted in a context-mapping DSL subset."""

# `decompose` is both a public function and a submodule. Binding the
# function here, once the submodule is loaded, keeps `mono2ddd.decompose`
# the function whatever is imported later.
from .decompose import decompose

__version__ = "0.1.0"

# Each public name and the submodule that defines it. The submodule is
# imported on the name's first use (PEP 562), so a command line loads only
# the modules it runs.
_OWNERS = {
    "Access": "model",
    "Attribute": "model",
    "CmlDocument": "cml",
    "CmlEmitError": "errors",
    "CmlParseError": "errors",
    "ContractError": "errors",
    "Decomposition": "decompose",
    "DecompositionError": "errors",
    "DslParseError": "errors",
    "EntityStructure": "model",
    "Functionality": "model",
    "MappingError": "errors",
    "MeasureReport": "measures",
    "Mono2DddError": "errors",
    "MonolithModel": "model",
    "Reference": "model",
    "ReductionStats": "saga",
    "RefactorError": "errors",
    "Saga": "saga",
    "SagaError": "errors",
    "SimilarityMatrix": "decompose",
    "SimilarityWeights": "decompose",
    "Step": "saga",
    "accesses_to_json": "ingest",
    "build_ddd_model": "dddmap",
    "build_similarity": "decompose",
    "cluster": "decompose",
    "cohesion": "measures",
    "collapse_runs": "saga",
    "complexity": "measures",
    "coordination_bpmn": "diagrams",
    "coupling": "measures",
    "decompose": "decompose",
    "decomposition_dot": "diagrams",
    "decomposition_to_json": "decompose",
    "document_dot": "diagrams",
    "emit_document": "cml",
    "measure": "measures",
    "merge_bounded_contexts": "cml",
    "merge_steps": "saga",
    "name_operation": "dddmap",
    "parse_accesses": "ingest",
    "parse_decomposition": "decompose",
    "parse_document": "cml",
    "parse_model": "ingest",
    "parse_sagas": "saga",
    "parse_structure": "ingest",
    "rank_decompositions": "measures",
    "refactor_functionality": "saga",
    "refactor_model": "saga",
    "report_tsv": "measures",
    "sagas_to_json": "saga",
    "search_candidates": "measures",
    "search_decompositions": "decompose",
    "split_aggregate": "cml",
    "stats_tsv": "saga",
    "structure_to_json": "ingest",
    "validate_document": "cml",
    "validate_model": "ingest",
    "weight_grid": "decompose",
}

__all__ = list(_OWNERS)


def __getattr__(name: str):
    module = _OWNERS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
