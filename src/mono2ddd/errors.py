"""Exception types raised by the mono2ddd library, and the document readers' shared rules.

Everything that can be provoked by bad input derives from Mono2DddError so
callers (notably the CLI) can separate user errors from internal bugs. The
JSON readers load their text with ``json_document``; the two token readers
(the structure DSL and CML) end a comment at any of ``LINE_BREAKS`` and
number a position with ``line_and_column``.
"""

import json

# Every boundary ``str.splitlines`` splits at.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


class Mono2DddError(Exception):
    """Base class for all input-driven failures."""


class ContractError(Mono2DddError):
    """A JSON contract document is malformed or violates an invariant.

    ``location`` is a JSON-path-like string such as
    ``functionalities[2].trace[0]``.
    """

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)


def json_document(text: str):
    """``json.loads(text)``, or ``ContractError`` for text it refuses."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # syntax, nesting depth or integer size
        raise ContractError(f"malformed JSON: {exc}") from exc


def line_and_column(text: str, start: int) -> tuple[int, int]:
    """The 1-based line and column of ``text[start]``, lines numbered as
    ``str.splitlines`` splits them."""
    head = text[:start].splitlines(keepends=True)
    if head and head[-1][-1] not in LINE_BREAKS:
        return len(head), len(head[-1]) + 1
    return len(head) + 1, 1


class _PositionedError(Mono2DddError):
    """A syntax error at a 1-based ``line`` and ``column`` of its source."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class DslParseError(_PositionedError):
    """Syntax error in the mini structure DSL, with source position."""


class DecompositionError(Mono2DddError):
    """Invalid clustering request (bad weights, cluster count or grid), or a
    decomposition that does not fit its model (``check_decomposition``)."""


class SagaError(Mono2DddError):
    """Saga refactoring cannot proceed (unknown functionality or policy, an
    access ``collapse_runs`` cannot map, a name a TSV row cannot hold)."""


class MappingError(Mono2DddError):
    """DDD mapping preconditions are not met."""


class CmlParseError(_PositionedError):
    """Syntax error in a CML document, with source position."""


class CmlEmitError(Mono2DddError):
    """The model cannot be rendered as CML (typically an invalid identifier)."""


class RefactorError(Mono2DddError):
    """A CML refactoring was asked to do something contradictory."""
