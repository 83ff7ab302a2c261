"""Exception types raised by the mono2ddd library.

Everything that can be provoked by bad input derives from Mono2DddError so
callers (notably the CLI) can separate user errors from internal bugs.
"""


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


class DslParseError(Mono2DddError):
    """Syntax error in the mini structure DSL, with source position."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class DecompositionError(Mono2DddError):
    """Invalid clustering request (bad weights, cluster count or grid), or a
    decomposition that does not fit its model (``check_decomposition``)."""


class SagaError(Mono2DddError):
    """Saga refactoring cannot proceed (unknown functionality or policy, an
    access ``collapse_runs`` cannot map, a name a TSV row cannot hold)."""


class MappingError(Mono2DddError):
    """DDD mapping preconditions are not met."""


class CmlParseError(Mono2DddError):
    """Syntax error in a CML document, with source position."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class CmlEmitError(Mono2DddError):
    """The model cannot be rendered as CML (typically an invalid identifier)."""


class RefactorError(Mono2DddError):
    """A CML refactoring was asked to do something contradictory."""
