"""The structure DSL and CML readers number lines the same way.

Both end a comment at any of `errors.LINE_BREAKS` and number an error's line
and column with `errors.line_and_column`, as `str.splitlines` splits lines.
"""

from __future__ import annotations

import sys

import pytest

from mono2ddd.cml import parse_document
from mono2ddd.errors import LINE_BREAKS, CmlParseError, DslParseError
from mono2ddd.ingest import parse_structure_dsl


def test_line_breaks_are_where_splitlines_splits():
    every = map(chr, range(sys.maxunicode + 1))
    assert {c for c in every if c.splitlines() != [c]} == set(LINE_BREAKS)
    assert len(LINE_BREAKS) == len(set(LINE_BREAKS))


@pytest.mark.parametrize("line_break", LINE_BREAKS)
def test_both_readers_place_an_error_after_a_line_break_alike(line_break):
    # A comment line, then a code line, each ended by the break; the error is on line 3.
    dsl = f"entity A {{ }} # note{line_break}entity B {{ }}{line_break}  @"
    cml = f"BoundedContext A {{ }} // note{line_break}BoundedContext B {{ }}{line_break}  @"
    with pytest.raises(DslParseError) as in_dsl:
        parse_structure_dsl(dsl)
    with pytest.raises(CmlParseError) as in_cml:
        parse_document(cml)
    assert (in_dsl.value.line, in_dsl.value.column) == (in_cml.value.line, in_cml.value.column)
    assert (in_cml.value.line, in_cml.value.column) == (3, 3)
