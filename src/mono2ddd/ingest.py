"""Parse and validate the neutral monolith contract.

Two input documents are understood:

* an accesses file (JSON): ``{"functionalities": [{"name": ..., "trace":
  [["Entity", "R"|"W"|"RW"], ...]}, ...]}``. The aggregate mode ``RW``
  expands to a read followed by a write, so the in-memory trace model stays
  binary.
* a structure file, either the JSON contract ``{"entities": [...]}`` or the
  line-oriented mini DSL::

      # comment
      entity Topic extends Content {
          attr name: String;
          ref question -> Question;
      }

Validation cross-checks traces against structures and never fails: entities
that are accessed but undeclared are synthesized with an empty structure and
reported through the model's warning list.
"""

from __future__ import annotations

import json
import re
from itertools import islice

from .errors import LINE_BREAKS, ContractError, DslParseError, json_document, line_and_column
from .model import (
    ASSOCIATION,
    INHERITANCE,
    Attribute,
    EntityStructure,
    Functionality,
    MonolithModel,
    Reference,
)

_INHERITANCE_FIELD = "super"


def _require(obj, kind, location):
    if not isinstance(obj, kind):
        raise ContractError(f"expected {kind.__name__}, got {type(obj).__name__}", location)
    return obj


def parse_accesses(text: str) -> list[Functionality]:
    """Parse an accesses document into functionalities, preserving order."""
    doc = json_document(text)
    _require(doc, dict, "$")
    items = _require(doc.get("functionalities", None), list, "functionalities")

    result: list[Functionality] = []
    seen: dict[str, int] = {}
    for i, raw in enumerate(items):
        loc = f"functionalities[{i}]"
        _require(raw, dict, loc)
        name = _require(raw.get("name", None), str, f"{loc}.name")
        if not name:
            raise ContractError("empty functionality name", f"{loc}.name")
        if name in seen:
            raise ContractError(
                f"duplicate functionality name {name!r} (first at functionalities[{seen[name]}])",
                loc,
            )
        seen[name] = i
        raw_trace = _require(raw.get("trace", None), list, f"{loc}.trace")
        if not raw_trace:
            raise ContractError("empty trace", f"{loc}.trace")
        # The trace as columns: entity names, and modes with RW kept as two characters.
        entities: list[str] = []
        modes: list[str] = []
        add_entity = entities.append
        add_mode = modes.append
        for j, entry in enumerate(raw_trace):
            # The shape json.loads gives a valid entry; anything else is checked in full.
            if type(entry) is list and len(entry) == 2:
                entity, mode = entry
                if type(entity) is str and entity:
                    if mode == "R" or mode == "W":
                        add_entity(entity)
                        add_mode(mode)
                        continue
                    if mode == "RW":
                        add_entity(entity)
                        add_entity(entity)
                        add_mode(mode)
                        continue
            _checked_entry(entry, f"{loc}.trace[{j}]")
        result.append(Functionality._from_columns(name, tuple(entities), "".join(modes)))
    return result


def _checked_entry(entry, eloc: str):
    """Raise the ContractError of an entry the fast path refuses: as
    ``json.loads`` gives exact lists and strings, the fast path takes every valid one."""
    _require(entry, list, eloc)
    if len(entry) != 2:
        raise ContractError("trace entry must be [entity, mode]", eloc)
    entity, mode = entry
    _require(entity, str, eloc)
    _require(mode, str, eloc)
    if not entity:
        raise ContractError("empty entity name", eloc)
    raise ContractError(f"unknown access mode {mode!r}", eloc)


def _field_problem(name, attributes, references) -> str | None:
    """What is wrong with an entity's fields (a repeated field name, more
    than one inheritance reference), or None."""
    seen: set[str] = set()
    for a in attributes:
        if a.name in seen:
            return f"duplicate field name {a.name!r} in entity {name!r}"
        seen.add(a.name)
    inheritance = 0
    for r in references:
        if r.field in seen:
            return f"duplicate field name {r.field!r} in entity {name!r}"
        seen.add(r.field)
        if r.kind == INHERITANCE:
            inheritance += 1
    if inheritance > 1:
        return f"entity {name!r} has more than one inheritance reference"
    return None


def parse_structure_json(text: str) -> list[EntityStructure]:
    doc = json_document(text)
    _require(doc, dict, "$")
    items = _require(doc.get("entities", None), list, "entities")

    result: list[EntityStructure] = []
    names: set[str] = set()
    for i, raw in enumerate(items):
        loc = f"entities[{i}]"
        _require(raw, dict, loc)
        name = _require(raw.get("name", None), str, f"{loc}.name")
        if not name:
            raise ContractError("empty entity name", f"{loc}.name")
        if name in names:
            raise ContractError(f"duplicate entity {name!r}", loc)
        names.add(name)
        attrs = []
        for j, a in enumerate(_require(raw.get("attributes", []), list, f"{loc}.attributes")):
            aloc = f"{loc}.attributes[{j}]"
            _require(a, dict, aloc)
            attrs.append(
                Attribute(
                    _require(a.get("name", None), str, f"{aloc}.name"),
                    _require(a.get("type", None), str, f"{aloc}.type"),
                )
            )
        refs = []
        for j, r in enumerate(_require(raw.get("references", []), list, f"{loc}.references")):
            rloc = f"{loc}.references[{j}]"
            _require(r, dict, rloc)
            kind = r.get("kind", ASSOCIATION)
            if kind not in (ASSOCIATION, INHERITANCE):
                raise ContractError(f"unknown reference kind {kind!r}", f"{rloc}.kind")
            refs.append(
                Reference(
                    _require(r.get("field", None), str, f"{rloc}.field"),
                    _require(r.get("target", None), str, f"{rloc}.target"),
                    kind,
                )
            )
        problem = _field_problem(name, attrs, refs)
        if problem:
            raise ContractError(problem, loc)
        result.append(EntityStructure(name, tuple(attrs), tuple(refs)))
    return result


# A comment runs to the next line boundary; dropping it joins no tokens.
_DSL_COMMENT = re.compile(rf"#[^{LINE_BREAKS}]*")
# A token and the whitespace before it.
_DSL_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|->|[{}:;]|\S)")
# A token that starts with one of these is a whole name.
_ID_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# What reads past the last token see: '#' equals no literal and starts no
# name, and no token starts with it once the comments are cut.
_PAST_END = ("#",) * 5
# The tokens after a member's keyword, in order: ``(literal, None)``, or
# ``(None, what)`` for a name, with what an error calls it.
_ATTR = ((None, "attribute name"), (":", None), (None, "attribute type"), (";", None))
_REF = ((None, "reference field"), ("->", None), (None, "reference target"), (";", None))


def _dsl_position(text: str, index: int) -> tuple[int, int]:
    """Line and column of the index-th token, comments skipped.

    Positions are only needed for errors, so the reader keeps none and this
    rescans, with each comment blanked out in place.
    """
    code = _DSL_COMMENT.sub(lambda comment: " " * len(comment[0]), text)
    return line_and_column(text, next(islice(_DSL_TOKEN.finditer(code), index, None)).start(1))


def _dsl_error(
    text: str, end: int, index: int, message: str, expected: str = "more input"
) -> DslParseError:
    """``message`` at token ``index``; past the last token, the end of input there."""
    if index >= end:
        return DslParseError(
            f"unexpected end of input (expected {expected})", *_dsl_position(text, end - 1)
        )
    return DslParseError(message, *_dsl_position(text, index))


def _unexpected(text: str, tokens: list[str], end: int, pos: int, expected) -> DslParseError:
    """The error at the first of ``expected`` the tokens from ``pos`` on do not meet."""
    for index, (literal, what) in enumerate(expected, pos):
        tok = tokens[index]
        if literal is None:
            if tok[0] not in _ID_START:
                return _dsl_error(text, end, index, f"expected {what}, got {tok!r}")
        elif tok != literal:
            return _dsl_error(text, end, index, f"expected {literal!r}, got {tok!r}", literal)
    raise AssertionError("the tokens meet every expectation")


def parse_structure_dsl(text: str) -> list[EntityStructure]:
    """Parse the mini structure DSL (one ``entity`` block per entity).

    Comments, which run to the next ``str.splitlines`` boundary, are cut
    out, and one ``findall`` splits the rest into tokens, each match
    swallowing the whitespace before its token. The text loses its trailing
    whitespace first: a run that no token follows would be rescanned from
    each of its characters. The parser walks the token list by index and
    reads a member's five tokens at once; reads past the end see
    ``_PAST_END``, which fails every check. A name is checked by its first
    character, which the token pattern makes equivalent to matching the
    whole name. Only an error computes a position (``_dsl_position``).
    """
    tokens = _DSL_TOKEN.findall(_DSL_COMMENT.sub("", text).rstrip())
    end = len(tokens)
    tokens += _PAST_END
    result: list[EntityStructure] = []
    names: set[str] = set()
    pos = 0
    while pos < end:
        if tokens[pos] != "entity":
            raise _dsl_error(text, end, pos, f"expected 'entity', got {tokens[pos]!r}")
        name = tokens[pos + 1]
        if name[0] not in _ID_START:
            raise _dsl_error(text, end, pos + 1, f"expected entity name, got {name!r}")
        at_name = pos + 1
        if name in names:
            raise DslParseError(f"duplicate entity {name!r}", *_dsl_position(text, at_name))
        names.add(name)
        refs: list[Reference] = []
        tok = tokens[pos + 2]
        pos += 3
        if tok == "extends":
            target = tokens[pos]
            if target[0] not in _ID_START:
                raise _dsl_error(text, end, pos, f"expected superclass name, got {target!r}")
            refs.append(Reference(_INHERITANCE_FIELD, target, INHERITANCE))
            tok = tokens[pos + 1]
            pos += 2
        if tok != "{":
            raise _dsl_error(text, end, pos - 1, f"expected '{{', got {tok!r}", "{")
        attrs: list[Attribute] = []
        tok = tokens[pos]
        while tok != "}":
            if tok == "attr":
                field, colon, kind, semi = tokens[pos + 1 : pos + 5]
                if (
                    colon != ":"
                    or semi != ";"
                    or field[0] not in _ID_START
                    or kind[0] not in _ID_START
                ):
                    raise _unexpected(text, tokens, end, pos + 1, _ATTR)
                attrs.append(Attribute(field, kind))
            elif tok == "ref":
                field, arrow, target, semi = tokens[pos + 1 : pos + 5]
                if (
                    arrow != "->"
                    or semi != ";"
                    or field[0] not in _ID_START
                    or target[0] not in _ID_START
                ):
                    raise _unexpected(text, tokens, end, pos + 1, _REF)
                refs.append(Reference(field, target, ASSOCIATION))
            else:
                raise _dsl_error(text, end, pos, f"expected 'attr', 'ref' or '}}', got {tok!r}")
            pos += 5
            tok = tokens[pos]
        pos += 1
        problem = _field_problem(name, attrs, refs)
        if problem:
            raise DslParseError(problem, _dsl_position(text, at_name)[0], 1)
        result.append(EntityStructure(name, tuple(attrs), tuple(refs)))
    return result


def parse_structure(text: str) -> list[EntityStructure]:
    """Parse a structure document, auto-detecting JSON vs the mini DSL."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_structure_json(text)
    return parse_structure_dsl(text)


def validate_model(
    functionalities: list[Functionality] | tuple[Functionality, ...],
    structures: list[EntityStructure] | tuple[EntityStructure, ...] = (),
) -> MonolithModel:
    """Cross-check traces against structures and assemble a MonolithModel.

    Never raises: noisy extractions are tolerated. Repairs are recorded as
    warnings on the model:

    * entities accessed (or referenced) but not declared are synthesized
      with an empty structure;
    * duplicate functionality or entity declarations keep the first
      occurrence;
    * extra inheritance references beyond the first are dropped.
    """
    warnings: list[str] = []

    kept_functionalities: list[Functionality] = []
    seen_f: set[str] = set()
    for f in functionalities:
        if f.name in seen_f:
            warnings.append(f"duplicate functionality {f.name!r} dropped")
            continue
        seen_f.add(f.name)
        kept_functionalities.append(f)

    by_name: dict[str, EntityStructure] = {}
    for s in structures:
        if s.name in by_name:
            warnings.append(f"duplicate entity {s.name!r} dropped")
            continue
        inheritance_seen = False
        refs: list[Reference] = []
        for r in s.references:
            if r.kind == INHERITANCE and inheritance_seen:
                warnings.append(f"extra inheritance reference on {s.name!r} dropped")
                continue
            inheritance_seen = inheritance_seen or r.kind == INHERITANCE
            refs.append(r)
        by_name[s.name] = EntityStructure(s.name, s.attributes, tuple(refs))

    accessed: set[str] = set()
    for f in kept_functionalities:
        accessed.update(f._entities)
    for name in sorted(accessed - by_name.keys()):
        warnings.append(f"entity {name!r} accessed but not declared; synthesized")
        by_name[name] = EntityStructure(name)

    # References must resolve; synthesize missing targets rather than fail.
    # A synthesized entity has no references, so one pass closes them all.
    for s in list(by_name.values()):
        for r in s.references:
            if r.target not in by_name:
                warnings.append(
                    f"entity {r.target!r} referenced by {s.name!r} but not declared; synthesized"
                )
                by_name[r.target] = EntityStructure(r.target)

    entities = tuple(by_name[name] for name in sorted(by_name))
    # The model keeps the traced names, so a fit check walks no trace again.
    return MonolithModel._with_traced_names(
        entities, tuple(kept_functionalities), tuple(warnings), frozenset(accessed)
    )


def parse_model(accesses_text: str, structure_text: str | None = None) -> MonolithModel:
    """Parse both contract documents and validate them together."""
    functionalities = parse_accesses(accesses_text)
    structures = parse_structure(structure_text) if structure_text else []
    return validate_model(functionalities, structures)


def accesses_to_json(model: MonolithModel) -> str:
    doc = {
        "functionalities": [
            {"name": f.name, "trace": [[e, m] for e, m in zip(f._entities, f._modes)]}
            for f in model.functionalities
        ]
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def structure_to_json(model: MonolithModel) -> str:
    doc = {
        "entities": [
            {
                "name": e.name,
                "attributes": [{"name": a.name, "type": a.type} for a in e.attributes],
                "references": [
                    {"field": r.field, "target": r.target, "kind": r.kind}
                    for r in e.references
                ],
            }
            for e in model.entities
        ]
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
