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

from .errors import ContractError, DslParseError
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
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # syntax, nesting depth or integer size
        raise ContractError(f"malformed JSON: {exc}") from exc
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
            entity, mode = _checked_entry(entry, f"{loc}.trace[{j}]")
            entities.extend([entity] * len(mode))
            add_mode(mode)
        result.append(Functionality._from_columns(name, tuple(entities), "".join(modes)))
    return result


def _checked_entry(entry, eloc: str) -> tuple[str, str]:
    """The entity and mode (R, W or RW) of one trace entry off the fast path,
    or its ContractError."""
    _require(entry, list, eloc)
    if len(entry) != 2:
        raise ContractError("trace entry must be [entity, mode]", eloc)
    entity, mode = entry
    _require(entity, str, eloc)
    _require(mode, str, eloc)
    if not entity:
        raise ContractError("empty entity name", eloc)
    if mode in ("R", "W", "RW"):
        return entity, mode
    raise ContractError(f"unknown access mode {mode!r}", eloc)


def _check_entity_fields(name, attributes, references, location=None, line=None):
    def fail(msg):
        if line is not None:
            raise DslParseError(msg, line, 1)
        raise ContractError(msg, location)

    seen: set[str] = set()
    for a in attributes:
        if a.name in seen:
            fail(f"duplicate field name {a.name!r} in entity {name!r}")
        seen.add(a.name)
    inheritance = 0
    for r in references:
        if r.field in seen:
            fail(f"duplicate field name {r.field!r} in entity {name!r}")
        seen.add(r.field)
        if r.kind == INHERITANCE:
            inheritance += 1
    if inheritance > 1:
        fail(f"entity {name!r} has more than one inheritance reference")


def parse_structure_json(text: str) -> list[EntityStructure]:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # syntax, nesting depth or integer size
        raise ContractError(f"malformed JSON: {exc}") from exc
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
        _check_entity_fields(name, attrs, refs, location=loc)
        result.append(EntityStructure(name, tuple(attrs), tuple(refs)))
    return result


_DSL_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|->|[{}:;]|\S")


def _tokenize_dsl(text: str):
    """Yield (token, line, column) triples; '#' starts a comment to end of line."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for m in _DSL_TOKEN.finditer(body):
            yield m.group(0), lineno, m.start() + 1


def parse_structure_dsl(text: str) -> list[EntityStructure]:
    """Parse the mini structure DSL (one ``entity`` block per entity)."""
    tokens = list(_tokenize_dsl(text))
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            last = tokens[-1] if tokens else ("", 1, 1)
            raise DslParseError(
                f"unexpected end of input (expected {expected or 'more input'})",
                last[1],
                last[2],
            )
        tok, line, col = tokens[pos]
        if expected is not None and tok != expected:
            raise DslParseError(f"expected {expected!r}, got {tok!r}", line, col)
        pos += 1
        return tok, line, col

    def take_name(what):
        tok, line, col = take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            raise DslParseError(f"expected {what}, got {tok!r}", line, col)
        return tok, line

    result: list[EntityStructure] = []
    names: set[str] = set()
    while pos < len(tokens):
        _, line, col = tokens[pos]
        take("entity")
        name, entity_line = take_name("entity name")
        if name in names:
            raise DslParseError(f"duplicate entity {name!r}", entity_line, col)
        names.add(name)
        refs: list[Reference] = []
        if peek() == "extends":
            take("extends")
            target, _ = take_name("superclass name")
            refs.append(Reference(_INHERITANCE_FIELD, target, INHERITANCE))
        take("{")
        attrs: list[Attribute] = []
        while peek() != "}":
            if peek() == "attr":
                take("attr")
                attr_name, _ = take_name("attribute name")
                take(":")
                attr_type, _ = take_name("attribute type")
                take(";")
                attrs.append(Attribute(attr_name, attr_type))
            elif peek() == "ref":
                take("ref")
                field_name, _ = take_name("reference field")
                take("->")
                target, _ = take_name("reference target")
                take(";")
                refs.append(Reference(field_name, target, ASSOCIATION))
            else:
                tok, tline, tcol = take()
                raise DslParseError(f"expected 'attr', 'ref' or '}}', got {tok!r}", tline, tcol)
        take("}")
        _check_entity_fields(name, attrs, refs, line=entity_line)
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
    return MonolithModel(entities, tuple(kept_functionalities), tuple(warnings))


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
