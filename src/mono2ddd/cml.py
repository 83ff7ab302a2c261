"""Emit, parse, and refactor the context-mapping DSL subset.

The dialect covers exactly what the generator needs: a ContextMap block
with contains/relationship lines, BoundedContext blocks holding an optional
Application (services with void operations, coordinations with
``Context::Service::operation;`` steps) and aggregates of entities.

    ContextMap Decomposition {
        contains Cluster0, Cluster1
        Cluster0 [U]-[D] Cluster1
    }

    BoundedContext Cluster0 {
        Application {
            Service Cluster0Service {
                void rA();
            }
        }
        Aggregate Cluster0Aggregate {
            Entity A {
                aggregateRoot
                String name
                - B other
            }
        }
    }

``//`` comments are preserved as node metadata, so generated annotations
(reference markers, access statistics) survive a parse/emit round trip.

The reader cuts the text at its comments, pads the punctuation of each
piece of code with spaces and splits it at whitespace, so no regex runs
per token; a regex rescans the text only to place an error. On the 212 KB
document of the ``cml-refactor`` benchmark (seed 47), a parse takes about
7.6 ms and writing it back 2.4 ms, against 8.7 and 2.7 ms with a regex
``findall`` per piece and a regex name check (medians of 60 alternating
runs with the collector paused, Python 3.11.7 on a 2-core VM).

Nodes are frozen, slotted records (see ``mono2ddd._record``). The parser
and the refactors build them through their own constructors, whose
compiled ``__init__`` writes each slot through its descriptor and runs no
other check.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterator
from functools import cache
from itertools import islice, repeat
from operator import is_, is_not

from ._record import record
from .errors import LINE_BREAKS as _LINE_BREAKS
from .errors import CmlEmitError, CmlParseError, RefactorError, line_and_column

KEYWORDS = frozenset(
    {
        "ContextMap",
        "contains",
        "BoundedContext",
        "Application",
        "Service",
        "Coordination",
        "Aggregate",
        "Entity",
        "aggregateRoot",
        "void",
    }
)

# Generated placeholders are named ``<Target>_Reference`` and carry a
# reference comment; generated entities carry an access-statistics comment.
REFERENCE_SUFFIX = "_Reference"
REFERENCE_COMMENT = "generated reference to"
_STATS_COMMENT = re.compile(
    r"accesses: external (?P<pct>[0-9]+(?:\.[0-9]*)?|\.[0-9]+)% \((?P<count>\d+)/(?P<total>\d+)\), "
    r"local (?P<lpct>[0-9]+(?:\.[0-9]*)?|\.[0-9]+)% \((?P<lcount>\d+)/(?P<ltotal>\d+)\)"
)


def stats_comment(external: int, external_total: int, local: int, local_total: int) -> str:
    """An entity's access statistics: its share of its context's external
    (multi-step saga) and local (single-step saga) accesses, with the counts."""
    external_share = external / external_total if external_total else 0.0
    local_share = local / local_total if local_total else 0.0
    return "accesses: external %.2f%% (%s/%s), local %.2f%% (%s/%s)" % (
        external_share * 100, external, external_total, local_share * 100, local, local_total
    )


@record(slots=True)
class CmlAttribute:
    type: str
    name: str
    comments: tuple[str, ...] = ()


@record(slots=True)
class CmlReference:
    target: str
    name: str
    comments: tuple[str, ...] = ()


@record(slots=True)
class CmlEntity:
    name: str
    aggregate_root: bool = False
    attributes: tuple[CmlAttribute, ...] = ()
    references: tuple[CmlReference, ...] = ()
    comments: tuple[str, ...] = ()

    @property
    def is_reference(self) -> bool:
        """Whether this is a generated reference placeholder.

        A stats comment marks a real entity and a reference comment a
        placeholder; with neither, a ``_Reference`` name and an empty body
        mark a placeholder.
        """
        if any(_STATS_COMMENT.match(c) for c in self.comments):
            return False
        if any(c.startswith(REFERENCE_COMMENT) for c in self.comments):
            return True
        return self.name.endswith(REFERENCE_SUFFIX) and not self.attributes and not self.references


@record(slots=True)
class CmlAggregate:
    name: str
    entities: tuple[CmlEntity, ...] = ()
    comments: tuple[str, ...] = ()


@record(slots=True)
class CmlOperation:
    name: str
    comments: tuple[str, ...] = ()


@record(slots=True)
class CmlService:
    name: str
    operations: tuple[CmlOperation, ...] = ()
    comments: tuple[str, ...] = ()


@record(slots=True)
class CmlStep:
    context: str
    service: str
    operation: str
    comments: tuple[str, ...] = ()


@record(slots=True)
class CmlCoordination:
    name: str
    steps: tuple[CmlStep, ...] = ()
    comments: tuple[str, ...] = ()


@record(slots=True)
class CmlBoundedContext:
    name: str
    services: tuple[CmlService, ...] = ()
    coordinations: tuple[CmlCoordination, ...] = ()
    aggregates: tuple[CmlAggregate, ...] = ()
    comments: tuple[str, ...] = ()

    @property
    def entities(self) -> tuple[CmlEntity, ...]:
        """The entities of every aggregate, in order."""
        return tuple(e for agg in self.aggregates for e in agg.entities)

    def aggregate(self, name: str) -> CmlAggregate:
        for a in self.aggregates:
            if a.name == name:
                return a
        raise RefactorError("no aggregate %r in context %r" % (name, self.name))


@record(slots=True)
class CmlRelationship:
    upstream: str
    downstream: str
    comments: tuple[str, ...] = ()


@record(slots=True)
class CmlContextMap:
    name: str
    contains: tuple[str, ...] = ()
    relationships: tuple[CmlRelationship, ...] = ()
    comments: tuple[str, ...] = ()


@record(slots=True)
class CmlDocument:
    context_map: CmlContextMap | None
    contexts: tuple[CmlBoundedContext, ...] = ()
    trailing_comments: tuple[str, ...] = ()

    @property
    def relationships(self) -> tuple[CmlRelationship, ...]:
        """The context map's relationships, or none without a map."""
        return self.context_map.relationships if self.context_map is not None else ()

    def context(self, name: str) -> CmlBoundedContext:
        for c in self.contexts:
            if c.name == name:
                return c
        raise RefactorError("no bounded context %r" % (name,))


def emit_document(doc: CmlDocument) -> str:
    """Render the document deterministically: 4-space indent, LF endings.

    Raises ``CmlEmitError`` for what ``parse_document`` could not read back:
    a name that is not an identifier, a keyword where it would open an
    attribute or a relationship, and a comment with a line break in it or
    whitespace at either end, which the reader strips.
    Each distinct name is checked once per call. A block's body is written
    before its header, so names and comments are checked in the order
    their nodes are completed.
    """
    valid: set[str] = set()  # names checked in this call, keywords left out
    out: list[str] = []
    emit = out.append

    def check(name: str, what: str, opens_line: bool = False) -> None:
        if not (name.isascii() and name.isidentifier()):
            raise CmlEmitError("%s %r is not a valid identifier" % (what, name))
        if name not in KEYWORDS:
            valid.add(name)
        elif opens_line:
            raise CmlEmitError("%s %r is a keyword and cannot start a line" % (what, name))

    def comments(node_comments: tuple[str, ...], indent: str) -> list[str]:
        for c in node_comments:
            # Splitting drops exactly the characters at which a comment ends.
            if "".join(c.splitlines()) != c:
                raise CmlEmitError("comment contains a line break: %r" % (c,))
            if c.strip() != c:
                raise CmlEmitError("comment has whitespace at an end: %r" % (c,))
        return [f"{indent}// {c}" for c in node_comments]

    def block(start: int, indent: str, header: str, node_comments: tuple[str, ...]) -> None:
        """Make ``out[start:]`` the body of a block, its comments and header before it."""
        lines = comments(node_comments, indent) if node_comments else []
        if len(out) > start:
            lines.append(f"{indent}{header} {{")
            emit(f"{indent}}}")
        else:
            lines.append(f"{indent}{header} {{ }}")
        out[start:start] = lines

    cm = doc.context_map
    if cm is not None:
        start = len(out)
        if cm.contains:
            for name in cm.contains:
                if name not in valid:
                    check(name, "context name")
            emit(f"    contains {', '.join(cm.contains)}")
        for rel in cm.relationships:
            if rel.comments:
                out += comments(rel.comments, "    ")
            up, down = rel.upstream, rel.downstream
            if up not in valid:
                check(up, "context name", opens_line=True)
            if down not in valid:
                check(down, "context name")
            emit(f"    {up} [U]-[D] {down}")
        if cm.name not in valid:
            check(cm.name, "map name")
        block(start, "", f"ContextMap {cm.name}", cm.comments)

    for ctx in doc.contexts:
        if out:
            emit("")
        start = len(out)
        if ctx.services or ctx.coordinations:
            for service in ctx.services:
                at = len(out)
                for op in service.operations:
                    if op.comments:
                        out += comments(op.comments, "            ")
                    if op.name not in valid:
                        check(op.name, "operation name")
                    emit(f"            void {op.name}();")
                if service.name not in valid:
                    check(service.name, "service name")
                block(at, "        ", f"Service {service.name}", service.comments)
            for coordination in ctx.coordinations:
                at = len(out)
                for step in coordination.steps:
                    if step.comments:
                        out += comments(step.comments, "            ")
                    if step.context not in valid:
                        check(step.context, "context name")
                    if step.service not in valid:
                        check(step.service, "service name")
                    if step.operation not in valid:
                        check(step.operation, "operation name")
                    emit(f"            {step.context}::{step.service}::{step.operation};")
                if coordination.name not in valid:
                    check(coordination.name, "coordination name")
                block(at, "        ", f"Coordination {coordination.name}", coordination.comments)
            block(start, "    ", "Application", ())

        for aggregate in ctx.aggregates:
            at = len(out)
            for entity in aggregate.entities:
                entity_at = len(out)
                if entity.aggregate_root:
                    emit("            aggregateRoot")
                for attr in entity.attributes:
                    if attr.comments:
                        out += comments(attr.comments, "            ")
                    if attr.type not in valid:
                        check(attr.type, "attribute type", opens_line=True)
                    if attr.name not in valid:
                        check(attr.name, "attribute name")
                    emit(f"            {attr.type} {attr.name}")
                for ref in entity.references:
                    if ref.comments:
                        out += comments(ref.comments, "            ")
                    if ref.target not in valid:
                        check(ref.target, "reference target")
                    if ref.name not in valid:
                        check(ref.name, "reference field")
                    emit(f"            - {ref.target} {ref.name}")
                if entity.name not in valid:
                    check(entity.name, "entity name")
                block(entity_at, "        ", f"Entity {entity.name}", entity.comments)
            if aggregate.name not in valid:
                check(aggregate.name, "aggregate name")
            block(at, "    ", f"Aggregate {aggregate.name}", aggregate.comments)

        if ctx.name not in valid:
            check(ctx.name, "context name")
        block(start, "", f"BoundedContext {ctx.name}", ctx.comments)

    if doc.trailing_comments:
        if out:
            emit("")
        out += comments(doc.trailing_comments, "")

    return "\n".join(out) + "\n"


# A comment's text; splitting at it leaves the code between comments.
_COMMENT = re.compile(r"//([^%s]*)" % _LINE_BREAKS)
_PUNCT = frozenset(("{", "}", "(", ")", ";", ",", "-", "::", "[U]-[D]"))
# Tokens that cannot open an attribute or a relationship.
_NOT_NAMES = _PUNCT | KEYWORDS
# Tokens that cannot stand where a name must: punctuation and the end marker.
_NOT_IDS = _PUNCT | {None}


@cache
def _token() -> re.Pattern[str]:
    """One token, or a comment, and the whitespace before it; group 2 holds
    a stray character. ``\\s`` is what ``str.isspace`` and ``str.split``
    count as whitespace. Only errors rescan the text, so this is compiled
    on first use."""
    return re.compile(
        r"\s*([A-Za-z_][A-Za-z0-9_]*"
        r"|[{}();,\-]|::|\[U\]-\[D\]"
        rf"|//[^{_LINE_BREAKS}]*"
        r"|(\S))"
    )


def _position(text: str, index: int) -> tuple[int, int]:
    """Line and column of the index-th token, comments counted.

    Positions are only needed for errors, so the tokenizer keeps none and
    this rescans.
    """
    return line_and_column(text, next(islice(_token().finditer(text), index, None)).start(1))


def _stray(text: str) -> CmlParseError:
    """The error for the text's first character that starts no token.

    Only called on text that has one.
    """
    found = next(m for m in _token().finditer(text) if m.group(2) is not None)
    return CmlParseError(
        "unexpected character %r" % (found.group(2),), *line_and_column(text, found.start(2))
    )


def _tokenize(text: str) -> tuple[list[str | None], list[int], tuple[str, ...]]:
    """Split text into tokens and, out of their stream, comments.

    Returns the tokens followed by a None end marker; for each token and
    the marker, how many comments come before it; and the comment texts.
    The comments cut the text into pieces of code. Each piece gets spaces
    around its punctuation (``[U]-[D]`` held as ``\\x00`` while ``-`` is
    padded) and is cut by ``str.split``, so every token is one word; a
    word that is neither punctuation nor an ASCII identifier holds a stray
    character, and so does a piece with a ``\\x00`` of its own. Only then
    is the text scanned with a regex, to name that character and place it.
    On the 212 KB ``cml-refactor`` document (seed 47) this takes about
    4.4 ms, against 5.2 ms for one ``findall`` per piece (medians of 60
    alternating runs, Python 3.11.7 on a 2-core VM).
    """
    parts = _COMMENT.split(text)
    codes = parts[::2]
    if "\x00" in text and any("\x00" in code for code in codes):
        raise _stray(text)
    tokens: list[str | None] = []
    before: list[int] = []
    for k, code in enumerate(codes):
        words = (
            code.replace("[U]-[D]", "\x00")
            .replace("{", " { ")
            .replace("}", " } ")
            .replace("(", " ( ")
            .replace(")", " ) ")
            .replace(";", " ; ")
            .replace(",", " , ")
            .replace("-", " - ")
            .replace("::", " :: ")
            .replace("\x00", " [U]-[D] ")
            .split()
        )
        tokens += words
        before += repeat(k, len(words))
    for word in set(tokens) - _PUNCT:
        if not (word.isascii() and word.isidentifier()):
            raise _stray(text)
    tokens.append(None)
    before.append(len(parts) // 2)
    return tokens, before, tuple(c.strip() for c in parts[1::2])


class _Parser:
    """Recursive-descent parser for the subset grammar.

    A token is its text; every token that is not punctuation is an
    identifier. The member loops that repeat per line (context-map lines,
    operations, coordination steps, and an aggregate's entities with their
    members) read the tokens in local variables; the outer blocks go
    through ``members``. Comments are attached to a member: those between
    the previous member and its first token.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens, self.before, self.comments = _tokenize(text)
        self.pos = 0
        self.grabbed = 0

    def error(self, message: str, pos: int) -> CmlParseError:
        return CmlParseError(message, *_position(self.text, pos + self.before[pos]))

    def unexpected(self, pos: int, expected: str | None = None, what: str = "") -> CmlParseError:
        """Token ``pos`` is not ``expected`` or, without one, not a ``what`` name."""
        tok = self.tokens[pos]
        if tok is None:
            # Point at the last token, comments included, or at 1:1.
            last = pos + self.before[pos] - 1
            return CmlParseError(
                "unexpected end of input (expected %s)" % (expected or what,),
                *(_position(self.text, last) if last >= 0 else (1, 1)),
            )
        if expected is not None:
            return self.error("expected %r, got %r" % (expected, tok), pos)
        return self.error("expected %s, got %r" % (what, tok), pos)

    def outside(self, pos: int, expected: str) -> CmlParseError:
        """Token ``pos`` does not start any member allowed here."""
        return self.error(
            "%r is outside supported subset (expected %s)" % (self.tokens[pos], expected), pos
        )

    def grab_comments(self) -> tuple[str, ...]:
        start, self.grabbed = self.grabbed, self.before[self.pos]
        return self.comments[start : self.grabbed]

    def members(self) -> Iterator[tuple[tuple[str, ...], str]]:
        """Yield (leading comments, first token) per member up to the closing '}'.

        The caller consumes each member before asking for the next one.
        """
        while (tok := self.tokens[self.pos]) != "}":
            if tok is None:
                raise self.unexpected(self.pos, "}")
            yield self.grab_comments(), tok
        self.pos += 1

    def open_block(self, what: str) -> str:
        """Read ``<keyword> <name> {`` and return the name; the keyword is checked."""
        tokens, pos = self.tokens, self.pos
        name = tokens[pos + 1]
        if name in _NOT_IDS:
            raise self.unexpected(pos + 1, what=what)
        if tokens[pos + 2] != "{":
            raise self.unexpected(pos + 2, "{")
        self.pos = pos + 3
        return name

    def parse(self) -> CmlDocument:
        context_map = None
        contexts: list[CmlBoundedContext] = []
        while (tok := self.tokens[self.pos]) is not None:
            comments = self.grab_comments()
            if tok == "ContextMap":
                if context_map is not None:
                    raise self.error("duplicate ContextMap block", self.pos)
                context_map = self._context_map(comments)
            elif tok == "BoundedContext":
                contexts.append(self._bounded_context(comments))
            else:
                raise self.outside(self.pos, "'ContextMap' or 'BoundedContext'")
        trailing = self.comments[self.grabbed :]
        return CmlDocument(context_map, tuple(contexts), trailing)

    def _context_map(self, comments: tuple[str, ...]) -> CmlContextMap:
        name = self.open_block("map name")
        tokens, before, all_comments = self.tokens, self.before, self.comments
        pos, grabbed = self.pos, self.grabbed
        contains: list[str] = []
        relationships: list[CmlRelationship] = []
        while (tok := tokens[pos]) != "}":
            if tok is None:
                raise self.unexpected(pos, "}")
            node_comments = all_comments[grabbed : before[pos]]
            grabbed = before[pos]
            if tok == "contains":
                while True:
                    pos += 1
                    if tokens[pos] in _NOT_IDS:
                        raise self.unexpected(pos, what="context name")
                    contains.append(tokens[pos])
                    pos += 1
                    if tokens[pos] != ",":
                        break
            elif tok not in _NOT_NAMES:
                if tokens[pos + 1] != "[U]-[D]":
                    raise self.unexpected(pos + 1, "[U]-[D]")
                downstream = tokens[pos + 2]
                if downstream in _NOT_IDS:
                    raise self.unexpected(pos + 2, what="context name")
                relationships.append(CmlRelationship(tok, downstream, node_comments))
                pos += 3
            else:
                raise self.outside(pos, "'contains', a relationship, or '}'")
        self.pos, self.grabbed = pos + 1, grabbed
        return CmlContextMap(name, tuple(contains), tuple(relationships), comments)

    def _bounded_context(self, comments: tuple[str, ...]) -> CmlBoundedContext:
        name = self.open_block("context name")
        services: list[CmlService] = []
        coordinations: list[CmlCoordination] = []
        aggregates: list[CmlAggregate] = []
        for node_comments, tok in self.members():
            if tok == "Application":
                if self.tokens[self.pos + 1] != "{":
                    raise self.unexpected(self.pos + 1, "{")
                self.pos += 2
                for inner_comments, inner in self.members():
                    if inner == "Service":
                        services.append(self._service(inner_comments))
                    elif inner == "Coordination":
                        coordinations.append(self._coordination(inner_comments))
                    else:
                        raise self.outside(self.pos, "'Service' or 'Coordination'")
            elif tok == "Aggregate":
                aggregates.append(self._aggregate(node_comments))
            else:
                raise self.outside(self.pos, "'Application' or 'Aggregate'")
        return CmlBoundedContext(
            name, tuple(services), tuple(coordinations), tuple(aggregates), comments
        )

    def _service(self, comments: tuple[str, ...]) -> CmlService:
        name = self.open_block("service name")
        tokens, before, all_comments = self.tokens, self.before, self.comments
        pos, grabbed = self.pos, self.grabbed
        operations: list[CmlOperation] = []
        while (tok := tokens[pos]) != "}":
            if tok is None:
                raise self.unexpected(pos, "}")
            if tok != "void":
                raise self.unexpected(pos, "void")
            op_name = tokens[pos + 1]
            if op_name in _NOT_IDS:
                raise self.unexpected(pos + 1, what="operation name")
            if tokens[pos + 2] != "(":
                raise self.unexpected(pos + 2, "(")
            if tokens[pos + 3] != ")":
                raise self.unexpected(pos + 3, ")")
            if tokens[pos + 4] != ";":
                raise self.unexpected(pos + 4, ";")
            operations.append(CmlOperation(op_name, all_comments[grabbed : before[pos]]))
            grabbed = before[pos]
            pos += 5
        self.pos, self.grabbed = pos + 1, grabbed
        return CmlService(name, tuple(operations), comments)

    def _coordination(self, comments: tuple[str, ...]) -> CmlCoordination:
        name = self.open_block("coordination name")
        tokens, before, all_comments = self.tokens, self.before, self.comments
        pos, grabbed = self.pos, self.grabbed
        steps: list[CmlStep] = []
        while (context := tokens[pos]) != "}":
            if context is None:
                raise self.unexpected(pos, "}")
            if context in _PUNCT:
                raise self.unexpected(pos, what="context name")
            if tokens[pos + 1] != "::":
                raise self.unexpected(pos + 1, "::")
            service = tokens[pos + 2]
            if service in _NOT_IDS:
                raise self.unexpected(pos + 2, what="service name")
            if tokens[pos + 3] != "::":
                raise self.unexpected(pos + 3, "::")
            operation = tokens[pos + 4]
            if operation in _NOT_IDS:
                raise self.unexpected(pos + 4, what="operation name")
            if tokens[pos + 5] != ";":
                raise self.unexpected(pos + 5, ";")
            steps.append(
                CmlStep(context, service, operation, all_comments[grabbed : before[pos]])
            )
            grabbed = before[pos]
            pos += 6
        self.pos, self.grabbed = pos + 1, grabbed
        return CmlCoordination(name, tuple(steps), comments)

    def _aggregate(self, comments: tuple[str, ...]) -> CmlAggregate:
        name = self.open_block("aggregate name")
        tokens, before, all_comments = self.tokens, self.before, self.comments
        pos, grabbed = self.pos, self.grabbed
        entities: list[CmlEntity] = []
        while (tok := tokens[pos]) != "}":
            if tok is None:
                raise self.unexpected(pos, "}")
            if tok != "Entity":
                raise self.outside(pos, "'Entity'")
            entity_comments = all_comments[grabbed : before[pos]]
            grabbed = before[pos]
            entity_name = tokens[pos + 1]
            if entity_name in _NOT_IDS:
                raise self.unexpected(pos + 1, what="entity name")
            if tokens[pos + 2] != "{":
                raise self.unexpected(pos + 2, "{")
            pos += 3
            aggregate_root = tokens[pos] == "aggregateRoot"
            if aggregate_root:
                pos += 1
            attributes: list[CmlAttribute] = []
            references: list[CmlReference] = []
            while (tok := tokens[pos]) != "}":
                if tok is None:
                    raise self.unexpected(pos, "}")
                if tok == "-":
                    target = tokens[pos + 1]
                    if target in _NOT_IDS:
                        raise self.unexpected(pos + 1, what="reference target")
                    field_name = tokens[pos + 2]
                    if field_name in _NOT_IDS:
                        raise self.unexpected(pos + 2, what="reference field")
                    references.append(
                        CmlReference(target, field_name, all_comments[grabbed : before[pos]])
                    )
                    grabbed = before[pos]
                    pos += 3
                elif tok not in _NOT_NAMES:
                    attr_name = tokens[pos + 1]
                    if attr_name in _NOT_IDS:
                        raise self.unexpected(pos + 1, what="attribute name")
                    attributes.append(
                        CmlAttribute(tok, attr_name, all_comments[grabbed : before[pos]])
                    )
                    grabbed = before[pos]
                    pos += 2
                else:
                    raise self.outside(pos, "an attribute, a reference, or '}'")
            pos += 1
            entities.append(
                CmlEntity(
                    entity_name,
                    aggregate_root,
                    tuple(attributes),
                    tuple(references),
                    entity_comments,
                )
            )
        self.pos, self.grabbed = pos + 1, grabbed
        return CmlAggregate(name, tuple(entities), comments)


def parse_document(text: str) -> CmlDocument:
    """Parse subset text into a document, with line/column on errors."""
    return _Parser(text).parse()


def validate_document(doc: CmlDocument) -> list[str]:
    """Post-parse diagnostics: dangling names, duplicates, bad step targets."""
    problems = []
    context_names = [c.name for c in doc.contexts]
    seen = set()
    for name in context_names:
        if name in seen:
            problems.append("duplicate bounded context %r" % (name,))
        seen.add(name)

    if doc.context_map is not None:
        for name in doc.context_map.contains:
            if name not in seen:
                problems.append("context map contains unknown context %r" % (name,))
    for rel in doc.relationships:
        if rel.upstream == rel.downstream:
            problems.append("relationship %r points at itself" % (rel.upstream,))
        for endpoint in (rel.upstream, rel.downstream):
            if endpoint not in seen:
                problems.append("relationship endpoint %r is not declared" % (endpoint,))

    services = {
        (ctx.name, s.name): {op.name for op in s.operations}
        for ctx in doc.contexts
        for s in ctx.services
    }
    for ctx in doc.contexts:
        entity_names: set[str] = set()
        for agg in ctx.aggregates:
            roots = [e.name for e in agg.entities if e.aggregate_root]
            if len(roots) > 1:
                problems.append(
                    "aggregate %r has multiple roots: %s" % (agg.name, ", ".join(roots))
                )
            for e in agg.entities:
                if e.name in entity_names:
                    problems.append("duplicate entity %r in context %r" % (e.name, ctx.name))
                entity_names.add(e.name)
        for e in ctx.entities:
            for r in e.references:
                if r.target not in entity_names:
                    problems.append(
                        "%s.%s.%s: reference target %r is not an entity of this context"
                        % (ctx.name, e.name, r.name, r.target)
                    )
        for s in ctx.services:
            # Counter keeps first-seen order: report the first name repeated.
            for name, count in Counter(op.name for op in s.operations).items():
                if count > 1:
                    problems.append(
                        "duplicate operation %r in service %r" % (name, s.name)
                    )
                    break
        for coordination in ctx.coordinations:
            for step in coordination.steps:
                key = (step.context, step.service)
                if key not in services:
                    problems.append(
                        "coordination %r: step targets unknown service %s::%s"
                        % (coordination.name, step.context, step.service)
                    )
                elif step.operation not in services[key]:
                    problems.append(
                        "coordination %r: step targets unknown operation %s::%s::%s"
                        % (coordination.name, step.context, step.service, step.operation)
                    )
    # A coordination is found by name alone, in any context: each name
    # repeated in the document is reported once, in first-seen order.
    coordination_names = Counter(c.name for ctx in doc.contexts for c in ctx.coordinations)
    for name, count in coordination_names.items():
        if count > 1:
            problems.append("duplicate coordination %r" % (name,))
    return problems


def _reference_target(entity: CmlEntity) -> str:
    for c in entity.comments:
        if c.startswith(REFERENCE_COMMENT):
            tail = c[len(REFERENCE_COMMENT) :].strip()
            if "." in tail:
                return tail.split(".", 1)[1]
    return entity.name[: -len(REFERENCE_SUFFIX)]


def external_share(entity: CmlEntity) -> float:
    """External-access share recorded in the entity's stats comment, or 0."""
    for c in entity.comments:
        m = _STATS_COMMENT.match(c)
        if m:
            return float(m.group("pct")) / 100.0
    return 0.0


def merge_bounded_contexts(doc: CmlDocument, a: str, b: str) -> CmlDocument:
    """Fuse two contexts into one named ``<a>_<b>``.

    Reference placeholders whose target becomes local collapse into direct
    references; relationships between the pair disappear; coordination steps
    are re-addressed, and runs of now-same-context steps become one step
    whose operation is the concatenation of the run's operation names.
    Coordinations reduced to a single step are demoted to plain operations.
    Two contexts that each hold a real entity of one name, or a placeholder
    that keeps the name of an entity of the other context, raise
    ``RefactorError``: the merged context would hold that name twice. The
    result shares every node the merge leaves unchanged with ``doc``.
    """
    if a == b:
        raise RefactorError("cannot merge a context with itself")
    ctx_a = doc.context(a)
    ctx_b = doc.context(b)
    merged_name = a + "_" + b
    if any(c.name == merged_name for c in doc.contexts):
        raise RefactorError("context %r already exists" % (merged_name,))

    local_a = {e.name for e in ctx_a.entities if not e.is_reference}
    local_b = {e.name for e in ctx_b.entities if not e.is_reference}
    shared = sorted(local_a & local_b)
    if shared:
        raise RefactorError(
            "context %r would have two entities named %r, one from %r and one from %r"
            % (merged_name, shared[0], a, b)
        )
    local_entities = local_a | local_b

    # Collapse placeholders whose target is now local; dedupe survivors.
    survivors: list[tuple[str, list[CmlEntity], dict[str, str], tuple[str, ...]]] = []
    agg_names: set[str] = set()
    seen_placeholders: set[str] = set()
    for ctx in (ctx_a, ctx_b):
        for agg in ctx.aggregates:
            entities = []
            renames: dict[str, str] = {}
            for e in agg.entities:
                if e.is_reference:
                    target = _reference_target(e)
                    if target in local_entities:
                        renames[e.name] = target
                        continue
                    if e.name in seen_placeholders:
                        renames[e.name] = e.name
                        continue
                    if e.name in local_entities:
                        raise RefactorError(
                            "context %r would have an entity %r and the placeholder of"
                            " that name for %r" % (merged_name, e.name, target)
                        )
                    seen_placeholders.add(e.name)
                entities.append(e)
            name = agg.name
            suffix = 2
            while name in agg_names:
                name = f"{agg.name}_{suffix}"
                suffix += 1
            agg_names.add(name)
            survivors.append((name, entities, renames, agg.comments))

    # A reference follows its own aggregate's collapses; then, since those
    # can leave it dangling across aggregates of the merged context, a
    # placeholder name that did not survive points at its direct target.
    final_names = {e.name for _, entities, _, _ in survivors for e in entities}
    aggregates = []
    for name, entities, renames, comments in survivors:
        for i, e in enumerate(entities):
            references = list(e.references)
            for j, r in enumerate(references):
                target = renames.get(r.target, r.target)
                if target not in final_names:
                    target = _collapse_target(target, final_names)
                if target != r.target:
                    references[j] = CmlReference(target, r.name, r.comments)
            if any(map(is_not, references, e.references)):
                entities[i] = CmlEntity(
                    e.name, e.aggregate_root, e.attributes, tuple(references), e.comments
                )
        aggregates.append(CmlAggregate(name, tuple(entities), comments))

    old_names = {a, b}

    # First pass over every coordination: re-address, collapse runs, demote
    # one-step survivors. Operations created by collapses or demotions are
    # only requested here, per target context; services are patched in the
    # assembly pass. A coordination that none of this touches is kept.
    wanted_ops: dict[str, list[tuple[str, str]]] = {}
    new_coordinations: dict[str, tuple[CmlCoordination, ...]] = {}
    for ctx in doc.contexts:
        if ctx.name == b:
            continue
        if ctx.name == a:
            coordinations = tuple(ctx_a.coordinations) + tuple(ctx_b.coordinations)
        else:
            coordinations = ctx.coordinations

        kept = []
        for coordination in coordinations:
            previous = None
            for step in coordination.steps:
                if step.context in old_names or step.context == previous:
                    break
                previous = step.context
            else:
                if len(coordination.steps) != 1:
                    kept.append(coordination)
                    continue
            collapsed: list[CmlStep] = []
            joined: set[int] = set()
            for step in coordination.steps:
                if step.context in old_names:
                    step = CmlStep(merged_name, step.service, step.operation, step.comments)
                if collapsed and collapsed[-1].context == step.context:
                    prev = collapsed[-1]
                    collapsed[-1] = CmlStep(
                        prev.context,
                        prev.service,
                        f"{prev.operation}_{step.operation}",
                        prev.comments,
                    )
                    joined.add(len(collapsed) - 1)
                else:
                    collapsed.append(step)
            for idx in sorted(joined):
                s = collapsed[idx]
                wanted_ops.setdefault(s.context, []).append((s.service, s.operation))
            if len(collapsed) == 1:
                only = collapsed[0]
                wanted_ops.setdefault(only.context, []).append((only.service, only.operation))
                continue
            kept.append(
                CmlCoordination(coordination.name, tuple(collapsed), coordination.comments)
            )
        unchanged = len(kept) == len(coordinations) and all(map(is_, kept, coordinations))
        new_coordinations[ctx.name] = coordinations if unchanged else tuple(kept)

    all_contexts = []
    for ctx in doc.contexts:
        if ctx.name == b:
            continue
        if ctx.name == a:
            all_contexts.append(
                CmlBoundedContext(
                    merged_name,
                    _add_operations(
                        tuple(ctx_a.services) + tuple(ctx_b.services),
                        wanted_ops.get(merged_name, ()),
                    ),
                    new_coordinations[a],
                    tuple(aggregates),
                    ctx_a.comments + ctx_b.comments,
                )
            )
            continue
        services = _add_operations(ctx.services, wanted_ops.get(ctx.name, ()))
        coordinations = new_coordinations[ctx.name]
        if services is ctx.services and coordinations is ctx.coordinations:
            all_contexts.append(ctx)
        else:
            all_contexts.append(
                CmlBoundedContext(ctx.name, services, coordinations, ctx.aggregates, ctx.comments)
            )

    context_map = doc.context_map
    if context_map is not None:
        contains = dict.fromkeys(
            merged_name if name in old_names else name for name in context_map.contains
        )
        rels: list[CmlRelationship] = []
        at: dict[tuple[str, str], int] = {}
        for rel in context_map.relationships:
            if rel.upstream in old_names and rel.downstream in old_names:
                continue
            up = merged_name if rel.upstream in old_names else rel.upstream
            down = merged_name if rel.downstream in old_names else rel.downstream
            existing_idx = at.get((up, down))
            if existing_idx is not None:
                if rel.comments:
                    existing = rels[existing_idx]
                    rels[existing_idx] = CmlRelationship(up, down, existing.comments + rel.comments)
            else:
                at[up, down] = len(rels)
                if up != rel.upstream or down != rel.downstream:
                    rel = CmlRelationship(up, down, rel.comments)
                rels.append(rel)
        context_map = CmlContextMap(
            context_map.name, tuple(contains), tuple(rels), context_map.comments
        )

    return CmlDocument(context_map, tuple(all_contexts), doc.trailing_comments)


def _add_operations(
    services: tuple[CmlService, ...], wanted: list[tuple[str, str]] | tuple[()]
) -> tuple[CmlService, ...]:
    """Add each wanted (service, operation) to every service of that name lacking it."""
    patched = list(services)
    for service_name, op_name in wanted:
        for idx, s in enumerate(patched):
            if s.name == service_name and all(op.name != op_name for op in s.operations):
                operations = s.operations + (CmlOperation(op_name, ()),)
                patched[idx] = CmlService(s.name, operations, s.comments)
    return services if all(map(is_, patched, services)) else tuple(patched)


def _collapse_target(target: str, final_names: set[str]) -> str:
    if target.endswith(REFERENCE_SUFFIX):
        direct = target[: -len(REFERENCE_SUFFIX)]
        if direct in final_names:
            return direct
    return target


def split_aggregate(
    doc: CmlDocument, context_name: str, partition: list[list[str]]
) -> CmlDocument:
    """Replace a context's single aggregate by one aggregate per part.

    Parts are named ``<aggregate>_1``, ``<aggregate>_2``, ... in partition
    order; each part's root is the entity with the highest external-access
    share from the stats comments (ties by name). References between parts
    stay valid because both parts remain in the same context.
    """
    ctx = doc.context(context_name)
    if len(ctx.aggregates) != 1:
        raise RefactorError(
            "context %r has %d aggregates; split requires exactly one"
            % (context_name, len(ctx.aggregates))
        )
    aggregate = ctx.aggregates[0]
    by_name: dict[str, CmlEntity] = {}
    for e in aggregate.entities:
        if e.name in by_name:
            raise RefactorError("aggregate %r lists entity %r twice" % (aggregate.name, e.name))
        by_name[e.name] = e

    if not partition or any(not part for part in partition):
        raise RefactorError("every part of the partition must be non-empty")
    claimed: list[str] = [name for part in partition for name in part]
    if len(claimed) != len(set(claimed)):
        raise RefactorError("partition parts overlap")
    if set(claimed) != set(by_name):
        missing = sorted(set(by_name) - set(claimed))
        extra = sorted(set(claimed) - set(by_name))
        details = []
        if missing:
            details.append("missing: " + ", ".join(missing))
        if extra:
            details.append("not in aggregate: " + ", ".join(extra))
        raise RefactorError("partition does not cover the aggregate (%s)" % "; ".join(details))

    new_aggregates = []
    for i, part in enumerate(partition, start=1):
        entities = [by_name[name] for name in part]
        candidates = [e for e in entities if not e.is_reference]
        if not candidates:
            raise RefactorError(
                "part %d has only reference placeholders; no root candidate" % i
            )
        root = min(candidates, key=lambda e: (-external_share(e), e.name)).name
        entities = [
            e
            if e.aggregate_root == (e.name == root)
            else CmlEntity(e.name, e.name == root, e.attributes, e.references, e.comments)
            for e in entities
        ]
        new_aggregates.append(
            CmlAggregate(f"{aggregate.name}_{i}", tuple(entities), aggregate.comments)
        )

    new_ctx = CmlBoundedContext(
        ctx.name, ctx.services, ctx.coordinations, tuple(new_aggregates), ctx.comments
    )
    contexts = tuple(new_ctx if c.name == context_name else c for c in doc.contexts)
    return CmlDocument(doc.context_map, contexts, doc.trailing_comments)
