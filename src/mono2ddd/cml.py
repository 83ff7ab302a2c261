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
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from itertools import islice

from .dddmap import DddModel, REFERENCE_SUFFIX
from .errors import CmlEmitError, CmlParseError, RefactorError

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

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

REFERENCE_COMMENT = "generated reference to"
_STATS_COMMENT = re.compile(
    r"accesses: external (?P<pct>[0-9.]+)% \((?P<count>\d+)/(?P<total>\d+)\), "
    r"local (?P<lpct>[0-9.]+)% \((?P<lcount>\d+)/(?P<ltotal>\d+)\)"
)


@dataclass(frozen=True)
class CmlAttribute:
    type: str
    name: str
    comments: tuple[str, ...] = ()


@dataclass(frozen=True)
class CmlReference:
    target: str
    name: str
    comments: tuple[str, ...] = ()


@dataclass(frozen=True)
class CmlEntity:
    name: str
    aggregate_root: bool = False
    attributes: tuple[CmlAttribute, ...] = ()
    references: tuple[CmlReference, ...] = ()
    comments: tuple[str, ...] = ()


@dataclass(frozen=True)
class CmlAggregate:
    name: str
    entities: tuple[CmlEntity, ...] = ()
    comments: tuple[str, ...] = ()


@dataclass(frozen=True)
class CmlOperation:
    name: str
    comments: tuple[str, ...] = ()


@dataclass(frozen=True)
class CmlService:
    name: str
    operations: tuple[CmlOperation, ...] = ()
    comments: tuple[str, ...] = ()


@dataclass(frozen=True)
class CmlStep:
    context: str
    service: str
    operation: str
    comments: tuple[str, ...] = ()


@dataclass(frozen=True)
class CmlCoordination:
    name: str
    steps: tuple[CmlStep, ...] = ()
    comments: tuple[str, ...] = ()


@dataclass(frozen=True)
class CmlBoundedContext:
    name: str
    services: tuple[CmlService, ...] = ()
    coordinations: tuple[CmlCoordination, ...] = ()
    aggregates: tuple[CmlAggregate, ...] = ()
    comments: tuple[str, ...] = ()

    def aggregate(self, name: str) -> CmlAggregate:
        for a in self.aggregates:
            if a.name == name:
                return a
        raise RefactorError(f"no aggregate {name!r} in context {self.name!r}")


@dataclass(frozen=True)
class CmlRelationship:
    upstream: str
    downstream: str
    comments: tuple[str, ...] = ()


@dataclass(frozen=True)
class CmlContextMap:
    name: str
    contains: tuple[str, ...] = ()
    relationships: tuple[CmlRelationship, ...] = ()
    comments: tuple[str, ...] = ()


@dataclass(frozen=True)
class CmlDocument:
    context_map: CmlContextMap | None
    contexts: tuple[CmlBoundedContext, ...] = ()
    trailing_comments: tuple[str, ...] = ()

    def context(self, name: str) -> CmlBoundedContext:
        for c in self.contexts:
            if c.name == name:
                return c
        raise RefactorError(f"no bounded context {name!r}")


def document_from_ddd(ddd: DddModel) -> CmlDocument:
    """Mirror a DDD model as a concrete-syntax document."""
    relationships = tuple(
        CmlRelationship(
            r.upstream,
            r.downstream,
            tuple(f"reference: {src} -> {dst}" for src, dst in r.causes),
        )
        for r in ddd.relationships
    )
    context_map = CmlContextMap(
        name=ddd.map_name,
        contains=tuple(c.name for c in ddd.contexts),
        relationships=relationships,
    )

    contexts = []
    for ctx in ddd.contexts:
        # Context totals are recoverable from any member's stats pair.
        external_total = sum(e.stats.external_total for e in ctx.entities)
        local_total = sum(e.stats.local_total for e in ctx.entities)

        entities = []
        for e in ctx.entities:
            if e.is_reference:
                if e.reference_of is not None:
                    target_ctx, target = e.reference_of
                    comments = (f"{REFERENCE_COMMENT} {target_ctx}.{target}",)
                else:
                    comments = (f"{REFERENCE_COMMENT} {e.name}",)
            else:
                comments = (
                    "accesses: external "
                    f"{e.stats.external_pct * 100:.2f}% ({e.stats.external_total}/{external_total}), "
                    f"local {e.stats.local_pct * 100:.2f}% ({e.stats.local_total}/{local_total})",
                )
            entities.append(
                CmlEntity(
                    name=e.name,
                    aggregate_root=e.is_aggregate_root,
                    attributes=tuple(
                        CmlAttribute(a.type, a.name) for a in e.attributes
                    ),
                    references=tuple(
                        CmlReference(r.target, r.field) for r in e.local_refs
                    ),
                    comments=comments,
                )
            )

        contexts.append(
            CmlBoundedContext(
                name=ctx.name,
                services=(
                    CmlService(
                        ctx.service_name,
                        tuple(CmlOperation(op.name) for op in ctx.operations),
                    ),
                ),
                coordinations=tuple(
                    CmlCoordination(
                        c.name,
                        tuple(CmlStep(s[0], s[1], s[2]) for s in c.steps),
                    )
                    for c in ctx.coordinations
                ),
                aggregates=(CmlAggregate(ctx.aggregate_name, tuple(entities)),),
            )
        )
    return CmlDocument(context_map, tuple(contexts))


def _check_id(name: str, what: str) -> str:
    if not IDENTIFIER.match(name):
        raise CmlEmitError(f"{what} {name!r} is not a valid identifier")
    return name


def _comment_lines(comments: tuple[str, ...], indent: str) -> list[str]:
    lines = []
    for c in comments:
        if "\n" in c:
            raise CmlEmitError(f"comment contains a newline: {c!r}")
        lines.append(f"{indent}// {c}")
    return lines


def _block(header: str, body: list[str], indent: str, comments: tuple[str, ...]) -> list[str]:
    lines = _comment_lines(comments, indent)
    if body:
        lines.append(f"{indent}{header} {{")
        lines.extend(body)
        lines.append(f"{indent}}}")
    else:
        lines.append(f"{indent}{header} {{ }}")
    return lines


def emit_document(doc: CmlDocument) -> str:
    """Render the document deterministically: 4-space indent, LF endings."""
    blocks: list[list[str]] = []

    if doc.context_map is not None:
        cm = doc.context_map
        body = []
        if cm.contains:
            names = ", ".join(_check_id(n, "context name") for n in cm.contains)
            body.append(f"    contains {names}")
        for rel in cm.relationships:
            body.extend(_comment_lines(rel.comments, "    "))
            up = _check_id(rel.upstream, "context name")
            down = _check_id(rel.downstream, "context name")
            body.append(f"    {up} [U]-[D] {down}")
        blocks.append(
            _block(f"ContextMap {_check_id(cm.name, 'map name')}", body, "", cm.comments)
        )

    for ctx in doc.contexts:
        body: list[str] = []
        app_body: list[str] = []
        for service in ctx.services:
            ops = []
            for op in service.operations:
                ops.extend(_comment_lines(op.comments, "            "))
                ops.append(f"            void {_check_id(op.name, 'operation name')}();")
            app_body.extend(
                _block(
                    f"Service {_check_id(service.name, 'service name')}",
                    ops,
                    "        ",
                    service.comments,
                )
            )
        for coordination in ctx.coordinations:
            steps = []
            for step in coordination.steps:
                steps.extend(_comment_lines(step.comments, "            "))
                steps.append(
                    "            "
                    f"{_check_id(step.context, 'context name')}::"
                    f"{_check_id(step.service, 'service name')}::"
                    f"{_check_id(step.operation, 'operation name')};"
                )
            app_body.extend(
                _block(
                    f"Coordination {_check_id(coordination.name, 'coordination name')}",
                    steps,
                    "        ",
                    coordination.comments,
                )
            )
        if app_body:
            body.extend(_block("Application", app_body, "    ", ()))

        for aggregate in ctx.aggregates:
            agg_body: list[str] = []
            for entity in aggregate.entities:
                ent_body = []
                if entity.aggregate_root:
                    ent_body.append("            aggregateRoot")
                for attr in entity.attributes:
                    ent_body.extend(_comment_lines(attr.comments, "            "))
                    ent_body.append(
                        "            "
                        f"{_check_id(attr.type, 'attribute type')} "
                        f"{_check_id(attr.name, 'attribute name')}"
                    )
                for ref in entity.references:
                    ent_body.extend(_comment_lines(ref.comments, "            "))
                    ent_body.append(
                        "            "
                        f"- {_check_id(ref.target, 'reference target')} "
                        f"{_check_id(ref.name, 'reference field')}"
                    )
                agg_body.extend(
                    _block(
                        f"Entity {_check_id(entity.name, 'entity name')}",
                        ent_body,
                        "        ",
                        entity.comments,
                    )
                )
            body.extend(
                _block(
                    f"Aggregate {_check_id(aggregate.name, 'aggregate name')}",
                    agg_body,
                    "    ",
                    aggregate.comments,
                )
            )

        blocks.append(
            _block(
                f"BoundedContext {_check_id(ctx.name, 'context name')}",
                body,
                "",
                ctx.comments,
            )
        )

    if doc.trailing_comments:
        blocks.append(_comment_lines(doc.trailing_comments, ""))

    return "\n\n".join("\n".join(b) for b in blocks) + "\n"


# Everything str.splitlines splits at; a ``//`` comment ends at any of them.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

_TOKEN = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"
    r"|[{}();,\-]|::|\[U\]-\[D\]"
    rf"|//[^{_LINE_BREAKS}]*"
    r"|\S"
)
_PUNCT = frozenset(("{", "}", "(", ")", ";", ",", "-", "::", "[U]-[D]"))
_ID_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# Tokens that cannot open an attribute or a relationship.
_NOT_NAMES = _PUNCT | KEYWORDS


def _position(text: str, index: int) -> tuple[int, int]:
    """Line and column of the index-th token, comments counted.

    Positions are only needed for errors, so the tokenizer keeps none and
    this rescans. Lines are numbered as ``str.splitlines`` splits them.
    """
    start = next(islice(_TOKEN.finditer(text), index, None)).start()
    head = text[:start].splitlines(keepends=True)
    if head and head[-1][-1] not in _LINE_BREAKS:
        return len(head), len(head[-1]) + 1
    return len(head) + 1, 1


def _tokenize(text: str) -> tuple[list[str | None], list[int], tuple[str, ...]]:
    """Split text in one pass into tokens and, out of their stream, comments.

    Returns the tokens followed by a None end marker; for each token and
    the marker, how many comments come before it; and the comment texts.
    """
    tokens: list[str | None] = []
    before: list[int] = []
    comments: list[str] = []
    for tok in _TOKEN.findall(text):
        if tok in _PUNCT or tok[0] in _ID_START:
            tokens.append(tok)
            before.append(len(comments))
        elif tok[:2] == "//":
            comments.append(tok[2:].strip())
        else:
            raise CmlParseError(
                f"unexpected character {tok!r}",
                *_position(text, len(tokens) + len(comments)),
            )
    tokens.append(None)
    before.append(len(comments))
    return tokens, before, tuple(comments)


class _Parser:
    """Recursive-descent parser for the subset grammar.

    A token is its text; every token that is not punctuation is an
    identifier. Comments are attached by ``grab_comments``: those between
    the previous grab and the current token.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens, self.before, self.comments = _tokenize(text)
        self.pos = 0
        self.grabbed = 0

    def error(self, message: str, pos: int) -> CmlParseError:
        return CmlParseError(message, *_position(self.text, pos + self.before[pos]))

    def peek(self) -> str | None:
        return self.tokens[self.pos]

    def take(self, expected: str | None = None, what: str = "") -> str:
        tok = self.tokens[self.pos]
        if tok is None:
            # Point at the last token, comments included, or at 1:1.
            last = self.pos + self.before[self.pos] - 1
            raise CmlParseError(
                f"unexpected end of input (expected {expected or what or 'more input'})",
                *(_position(self.text, last) if last >= 0 else (1, 1)),
            )
        if expected is not None and tok != expected:
            raise self.error(f"expected {expected!r}, got {tok!r}", self.pos)
        self.pos += 1
        return tok

    def take_id(self, what: str) -> str:
        tok = self.take(None, what)
        if tok in _PUNCT:
            raise self.error(f"expected {what}, got {tok!r}", self.pos - 1)
        return tok

    def grab_comments(self) -> tuple[str, ...]:
        start, self.grabbed = self.grabbed, self.before[self.pos]
        return self.comments[start : self.grabbed]

    def members(self) -> Iterator[tuple[tuple[str, ...], str]]:
        """Yield (leading comments, first token) per member up to the closing '}'.

        The caller consumes each member before asking for the next one.
        """
        while True:
            tok = self.tokens[self.pos]
            if tok is None or tok == "}":
                self.take("}")
                return
            yield self.grab_comments(), tok

    def _outside(self, expected: str) -> CmlParseError:
        """The current token does not start any member allowed here."""
        return self.error(
            f"{self.peek()!r} is outside supported subset (expected {expected})",
            self.pos,
        )

    def parse(self) -> CmlDocument:
        context_map = None
        contexts: list[CmlBoundedContext] = []
        while (tok := self.peek()) is not None:
            comments = self.grab_comments()
            if tok == "ContextMap":
                if context_map is not None:
                    raise self.error("duplicate ContextMap block", self.pos)
                context_map = self._context_map(comments)
            elif tok == "BoundedContext":
                contexts.append(self._bounded_context(comments))
            else:
                raise self._outside("'ContextMap' or 'BoundedContext'")
        trailing = self.comments[self.grabbed :]
        return CmlDocument(context_map, tuple(contexts), trailing)

    def _context_map(self, comments: tuple[str, ...]) -> CmlContextMap:
        self.take("ContextMap")
        name = self.take_id("map name")
        self.take("{")
        contains: list[str] = []
        relationships: list[CmlRelationship] = []
        for node_comments, tok in self.members():
            if tok == "contains":
                self.take("contains")
                contains.append(self.take_id("context name"))
                while self.peek() == ",":
                    self.take(",")
                    contains.append(self.take_id("context name"))
            elif tok not in _NOT_NAMES:
                upstream = self.take_id("context name")
                self.take("[U]-[D]", what="'[U]-[D]'")
                downstream = self.take_id("context name")
                relationships.append(
                    CmlRelationship(upstream, downstream, node_comments)
                )
            else:
                raise self._outside("'contains', a relationship, or '}'")
        return CmlContextMap(name, tuple(contains), tuple(relationships), comments)

    def _bounded_context(self, comments: tuple[str, ...]) -> CmlBoundedContext:
        self.take("BoundedContext")
        name = self.take_id("context name")
        self.take("{")
        services: list[CmlService] = []
        coordinations: list[CmlCoordination] = []
        aggregates: list[CmlAggregate] = []
        for node_comments, tok in self.members():
            if tok == "Application":
                self.take("Application")
                self.take("{")
                for inner_comments, inner in self.members():
                    if inner == "Service":
                        services.append(self._service(inner_comments))
                    elif inner == "Coordination":
                        coordinations.append(self._coordination(inner_comments))
                    else:
                        raise self._outside("'Service' or 'Coordination'")
            elif tok == "Aggregate":
                aggregates.append(self._aggregate(node_comments))
            else:
                raise self._outside("'Application' or 'Aggregate'")
        return CmlBoundedContext(
            name, tuple(services), tuple(coordinations), tuple(aggregates), comments
        )

    def _service(self, comments: tuple[str, ...]) -> CmlService:
        self.take("Service")
        name = self.take_id("service name")
        self.take("{")
        operations: list[CmlOperation] = []
        for op_comments, _ in self.members():
            self.take("void", what="'void'")
            op_name = self.take_id("operation name")
            self.take("(")
            self.take(")")
            self.take(";")
            operations.append(CmlOperation(op_name, op_comments))
        return CmlService(name, tuple(operations), comments)

    def _coordination(self, comments: tuple[str, ...]) -> CmlCoordination:
        self.take("Coordination")
        name = self.take_id("coordination name")
        self.take("{")
        steps: list[CmlStep] = []
        for step_comments, _ in self.members():
            context = self.take_id("context name")
            self.take("::")
            service = self.take_id("service name")
            self.take("::")
            operation = self.take_id("operation name")
            self.take(";")
            steps.append(CmlStep(context, service, operation, step_comments))
        return CmlCoordination(name, tuple(steps), comments)

    def _aggregate(self, comments: tuple[str, ...]) -> CmlAggregate:
        self.take("Aggregate")
        name = self.take_id("aggregate name")
        self.take("{")
        entities: list[CmlEntity] = []
        for entity_comments, tok in self.members():
            if tok != "Entity":
                raise self._outside("'Entity'")
            entities.append(self._entity(entity_comments))
        return CmlAggregate(name, tuple(entities), comments)

    def _entity(self, comments: tuple[str, ...]) -> CmlEntity:
        self.take("Entity")
        name = self.take_id("entity name")
        self.take("{")
        aggregate_root = False
        if self.peek() == "aggregateRoot":
            self.take("aggregateRoot")
            aggregate_root = True
        attributes: list[CmlAttribute] = []
        references: list[CmlReference] = []
        for member_comments, tok in self.members():
            if tok == "-":
                self.take("-")
                target = self.take_id("reference target")
                field_name = self.take_id("reference field")
                references.append(CmlReference(target, field_name, member_comments))
            elif tok not in _NOT_NAMES:
                attr_type = self.take_id("attribute type")
                attr_name = self.take_id("attribute name")
                attributes.append(CmlAttribute(attr_type, attr_name, member_comments))
            else:
                raise self._outside("an attribute, a reference, or '}'")
        return CmlEntity(
            name, aggregate_root, tuple(attributes), tuple(references), comments
        )


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
            problems.append(f"duplicate bounded context {name!r}")
        seen.add(name)

    if doc.context_map is not None:
        for name in doc.context_map.contains:
            if name not in seen:
                problems.append(f"context map contains unknown context {name!r}")
        for rel in doc.context_map.relationships:
            if rel.upstream == rel.downstream:
                problems.append(f"relationship {rel.upstream!r} points at itself")
            for endpoint in (rel.upstream, rel.downstream):
                if endpoint not in seen:
                    problems.append(f"relationship endpoint {endpoint!r} is not declared")

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
                    f"aggregate {agg.name!r} has multiple roots: {', '.join(roots)}"
                )
            for e in agg.entities:
                if e.name in entity_names:
                    problems.append(f"duplicate entity {e.name!r} in context {ctx.name!r}")
                entity_names.add(e.name)
        for agg in ctx.aggregates:
            for e in agg.entities:
                for r in e.references:
                    if r.target not in entity_names:
                        problems.append(
                            f"{ctx.name}.{e.name}.{r.name}: reference target "
                            f"{r.target!r} is not an entity of this context"
                        )
        for s in ctx.services:
            # Counter keeps first-seen order: report the first name repeated.
            for name, count in Counter(op.name for op in s.operations).items():
                if count > 1:
                    problems.append(
                        f"duplicate operation {name!r} in service {s.name!r}"
                    )
                    break
        for coordination in ctx.coordinations:
            for step in coordination.steps:
                key = (step.context, step.service)
                if key not in services:
                    problems.append(
                        f"coordination {coordination.name!r}: step targets unknown "
                        f"service {step.context}::{step.service}"
                    )
                elif step.operation not in services[key]:
                    problems.append(
                        f"coordination {coordination.name!r}: step targets unknown "
                        f"operation {step.context}::{step.service}::{step.operation}"
                    )
    # A coordination is found by name alone, in any context: each name
    # repeated in the document is reported once, in first-seen order.
    coordination_names = Counter(c.name for ctx in doc.contexts for c in ctx.coordinations)
    for name, count in coordination_names.items():
        if count > 1:
            problems.append(f"duplicate coordination {name!r}")
    return problems


def _is_reference_entity(entity: CmlEntity) -> bool:
    if any(c.startswith(REFERENCE_COMMENT) for c in entity.comments):
        return True
    return (
        entity.name.endswith(REFERENCE_SUFFIX)
        and not entity.attributes
        and not entity.references
    )


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
    """
    if a == b:
        raise RefactorError("cannot merge a context with itself")
    ctx_a = doc.context(a)
    ctx_b = doc.context(b)
    merged_name = f"{a}_{b}"
    if any(c.name == merged_name for c in doc.contexts):
        raise RefactorError(f"context {merged_name!r} already exists")

    local_entities = {
        e.name
        for ctx in (ctx_a, ctx_b)
        for agg in ctx.aggregates
        for e in agg.entities
        if not _is_reference_entity(e)
    }

    # Collapse placeholders whose target is now local; dedupe survivors.
    aggregates: list[CmlAggregate] = []
    agg_names: set[str] = set()
    seen_placeholders: set[str] = set()
    for ctx in (ctx_a, ctx_b):
        for agg in ctx.aggregates:
            entities = []
            renames: dict[str, str] = {}
            for e in agg.entities:
                if _is_reference_entity(e):
                    target = _reference_target(e)
                    if target in local_entities:
                        renames[e.name] = target
                        continue
                    if e.name in seen_placeholders:
                        renames[e.name] = e.name
                        continue
                    seen_placeholders.add(e.name)
                entities.append(e)
            entities = [
                replace(
                    e,
                    references=tuple(
                        replace(r, target=renames.get(r.target, r.target))
                        for r in e.references
                    ),
                )
                for e in entities
            ]
            name = agg.name
            suffix = 2
            while name in agg_names:
                name = f"{agg.name}_{suffix}"
                suffix += 1
            agg_names.add(name)
            aggregates.append(replace(agg, name=name, entities=tuple(entities)))

    # Placeholder collapses can leave renames dangling across aggregates of
    # the merged context, so rewrite every aggregate against the final map.
    final_names = {e.name for agg in aggregates for e in agg.entities}
    aggregates = [
        replace(
            agg,
            entities=tuple(
                replace(
                    e,
                    references=tuple(
                        replace(
                            r,
                            target=r.target
                            if r.target in final_names
                            else _collapse_target(r.target, final_names),
                        )
                        for r in e.references
                    ),
                )
                for e in agg.entities
            ),
        )
        for agg in aggregates
    ]

    old_names = {a, b}

    def readdress(step: CmlStep) -> CmlStep:
        if step.context in old_names:
            return replace(step, context=merged_name)
        return step

    # First pass over every coordination: re-address, collapse runs, demote
    # one-step survivors. Operations created by collapses or demotions are
    # only requested here; services are patched in the assembly pass.
    wanted_ops: list[tuple[str, str, str]] = []
    new_coordinations: dict[str, list[CmlCoordination]] = {}
    for ctx in doc.contexts:
        if ctx.name == b:
            continue
        if ctx.name == a:
            coordinations = list(ctx_a.coordinations) + list(ctx_b.coordinations)
        else:
            coordinations = list(ctx.coordinations)

        kept = []
        for coordination in coordinations:
            collapsed: list[CmlStep] = []
            joined: set[int] = set()
            for step in map(readdress, coordination.steps):
                if collapsed and collapsed[-1].context == step.context:
                    prev = collapsed[-1]
                    collapsed[-1] = replace(
                        prev, operation=f"{prev.operation}_{step.operation}"
                    )
                    joined.add(len(collapsed) - 1)
                else:
                    collapsed.append(step)
            for idx in sorted(joined):
                s = collapsed[idx]
                wanted_ops.append((s.context, s.service, s.operation))
            if len(collapsed) == 1:
                only = collapsed[0]
                wanted_ops.append((only.context, only.service, only.operation))
                continue
            kept.append(replace(coordination, steps=tuple(collapsed)))
        new_coordinations[ctx.name] = kept

    def patch_services(
        ctx_name: str, services: tuple[CmlService, ...]
    ) -> tuple[CmlService, ...]:
        patched = list(services)
        for target_ctx, service_name, op_name in wanted_ops:
            if target_ctx != ctx_name:
                continue
            for idx, s in enumerate(patched):
                if s.name == service_name and all(
                    op.name != op_name for op in s.operations
                ):
                    patched[idx] = replace(
                        s, operations=s.operations + (CmlOperation(op_name),)
                    )
        return tuple(patched)

    all_contexts = []
    for ctx in doc.contexts:
        if ctx.name == b:
            continue
        if ctx.name == a:
            all_contexts.append(
                CmlBoundedContext(
                    merged_name,
                    patch_services(
                        merged_name, tuple(ctx_a.services) + tuple(ctx_b.services)
                    ),
                    tuple(new_coordinations[a]),
                    tuple(aggregates),
                    ctx_a.comments + ctx_b.comments,
                )
            )
        else:
            all_contexts.append(
                replace(
                    ctx,
                    services=patch_services(ctx.name, ctx.services),
                    coordinations=tuple(new_coordinations[ctx.name]),
                )
            )

    context_map = doc.context_map
    if context_map is not None:
        contains = []
        for name in context_map.contains:
            target = merged_name if name in old_names else name
            if target not in contains:
                contains.append(target)
        rels: list[CmlRelationship] = []
        for rel in context_map.relationships:
            if rel.upstream in old_names and rel.downstream in old_names:
                continue
            up = merged_name if rel.upstream in old_names else rel.upstream
            down = merged_name if rel.downstream in old_names else rel.downstream
            for existing_idx, existing in enumerate(rels):
                if existing.upstream == up and existing.downstream == down:
                    rels[existing_idx] = replace(
                        existing, comments=existing.comments + rel.comments
                    )
                    break
            else:
                rels.append(replace(rel, upstream=up, downstream=down))
        context_map = replace(
            context_map, contains=tuple(contains), relationships=tuple(rels)
        )

    return CmlDocument(context_map, tuple(all_contexts), doc.trailing_comments)


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
            f"context {context_name!r} has {len(ctx.aggregates)} aggregates; "
            "split requires exactly one"
        )
    aggregate = ctx.aggregates[0]
    by_name = {e.name: e for e in aggregate.entities}

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
            details.append(f"missing: {', '.join(missing)}")
        if extra:
            details.append(f"not in aggregate: {', '.join(extra)}")
        raise RefactorError(f"partition does not cover the aggregate ({'; '.join(details)})")

    new_aggregates = []
    for i, part in enumerate(partition, start=1):
        entities = [by_name[name] for name in part]
        candidates = [e for e in entities if not _is_reference_entity(e)]
        if not candidates:
            raise RefactorError(
                f"part {i} has only reference placeholders; no root candidate"
            )
        root = min(candidates, key=lambda e: (-external_share(e), e.name)).name
        entities = [
            replace(e, aggregate_root=e.name == root) for e in entities
        ]
        new_aggregates.append(
            CmlAggregate(f"{aggregate.name}_{i}", tuple(entities), aggregate.comments)
        )

    new_ctx = replace(ctx, aggregates=tuple(new_aggregates))
    contexts = tuple(new_ctx if c.name == context_name else c for c in doc.contexts)
    return CmlDocument(doc.context_map, contexts, doc.trailing_comments)
