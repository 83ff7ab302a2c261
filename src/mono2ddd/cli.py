"""Command-line pipeline: traces in, decompositions, sagas, and DSL out.

Stages pass artifacts as files so runs are scriptable and reproducible:

    mono2ddd decompose --accesses a.json --weights 1,0,0,0 -n 2 -o dec.json
    mono2ddd sagas --accesses a.json --decomposition dec.json -o sagas.json
    mono2ddd to-cml --accesses a.json --decomposition dec.json -o out.cml

Exit codes: 0 success, 1 bad input or bad usage, 2 internal error. Outputs
are byte-reproducible; `--stamp` opts in to a generation timestamp.
"""

from __future__ import annotations

import gc
import sys
import time
from functools import cache
from types import SimpleNamespace

# Loaded with this module: what `search` runs, and `ingest` and `cml`, which
# the benchmark's set-up probe reads from `sys.modules` after `import
# mono2ddd.cli`. `argparse`, `saga`, `dddmap` and `diagrams` are imported
# where they run.
from . import cml as cml_mod
from .decompose import (
    SimilarityWeights,
    decompose,
    decomposition_to_json,
    parse_decomposition,
)
from .errors import ContractError, Mono2DddError
from .ingest import parse_model
from .measures import measure, rank_decompositions, report_tsv, search_candidates


class _UsageError(Exception):
    pass


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ContractError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ContractError(f"cannot read {path}: {exc}") from exc


def _write(path: str | None, text: str, stamp_prefix: str | None = None) -> None:
    _write_all([(path, (stamp_prefix or "") + text)])


def _write_all(outputs: list[tuple[str | None, str]]) -> None:
    """Write each ``(path, text)``, a path of None or ``-`` to stdout and any
    other to a UTF-8 file, once every text encodes for its target.

    ``ContractError`` names the first output that cannot take its text, and
    then nothing is written.
    """
    for path, text in outputs:
        if path is None or path == "-":
            name, encoding, errors = "stdout", sys.stdout.encoding, sys.stdout.errors
        else:
            name, encoding, errors = path, "utf-8", "strict"
        try:
            if encoding:  # An in-memory stdout has none and takes any text.
                text.encode(encoding, errors)
        except UnicodeEncodeError as exc:
            raise ContractError(f"cannot write {name}: {exc}") from exc
    for path, text in outputs:
        if path is None or path == "-":
            sys.stdout.write(text)
            continue
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ContractError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _stamp(args, comment: str) -> str | None:
    if not args.stamp:
        return None
    now = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return comment.format(now) + "\n"


def _parse_weights(raw: str) -> SimilarityWeights:
    parts = raw.split(",")
    if len(parts) != 4:
        raise ContractError(
            f"--weights needs four comma-separated numbers (access,write,read,sequence), got {raw!r}"
        )
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ContractError(f"--weights has a non-numeric part: {raw!r}") from exc
    return SimilarityWeights(*values)


def _parse_n_list(raw: str) -> list[int]:
    try:
        values = [int(p) for p in raw.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise ContractError(f"--n must be comma-separated integers, got {raw!r}") from exc
    if not values:
        raise ContractError("--n lists no cluster counts")
    return values


def _load_model(args):
    accesses = _read(args.accesses)
    structure = _read(args.structure) if args.structure else None
    return parse_model(accesses, structure)


def _load_decomposition(args):
    return parse_decomposition(_read(args.decomposition))


def _cmd_decompose(args) -> int:
    model = _load_model(args)
    result = decompose(model, _parse_weights(args.weights), args.n)
    _write(args.output, decomposition_to_json(result))
    return 0


def _cmd_search(args) -> int:
    model = _load_model(args)
    measured = search_candidates(model, args.step, _parse_n_list(args.n))
    if args.candidates:
        lines = ["weights\tn\tcohesion\tcoupling\tcomplexity"]
        for d, report in measured:
            weights = ",".join(f"{w:g}" for w in d.weights.as_tuple())
            lines.append(
                f"{weights}\t{d.n}\t{report.cohesion:.6f}"
                f"\t{report.coupling:.6f}\t{report.complexity:.6f}"
            )
        _write(args.candidates, "\n".join(lines) + "\n")
    best = rank_decompositions(measured, args.top)
    _write(args.output, decomposition_to_json(best))
    return 0


def _cmd_assess(args) -> int:
    model = _load_model(args)
    decomposition = _load_decomposition(args)
    report = measure(model, decomposition)
    _write(args.output, report_tsv(report), _stamp(args, "# generated {}"))
    return 0


def _cmd_sagas(args) -> int:
    from .saga import refactor_model, sagas_to_json, stats_tsv

    model = _load_model(args)
    decomposition = _load_decomposition(args)
    pairs = refactor_model(model, decomposition, args.orchestrator)
    # Every output is built and encoded before any is written: a name the
    # table refuses, or one stdout cannot encode, leaves no file behind.
    outputs = []
    if args.output:
        outputs.append((args.output, sagas_to_json([saga for saga, _ in pairs])))
    if args.output != "-":
        stamp = _stamp(args, "# generated {}") or ""
        outputs.append(("-", stamp + stats_tsv([stats for _, stats in pairs])))
    _write_all(outputs)
    return 0


def _cmd_to_cml(args) -> int:
    from .dddmap import build_ddd_model
    from .saga import parse_sagas, refactor_model

    model = _load_model(args)
    decomposition = _load_decomposition(args)
    if args.sagas:
        sagas = parse_sagas(_read(args.sagas))
    else:
        sagas = [saga for saga, _ in refactor_model(model, decomposition, args.orchestrator)]
    doc = build_ddd_model(model, decomposition, sagas, args.naming, args.map_name)
    _write(args.output, cml_mod.emit_document(doc), _stamp(args, "// generated {}"))
    return 0


def _cmd_diagram(args) -> int:
    from . import diagrams

    if args.format == "bpmn":
        if not args.cml or not args.coordination:
            raise ContractError("--format bpmn needs --cml and --coordination")
        doc = cml_mod.parse_document(_read(args.cml))
        text = diagrams.coordination_bpmn(doc, args.coordination)
        _write(args.output, text, _stamp(args, "# generated {}"))
        return 0
    if args.cml:
        doc = cml_mod.parse_document(_read(args.cml))
        text = diagrams.document_dot(doc)
    else:
        if not args.accesses or not args.decomposition:
            raise ContractError(
                "--format dot needs either --cml or --accesses with --decomposition"
            )
        model = _load_model(args)
        decomposition = _load_decomposition(args)
        text = diagrams.decomposition_dot(model, decomposition)
    _write(args.output, text, _stamp(args, "// generated {}"))
    return 0


def _cmd_cml_merge(args) -> int:
    doc = cml_mod.parse_document(_read(args.input))
    merged = cml_mod.merge_bounded_contexts(doc, args.a, args.b)
    _write(args.output, cml_mod.emit_document(merged), _stamp(args, "// generated {}"))
    return 0


def _parse_partition(raw: str) -> list[list[str]]:
    parts = []
    for chunk in raw.split("/"):
        members = [m.strip() for m in chunk.split(",") if m.strip()]
        parts.append(members)
    return parts


def _cmd_cml_split(args) -> int:
    doc = cml_mod.parse_document(_read(args.input))
    split = cml_mod.split_aggregate(doc, args.context, _parse_partition(args.parts))
    _write(args.output, cml_mod.emit_document(split), _stamp(args, "// generated {}"))
    return 0


_COMMANDS = {
    "decompose": "cluster entities into one decomposition",
    "search": "grid-search weights and pick the best candidate",
    "assess": "measure a decomposition (TSV)",
    "sagas": "refactor functionalities into sagas",
    "to-cml": "generate the DSL document",
    "diagram": "render a context map (dot) or saga lanes (bpmn)",
    "cml": "refactor an existing .cml document",
}
_CML_COMMANDS = {
    "merge": "merge two bounded contexts",
    "split": "split a context's aggregate",
}


def _add_subcommands(parser, dest: str, commands: dict[str, str], prefix: str = "") -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, help in commands.items():
        _add_arguments(sub.add_parser(name, help=help), prefix + name)


def _add_arguments(p, command: str) -> None:
    """Add the arguments of ``command`` (``cml merge`` for a nested one) to
    ``p``, an ``argparse`` parser or a ``_Spec``."""
    if command in ("decompose", "search", "assess", "sagas", "to-cml"):
        p.add_argument("--accesses", required=True, help="accesses JSON file")
        p.add_argument("--structure", help="entity structure file (JSON or the mini DSL)")

    if command == "decompose":
        p.add_argument("--weights", default="1,0,0,0", help="access,write,read,sequence")
        p.add_argument("-n", type=int, required=True, help="number of clusters")
        p.add_argument("-o", "--output", default="-", help="decomposition JSON ('-' = stdout)")
        p.set_defaults(func=_cmd_decompose)
    elif command == "search":
        p.add_argument("--step", type=float, default=0.5, help="weight grid step")
        p.add_argument("--n", default="2,3", help="comma-separated cluster counts")
        p.add_argument("--top", type=int, default=100, help="short-list size for the pick")
        p.add_argument("--candidates", help="optional TSV dump of every scored candidate")
        p.add_argument("-o", "--output", default="-", help="winning decomposition JSON")
        p.set_defaults(func=_cmd_search)
    elif command == "assess":
        p.add_argument("--decomposition", required=True, help="decomposition JSON file")
        p.add_argument("-o", "--output", default="-", help="TSV output")
        p.add_argument("--stamp", action="store_true", help="prepend a timestamp line")
        p.set_defaults(func=_cmd_assess)
    elif command == "sagas":
        from .saga import ORCHESTRATOR_POLICIES

        p.add_argument("--decomposition", required=True)
        p.add_argument(
            "--orchestrator",
            choices=ORCHESTRATOR_POLICIES,
            default="first",
            help="orchestrator pick: first step's cluster, or the most-accessed one",
        )
        p.add_argument(
            "-o",
            "--output",
            help="sagas JSON file; the reduction TSV prints to stdout ('-' = JSON to stdout)",
        )
        p.add_argument("--stamp", action="store_true", help="prepend a timestamp line")
        p.set_defaults(func=_cmd_sagas)
    elif command == "to-cml":
        from .dddmap import NAMING_HEURISTICS
        from .saga import ORCHESTRATOR_POLICIES

        p.add_argument("--decomposition", required=True)
        p.add_argument("--sagas", help="sagas JSON (computed on the fly when omitted)")
        p.add_argument("--naming", choices=NAMING_HEURISTICS, default="full-trace")
        p.add_argument("--orchestrator", choices=ORCHESTRATOR_POLICIES, default="first")
        p.add_argument("--map-name", default="Decomposition", help="ContextMap identifier")
        p.add_argument("-o", "--output", default="-", help=".cml output")
        p.add_argument("--stamp", action="store_true", help="prepend a timestamp comment")
        p.set_defaults(func=_cmd_to_cml)
    elif command == "diagram":
        p.add_argument("--format", choices=("dot", "bpmn"), required=True)
        p.add_argument("--accesses", help="accesses JSON (dot from a decomposition)")
        p.add_argument("--structure", help="entity structure file")
        p.add_argument("--decomposition", help="decomposition JSON (dot view)")
        p.add_argument("--cml", help=".cml document (dot from relationships, bpmn)")
        p.add_argument("--coordination", help="coordination name (bpmn)")
        p.add_argument("-o", "--output", default="-")
        p.add_argument("--stamp", action="store_true", help="prepend a timestamp comment")
        p.set_defaults(func=_cmd_diagram)
    elif command == "cml":
        _add_subcommands(p, "cml_command", _CML_COMMANDS, "cml ")
    elif command == "cml merge":
        p.add_argument("--in", dest="input", required=True, help=".cml input")
        p.add_argument("-a", required=True, help="first context (kept position)")
        p.add_argument("-b", required=True, help="second context")
        p.add_argument("-o", "--output", default="-")
        p.add_argument("--stamp", action="store_true")
        p.set_defaults(func=_cmd_cml_merge)
    elif command == "cml split":
        p.add_argument("--in", dest="input", required=True, help=".cml input")
        p.add_argument("--context", required=True)
        p.add_argument(
            "--parts",
            required=True,
            help="partition: entity names comma-separated, parts '/'-separated (A,B/C)",
        )
        p.add_argument("-o", "--output", default="-")
        p.add_argument("--stamp", action="store_true")
        p.set_defaults(func=_cmd_cml_split)


class _Spec:
    """The options of one command, recorded from ``_add_arguments``.

    It takes the ``add_argument`` and ``set_defaults`` calls an
    ``argparse`` parser would, so the options are declared once. An
    argument form it does not model (an ``action`` other than ``store``
    or ``store_true``, a keyword such as ``nargs``, or a string default
    that ``argparse`` would pass through ``type``) clears ``plain``.
    """

    _KEYWORDS = frozenset(("action", "choices", "default", "dest", "help", "required", "type"))

    def __init__(self):
        self.options: dict[str, tuple] = {}  # option string -> (dest, store_true, type, choices)
        self.defaults: dict[str, object] = {}
        self.required: set[str] = set()
        self.plain = True

    def add_argument(self, *flags: str, **kwargs) -> None:
        action = kwargs.get("action", "store")
        default = kwargs.get("default", False if action == "store_true" else None)
        type_ = kwargs.get("type")
        if (
            not kwargs.keys() <= self._KEYWORDS
            or action not in ("store", "store_true")
            or (isinstance(default, str) and type_ is not None)
        ):
            self.plain = False
            return
        dest = kwargs.get("dest")
        if dest is None:
            long = [flag for flag in flags if flag.startswith("--")]
            dest = (long or flags)[0].lstrip("-").replace("-", "_")
        self.defaults[dest] = default
        if kwargs.get("required"):
            self.required.add(dest)
        for flag in flags:
            self.options[flag] = (dest, action == "store_true", type_, kwargs.get("choices"))

    def set_defaults(self, **kwargs) -> None:
        self.defaults.update(kwargs)


def _quick_args(argv: list[str]) -> SimpleNamespace | None:
    """The attributes ``argparse`` would set from a plain, valid ``argv``,
    in the same order, on a ``SimpleNamespace``; ``argparse`` is not
    imported.

    Plain means: a command name (``cml`` with ``merge`` or ``split``), then
    only exact option strings of that command, each ``store`` option
    followed by a value that does not start with ``-`` (or is ``-``). Any
    other form, and any value ``type`` or ``choices`` refuses, gives
    ``None``, and ``main`` hands the line to ``build_parser`` for its help,
    usage errors and the rest. The spec is recorded on every call, so the
    handlers it names are the module's current ones.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    found = {"command": argv[0]}
    command, rest = argv[0], argv[1:]
    if command == "cml":
        if not rest or rest[0] not in _CML_COMMANDS:
            return None
        found["cml_command"] = rest[0]
        command, rest = "cml " + rest[0], rest[1:]
    spec = _Spec()
    _add_arguments(spec, command)
    if not spec.plain:
        return None
    given = {}
    tokens = iter(rest)
    for token in tokens:
        option = spec.options.get(token)
        if option is None:
            return None
        dest, store_true, type_, choices = option
        if store_true:
            given[dest] = True
            continue
        value = next(tokens, None)
        if value is None or (value.startswith("-") and value != "-"):
            return None
        if type_ is not None:
            try:
                value = type_(value)
            except (TypeError, ValueError):
                return None
        if choices is not None and value not in choices:
            return None
        given[dest] = value
    if not given.keys() >= spec.required:
        return None
    return SimpleNamespace(**found, **{**spec.defaults, **given})


@cache
def _parser_class():
    """The ``argparse.ArgumentParser`` subclass whose usage error raises
    ``_UsageError`` with the message and usage text ``argparse`` would
    print; ``main`` prints it and exits 1.

    ``argparse`` (and, through it, ``gettext``) is imported on the first
    call, so a plain command line never loads it. The class is made once:
    a class sits in a reference cycle, so one made per parser would leave
    cyclic garbage behind each call that falls back to ``argparse``.
    """
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")

    return _Parser


def build_parser():
    """The ``argparse`` parser, for help, usage errors and the forms
    ``_quick_args`` leaves; see ``_parser_class``."""
    parser = _parser_class()(prog="mono2ddd", description=__doc__.splitlines()[0])
    _add_subcommands(parser, "command", _COMMANDS)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line.

    ``_quick_args`` reads a plain, valid one; ``argparse`` runs only for
    help, usage errors and the other forms.

    The cyclic garbage collector is paused for the call, because no
    successful call that ``_quick_args`` reads makes a reference cycle (a
    test runs every call of the benchmark chains and checks this), so its
    scans of the parsed traces and document nodes would free nothing. A
    call that ``argparse`` parses leaves the parser's own cycles (its help
    formatter and the formatter's sections), which the collector frees
    once it runs again. The pause is process-wide while ``main`` runs; on
    every way out, an exception included, the collector is left enabled
    or disabled as the caller had it.

    The modules only some commands run (``saga``, ``dddmap``, ``diagrams``,
    and ``argparse`` for the other forms) are first imported inside the
    call, so while the collector is paused; what an import builds stays
    reachable from ``sys.modules``, and a test runs such a first call in a
    fresh process and checks that it leaves no cyclic garbage either.
    """
    if argv is None:
        argv = sys.argv[1:]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = _quick_args(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr, end="")
        return 1
    except Mono2DddError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except Exception as exc:  # noqa: BLE001 - contract: internal faults exit 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
