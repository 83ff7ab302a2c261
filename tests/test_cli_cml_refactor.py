"""`cml merge` and `cml split` at the command line exit 0 or 1, never 2.

The CLI maps `Mono2DddError` to exit 1 and anything else to exit 2, so an
exit 2 here is a refactoring argument that crashes the CLI. Each example
takes a golden document or a seeded `random_ddd_model` one, draws a valid
merge or split line, and may mutate one argument: an unknown context, `-a`
equal to `-b`, a merged `<a>_<b>` name that already exists, or `--parts`
that is empty, overlaps, misses an entity or holds a part of placeholders
only. A mutated line must exit 1. A valid one may exit 1 too (merging two
contexts that both hold one entity name is refused). Either way the CLI
agrees with the library: on exit 0 the written document parses back equal
to the library's result, and on exit 1 stderr is the library's error and
no file is written. The same lines run again on documents whose
stats-comment shares are rewritten as random runs of ``[0-9.]``, which
may be no number (``1.2.3``, ``..``): such a comment is a plain note. The
runs are derandomized, so every run and every CI leg sees the same
examples.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_ddd_model

from mono2ddd import cli
from mono2ddd.cml import emit_document, merge_bounded_contexts, parse_document, split_aggregate
from mono2ddd.errors import Mono2DddError

GOLDEN = pathlib.Path(__file__).parent / "golden"
DOCUMENTS = [path.read_text(encoding="utf-8") for path in sorted(GOLDEN.glob("*.cml"))]
DOCUMENTS += [emit_document(random_ddd_model(random.Random(seed))) for seed in range(20)]

_LINES = settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cml-lines")


def _check(workdir, text, argv, library, args, bad):
    """Run ``mono2ddd cml <argv>`` on ``text`` and hold it to ``library(doc, *args)``."""
    source, out = workdir / "in.cml", workdir / "out.cml"
    source.write_text(text, encoding="utf-8")
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["cml", *argv, "--in", str(source), "-o", str(out)])
    assert code in (0, 1), err.getvalue()
    try:
        expected = library(parse_document(text), *args)
    except Mono2DddError as exc:
        assert (code, err.getvalue()) == (1, f"error: {exc}\n")
        assert not out.exists()
    else:
        assert not bad, argv
        assert code == 0, err.getvalue()
        assert parse_document(out.read_text(encoding="utf-8")) == expected


@st.composite
def _merge_lines(draw):
    """A document, ``-a``, ``-b``, and whether one of them was mutated."""
    text = draw(st.sampled_from(DOCUMENTS))
    names = [c.name for c in parse_document(text).contexts]
    a = draw(st.sampled_from(names))
    b = draw(st.sampled_from([name for name in names if name != a] or names))
    mutation = draw(st.none() | st.sampled_from(("unknown", "same", "exists")))
    if mutation == "unknown":
        unknown = draw(st.sampled_from(("Nowhere", f"{a}x", a.lower())))
        a, b = draw(st.sampled_from(((unknown, b), (a, unknown))))
    elif mutation == "same":
        b = a
    elif mutation == "exists":
        text += f"\nBoundedContext {a}_{b} {{ }}\n"
    return text, a, b, mutation is not None or a == b


@_LINES
@given(line=_merge_lines())
def test_cml_merge_exits_0_or_1_and_agrees_with_the_library(workdir, line):
    text, a, b, bad = line
    _check(workdir, text, ["merge", "-a", a, "-b", b], merge_bounded_contexts, (a, b), bad)


@st.composite
def _split_lines(draw):
    """A document, ``--context``, the parts, and whether one was mutated."""
    text = draw(st.sampled_from(DOCUMENTS))
    context = draw(st.sampled_from(parse_document(text).contexts))
    real = [e.name for e in context.entities if not e.is_reference]
    placeholders = [e.name for e in context.entities if e.is_reference]
    # One real entity per part, so each part has a root candidate.
    k = draw(st.integers(1, max(1, len(real))))
    order = draw(st.permutations(real))
    parts = [[name] for name in order[:k]] or [[]]
    for name in [*order[k:], *placeholders]:
        parts[draw(st.integers(0, len(parts) - 1))].append(name)
    name = context.name
    mutations = ["unknown", "empty", "overlap", "miss"] + ["placeholders"] * bool(placeholders)
    mutation = draw(st.none() | st.sampled_from(mutations))
    if mutation == "unknown":
        name = draw(st.sampled_from(("Nowhere", f"{name}x", name.lower())))
    elif mutation == "empty":
        parts = draw(st.sampled_from(([[]], parts[:1] + [[]] + parts[1:])))
    elif mutation == "overlap":
        extra = draw(st.sampled_from([member for part in parts for member in part]))
        parts[draw(st.integers(0, len(parts) - 1))].append(extra)
    elif mutation == "miss":
        part = draw(st.sampled_from([part for part in parts if part]))
        part.remove(draw(st.sampled_from(part)))
    elif mutation == "placeholders":
        parts = [[m for m in part if m not in placeholders] for part in parts]
        parts.append(placeholders)
    return text, name, parts, mutation is not None


@_LINES
@given(line=_split_lines())
def test_cml_split_exits_0_or_1_and_agrees_with_the_library(workdir, line):
    text, context, parts, bad = line
    spec = "/".join(",".join(part) for part in parts)
    argv = ["split", "--context", context, "--parts", spec]
    _check(workdir, text, argv, split_aggregate, (context, parts), bad)


# A stats comment's two shares, as ``stats_comment`` writes them.
_SHARE = re.compile(r"(?<=accesses: external )[0-9.]+(?=%)|(?<=\), local )[0-9.]+(?=%)")


def _reshared(text, seed):
    """``text`` with each stats-comment share a seeded random run of ``[0-9.]``."""
    rng = random.Random(seed)
    return _SHARE.sub(lambda _: "".join(rng.choices("0123456789..", k=rng.randint(1, 5))), text)


def test_the_rewritten_shares_include_numbers_and_non_numbers():
    shares = [s for seed in range(20) for s in _SHARE.findall(_reshared(DOCUMENTS[0], seed))]
    numbers = sum(bool(re.fullmatch(r"[0-9]+(\.[0-9]*)?|\.[0-9]+", s)) for s in shares)
    assert len(shares) == 20 * len(_SHARE.findall(DOCUMENTS[0])) > 0
    assert 0 < numbers < len(shares)


@_LINES
@given(line=_merge_lines(), seed=st.integers(0, 2**32))
def test_cml_merge_exits_0_or_1_whatever_the_stats_shares(workdir, line, seed):
    text, a, b, bad = line
    argv = ["merge", "-a", a, "-b", b]
    _check(workdir, _reshared(text, seed), argv, merge_bounded_contexts, (a, b), bad)


@_LINES
@given(line=_split_lines(), seed=st.integers(0, 2**32))
def test_cml_split_exits_0_or_1_whatever_the_stats_shares(workdir, line, seed):
    text, context, parts, bad = line
    argv = ["split", "--context", context, "--parts", "/".join(",".join(p) for p in parts)]
    _check(workdir, _reshared(text, seed), argv, split_aggregate, (context, parts), bad)
