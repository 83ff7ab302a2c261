"""The package's public names.

The package binds each name of `__all__` on first use, importing the
submodule that defines it (PEP 562); only `decompose` is bound at import.
"""

from __future__ import annotations

import sys
import types

import pytest
from helpers import run_fresh

import mono2ddd


def test_all_lists_exactly_the_public_names():
    names = mono2ddd.__all__
    for name in names:
        assert hasattr(mono2ddd, name), name
    assert len(set(names)) == len(names)
    public = {
        name
        for name, value in vars(mono2ddd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public


def test_decompose_is_the_function_after_the_cli_import():
    # `decompose` names both a function in `__all__` and a submodule; the
    # package must keep binding the function, however its imports are made.
    import mono2ddd.cli  # noqa: F401

    assert mono2ddd.decompose is sys.modules["mono2ddd.decompose"].decompose
    assert not isinstance(mono2ddd.decompose, types.ModuleType)


def test_star_import_and_dir_give_every_public_name():
    run_fresh(
        "import mono2ddd\n"
        "names = mono2ddd.__all__\n"
        "assert set(names) <= set(dir(mono2ddd)), set(names) - set(dir(mono2ddd))\n"
        "namespace = {}\n"
        "exec('from mono2ddd import *', namespace)\n"
        "assert all(namespace[name] is getattr(mono2ddd, name) for name in names)\n"
    )


def test_an_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="^module 'mono2ddd' has no attribute 'nope'$"):
        mono2ddd.nope  # noqa: B018
    assert not hasattr(mono2ddd, "nope")


IS_THE_FUNCTION = """\
import sys, types
import mono2ddd
from mono2ddd import decompose as imported
import mono2ddd.decompose as aliased

function = sys.modules["mono2ddd.decompose"].decompose
assert isinstance(function, types.FunctionType), function
assert mono2ddd.decompose is imported is aliased is function
"""


@pytest.mark.parametrize(
    "first",
    ["", "import mono2ddd.decompose", "import mono2ddd.cli", "from mono2ddd.decompose import cluster"],
)
def test_decompose_is_the_function_under_each_import_order(first):
    # `first` is the package's first import.
    run_fresh(f"{first}\n{IS_THE_FUNCTION}")
