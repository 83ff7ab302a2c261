"""The package's public names."""

from __future__ import annotations

import sys
import types

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
