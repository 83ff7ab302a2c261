"""The package's public names."""

from __future__ import annotations

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
