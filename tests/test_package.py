"""Tests for the package's public namespace."""
from __future__ import annotations

import types

import leafpower


def test_all_names_resolve_and_none_is_a_module():
    assert leafpower.__all__ == sorted(set(leafpower.__all__))
    for name in leafpower.__all__:
        assert not isinstance(getattr(leafpower, name), types.ModuleType), name

