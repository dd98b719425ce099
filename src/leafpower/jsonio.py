"""Canonical JSON text and the readers that check parsed JSON input.

Every JSON document the package writes goes through :func:`dumps`, and every
``*_from_json_obj`` parser reads through the readers below.  A reader takes a
parsed value and the field's path from the document root (such as
``graph.edges[2]``; the root itself is the empty path), checks one shape and
returns the value, or raises ValueError naming the field.  Readers check
shapes only: what the values must satisfy beyond that (distinct vertices, a
connected tree, a bijective placement) is checked by the constructors they
feed.  This module imports nothing from the package.
"""

from __future__ import annotations

import json
from typing import Callable, TypeVar

T = TypeVar("T")
Reader = Callable[[object, str], T]

_KINDS = {
    dict: "an object",
    list: "a list",
    str: "a string",
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    type(None): "null",
}


def dumps(obj: object) -> str:
    """Canonical JSON text: two-space indent, sorted keys, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _name(field: str) -> str:
    return field or "the document"


def _reject(field: str, expected: str, value: object) -> None:
    kind = _KINDS.get(type(value), type(value).__name__)
    raise ValueError(f"{_name(field)} must be {expected}, got {kind}")


class Record:
    """A JSON object checked to hold every required key."""

    def __init__(self, value: object, field: str, *keys: str) -> None:
        if not isinstance(value, dict):
            _reject(field, "an object", value)
        for key in keys:
            if key not in value:
                raise ValueError(f"{_name(field)} is missing {key!r}")
        self.value = value
        self.field = field

    def get(self, key: str, read: Reader[T]) -> T:
        """The value under ``key``, checked by ``read``."""
        return read(self.value[key], f"{self.field}.{key}" if self.field else key)


def string(value: object, field: str) -> str:
    if not isinstance(value, str):
        _reject(field, "a string", value)
    return value


def integer(value: object, field: str) -> int:
    """An ``int`` that is not a ``bool``."""
    if isinstance(value, bool) or not isinstance(value, int):
        _reject(field, "an integer", value)
    return value


def items(value: object, field: str, read: Reader[T]) -> list[T]:
    """A list whose every item passes ``read``."""
    if not isinstance(value, list):
        _reject(field, "a list", value)
    return [read(item, f"{field}[{i}]") for i, item in enumerate(value)]


def entries(value: object, field: str, read: Reader[T]) -> dict[str, T]:
    """An object whose every value passes ``read``."""
    if not isinstance(value, dict):
        _reject(field, "an object", value)
    return {key: read(item, f"{field}[{key!r}]") for key, item in value.items()}


def strings(value: object, field: str) -> list[str]:
    return items(value, field, string)


def string_pair(value: object, field: str) -> tuple[str, str]:
    if not isinstance(value, list) or len(value) != 2:
        _reject(field, "a pair of strings", value)
    return string(value[0], f"{field}[0]"), string(value[1], f"{field}[1]")


def string_pairs(value: object, field: str) -> list[tuple[str, str]]:
    return items(value, field, string_pair)


def string_map(value: object, field: str) -> dict[str, str]:
    return entries(value, field, string)


def integer_map(value: object, field: str) -> dict[str, int]:
    return entries(value, field, integer)
