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
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable, TypeVar

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
    """Canonical JSON text: two-space indent, sorted keys, trailing newline.

    Always ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``.  With an indent,
    :mod:`json` encodes in pure Python, one call per value; :func:`_text` writes the
    types the package emits with whole-list joins instead.  Any other value (a float,
    a non-``str`` key, a subclass) hands the whole document back to :mod:`json`, and
    so does nesting deeper than ``_MAX_DEPTH``, which covers a cycle; :mod:`json`
    then writes the text or raises the exception.
    """
    try:
        return _text(obj, "") + "\n"
    except _LeftToJson:
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class _LeftToJson(Exception):
    """A value that :func:`_text` leaves to :mod:`json`."""


def _types(values: Iterable[object]) -> set[type]:
    return set(map(type, values))


def _all_string_pairs(values: list, containers: set[type]) -> bool:
    """Whether every value is a container of exactly one of these types holding two ``str``."""
    return (
        _types(values) <= containers
        and set(map(len, values)) <= {2}
        and _types(chain.from_iterable(values)) <= {str}
    )


def _text(obj: object, pad: str) -> str:
    """``obj`` as :mod:`json` writes it with ``indent=2``, its inner lines indented by ``pad``."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return repr(obj)
    if kind is bool or obj is None:
        return _CONSTANTS[obj]
    if kind is not dict and kind is not list and kind is not tuple:
        raise _LeftToJson
    if not obj:
        return "{}" if kind is dict else "[]"
    if len(pad) >= 2 * _MAX_DEPTH:
        raise _LeftToJson
    inner = pad + "  "
    sep = ",\n" + inner
    if kind is dict:
        if _types(obj) != {str}:
            raise _LeftToJson
        body = sep.join([_quote(key) + ": " + _text(obj[key], inner) for key in sorted(obj)])
        return f"{{\n{inner}{body}\n{pad}}}"
    if _types(obj) == {str}:
        body = sep.join(map(_quote, obj))
    elif _all_string_pairs(obj, {list, tuple}):
        # Pairs of strings, such as every tree's edges: the quoted strings joined two by two.
        deeper = inner + "  "
        quoted = map(_quote, chain.from_iterable(obj))
        pairs = f"\n{inner}]{sep}[\n{deeper}".join(map((",\n" + deeper).join, zip(quoted, quoted)))
        body = f"[\n{deeper}{pairs}\n{inner}]"
    else:
        body = sep.join([_text(item, inner) for item in obj])
    return f"[\n{inner}{body}\n{pad}]"


_CONSTANTS = {None: "null", True: "true", False: "false"}

#: Containers nested deeper than this are left to :mod:`json`, well within the
#: recursion limit that bounds both writers.
_MAX_DEPTH = 100


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
    """A list whose every item passes ``read``.

    If ``read`` returns items of one exact type as they are (see :data:`_EXACT`), a
    list of only such items passes in one pass over their types.  Any other list is
    read item by item, which names the first bad item.
    """
    if not isinstance(value, list):
        _reject(field, "a list", value)
    if read in _EXACT and _types(value) <= {_EXACT[read]}:
        return list(value)
    return [read(item, f"{field}[{i}]") for i, item in enumerate(value)]


def entries(value: object, field: str, read: Reader[T]) -> dict[str, T]:
    """An object whose every value passes ``read``, checked in one pass as :func:`items` is."""
    if not isinstance(value, dict):
        _reject(field, "an object", value)
    if read in _EXACT and _types(value.values()) <= {_EXACT[read]}:
        return dict(value)
    return {key: read(item, f"{field}[{key!r}]") for key, item in value.items()}


def strings(value: object, field: str) -> list[str]:
    return items(value, field, string)


def string_pair(value: object, field: str) -> tuple[str, str]:
    if not isinstance(value, list) or len(value) != 2:
        _reject(field, "a pair of strings", value)
    return string(value[0], f"{field}[0]"), string(value[1], f"{field}[1]")


def string_pairs(value: object, field: str) -> list[tuple[str, str]]:
    """Like :func:`items` with :func:`string_pair`, and one pass over a list of pairs of ``str``."""
    if isinstance(value, list) and _all_string_pairs(value, {list}):
        return list(map(tuple, value))
    return items(value, field, string_pair)


def string_map(value: object, field: str) -> dict[str, str]:
    return entries(value, field, string)


def integer_map(value: object, field: str) -> dict[str, int]:
    return entries(value, field, integer)


#: The readers that return every value of exactly this type unchanged.
_EXACT: dict[Reader, type] = {string: str, integer: int}
