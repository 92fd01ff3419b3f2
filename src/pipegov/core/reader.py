"""Strict reading of the JSON documents the program is given.

Each JSON object is read through one ``Fields``: ``take`` reads a key once,
with a value reader that names its type, and leaving the ``with`` block
rejects every key that no getter read. Nothing is coerced: ``integer``
takes a JSON integer only, ``number`` any JSON number and returns
``float``, and a bool is neither. Every error names the field's path, as in
``pipelines[4].tags: must be a list, got 'regulated'``. A value reader is
any function ``(value, path) -> result``, such as a document class's
``from_dict(raw, path)``. This module imports nothing from ``pipegov``, so
every layer may use it.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, TypeVar

T = TypeVar("T")
Read = Callable[[Any, str], T]


class ReadError(ValueError):
    """A document that does not read; ``path`` names the field."""

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"{path}: {reason}" if path else reason)
        self.path = path
        self.reason = reason


class MissingField(ReadError):
    pass


class UnknownKey(ReadError):
    pass


class OutOfRange(ReadError):
    pass


_REQUIRED: Any = object()


class Fields:
    """The keys of one JSON object. Leaving the ``with`` block rejects a key
    that no ``take`` read, and turns any other ``ValueError`` raised inside
    (a dataclass's own checks) into an ``OutOfRange`` at this object's path."""

    __slots__ = ("_prefix", "_raw", "_left")

    def __init__(self, raw: Any, path: str = "") -> None:
        if type(raw) is not dict:
            raise OutOfRange(path, f"must be a mapping (JSON object), got {raw!r}")
        self._prefix = f"{path}." if path else ""
        self._raw = raw
        self._left = set(raw)

    def take(self, key: str, read: Read[T], default: Any = _REQUIRED) -> T:
        """``read`` of the value at ``key``, or ``default`` when the key is
        absent. A field whose default is None also takes null."""

        if key not in self._raw:
            if default is _REQUIRED:
                raise MissingField(self._prefix + key, "missing required field")
            return default
        self._left.discard(key)
        value = self._raw[key]
        if type(value) is _EXACT.get(read) or (value is None and default is None):
            return value
        return read(value, self._prefix + key)

    def __enter__(self) -> Fields:
        return self

    def __exit__(self, kind: type | None, exc: BaseException | None, tb: object) -> None:
        if exc is None and self._left:
            key = next(k for k in self._raw if k in self._left)
            raise UnknownKey(self._prefix + key, "unknown key")
        if isinstance(exc, ValueError) and not isinstance(exc, ReadError):
            raise OutOfRange(self._prefix[:-1], str(exc)) from None


def integer(value: Any, path: str) -> int:
    if type(value) is int:
        return value
    raise OutOfRange(path, f"must be an integer, got {value!r}")


def number(value: Any, path: str) -> float:
    if type(value) is float or type(value) is int:
        return float(value)
    raise OutOfRange(path, f"must be a number, got {value!r}")


def string(value: Any, path: str) -> str:
    if type(value) is str:
        return value
    raise OutOfRange(path, f"must be a string, got {value!r}")


def boolean(value: Any, path: str) -> bool:
    if type(value) is bool:
        return value
    raise OutOfRange(path, f"must be a boolean, got {value!r}")


# Readers that return a value of their one JSON type as it is: ``take``
# returns such a value without the call.
_EXACT = {integer: int, string: str, boolean: bool}


def one_of(enum: type[Enum]) -> Read:
    def read(value: Any, path: str) -> Enum:
        if type(value) is str:
            try:
                return enum(value)
            except ValueError:
                pass
        raise OutOfRange(path, f"must be one of {[m.value for m in enum]}, got {value!r}")

    return read


def list_of(item: Read[T]) -> Read[tuple[T, ...]]:
    def read(value: Any, path: str) -> tuple[T, ...]:
        if type(value) is not list:
            raise OutOfRange(path, f"must be a list, got {value!r}")
        return tuple([item(v, f"{path}[{i}]") for i, v in enumerate(value)])

    return read


def map_of(item: Read[T]) -> Read[dict[str, T]]:
    """A JSON object whose keys are data; ``item`` reads each value."""

    def read(value: Any, path: str) -> dict[str, T]:
        if type(value) is not dict:
            raise OutOfRange(path, f"must be a mapping (JSON object), got {value!r}")
        return {k: item(v, f"{path}.{k}") for k, v in value.items()}

    return read


def checked(read: Read[T], ok: Callable[[T], bool], reason: str) -> Read[T]:
    """``read``, then reject a result for which ``ok`` is false."""

    def read_checked(value: Any, path: str) -> T:
        result = read(value, path)
        if not ok(result):
            raise OutOfRange(path, f"{reason}, got {value!r}")
        return result

    return read_checked
