"""The one schema-1 JSON codec: every JSON document the package reads or writes.

:func:`loads` parses a document into a :class:`Field`, a JSON value that
knows its document's source (usually a file name) and its own field path.
Its typed getters check one value each.  A malformed document raises
:class:`FormatError` with the message ``<source>: <field path>: <problem>``;
a syntax error names its line and column instead of a field.  Numbers must
be finite, and :meth:`Field.object` rejects keys it was not told about.

:func:`dumps` writes the indented file form, :func:`dumps_line` one compact
line, and :func:`dumps_rows` the file form of a large object: one compact
line per member and per item of a list member, written by the C encoder.
"""

from __future__ import annotations

import json
import sys
from itertools import chain

import numpy as np

__all__ = ["Field", "FormatError", "SCHEMA_VERSION", "dumps", "dumps_line", "dumps_rows", "loads"]

SCHEMA_VERSION = 1


class FormatError(ValueError):
    """A malformed document; the message is ``<source>: <field path>: <problem>``."""


def loads(text: str | bytes, source: str) -> "Field":
    """Parse ``text`` (bytes are decoded as UTF-8), read from ``source``, as one JSON document."""
    try:
        return Field(json.loads(text), source)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, or an int over 4300 digits
        raise FormatError(f"{source}: {exc}") from None
    except RecursionError:
        raise FormatError(f"{source}: arrays or objects nest too deeply") from None


def dumps(doc) -> str:
    """The file form: two-space indent and a trailing newline."""
    return json.dumps(doc, indent=2) + "\n"


def dumps_line(doc) -> str:
    """The compact one-line form, without a newline."""
    return json.dumps(doc)


def dumps_rows(doc: dict) -> str:
    """The row form of an object: each member on its own line, each item of a
    non-empty list member on its own line, every line compact, and a trailing
    newline.  Each line goes through the C encoder, which the indented form
    cannot use.
    """
    members = []
    for key, value in doc.items():
        if type(value) is list and value:
            value = "[\n    " + ",\n    ".join(map(json.dumps, value)) + "\n  ]"
        else:
            value = json.dumps(value)
        members.append(f"\n  {json.dumps(key)}: {value}")
    return "{" + ",".join(members) + "\n}\n"


def _leading_arrays(records: list["Field"], key: str, shape: tuple[int, ...]):
    """Member ``key`` of each of ``records`` (objects holding it) read as by
    ``record[key].array(shape)``, in one pass where that is exact.

    ``shape`` is ``(k,)`` or ``(-1, k)``.  Returns ``(joined, count, error)``:
    the arrays of the first ``count`` records concatenated along their first
    axis, and the error of record ``count``, the first that fails (None when
    none does).  One numpy array holds all the values when they are only
    floats and integers within int64.  Otherwise the records are read one by
    one, because numpy types each array from its own values alone: a boolean
    passes beside numbers but not on its own, and an integer past int64
    passes beside floats but not beside integers.
    """
    inner = shape[1:] if shape[0] == -1 else shape
    rows = [record.value[key] for record in records]
    if shape[0] == -1:
        rows = list(chain.from_iterable(rows)) if all(type(v) is list for v in rows) else None
    if rows is not None:
        try:
            arr = np.array(rows) if rows else np.empty((0,) + inner)
        except ValueError:  # ragged nesting
            arr = None
        if (arr is not None and arr.shape == (len(rows),) + inner and arr.dtype.kind in "if"
                and np.isfinite(arr).all()):
            types = set(map(type, chain.from_iterable(rows)))
            if types <= {int, float} and (int not in types or np.abs(arr).max() < 2.0 ** 63):
                return arr.astype(float, copy=False).reshape((-1,) + shape[1:]), len(records), None
    parts, error = [], None
    for record in records:
        try:
            parts.append(record[key].array(shape))
        except FormatError as exc:
            error = exc
            break
    joined = np.concatenate(parts) if parts else np.empty((0,) + shape[1:])
    return joined, len(parts), error


class Field:
    """One value of a parsed document, with the document's source and its field path."""

    __slots__ = ("value", "source", "path")

    def __init__(self, value, source: str, path: str = ""):
        self.value, self.source, self.path = value, source, path

    def error(self, problem: str) -> FormatError:
        return FormatError(f"{self.source}: {self.path or 'document'}: {problem}")

    def make(self, factory, *args, **kwargs):
        """``factory(*args, **kwargs)``, with a ``ValueError`` it raises reported at this field."""
        try:
            return factory(*args, **kwargs)
        except ValueError as exc:
            raise self.error(str(exc)) from None

    def _child(self, key, value) -> "Field":
        if isinstance(key, int):
            return Field(value, self.source, f"{self.path}[{key}]")
        return Field(value, self.source, f"{self.path}.{key}" if self.path else key)

    # -- objects --

    def _mapping(self) -> dict:
        if type(self.value) is not dict:
            raise self.error("expected a JSON object")
        return self.value

    def object(self, required=(), optional=()) -> "Field":
        """Check for an object with every ``required`` key and no key outside
        ``required`` and ``optional``; returns this field."""
        for key in self._mapping():
            if key not in required and key not in optional:
                raise self._child(key, None).error("unknown field")
        for key in required:
            if key not in self.value:
                raise self._child(key, None).error("missing")
        return self

    def schema(self) -> "Field":
        """Check that the ``schema`` member is :data:`SCHEMA_VERSION`; returns this field."""
        if self["schema"].integer() != SCHEMA_VERSION:
            raise self["schema"].error(f"expected {SCHEMA_VERSION}, got {self.value['schema']}")
        return self

    def __getitem__(self, key: str) -> "Field":
        if key not in self._mapping():
            raise self._child(key, None).error("missing")
        return self._child(key, self.value[key])

    def __contains__(self, key: str) -> bool:
        return key in self._mapping()

    def get(self, key: str, default=None) -> "Field":
        """Member ``key``, or ``default`` in its place when the key is absent."""
        return self._child(key, self._mapping().get(key, default))

    def members(self) -> list[tuple["Field", "Field"]]:
        """``(key, value)`` pairs of an object; both fields carry the member's path."""
        return [(self._child(key, key), self._child(key, value))
                for key, value in self._mapping().items()]

    # -- arrays --

    def elements(self, length: int | None = None) -> list["Field"]:
        """The items of a list, which must hold ``length`` of them when given."""
        if type(self.value) is not list or length not in (None, len(self.value)):
            raise self.error("expected a list" if length is None
                             else f"expected a list of {length} items")
        return [self._child(i, value) for i, value in enumerate(self.value)]

    def vector(self, n: int) -> tuple[float, ...]:
        """A list of ``n`` numbers, as a tuple of floats."""
        return tuple(item.number() for item in self.elements(n))

    def array(self, shape: tuple[int, ...]) -> np.ndarray:
        """A float64 array of ``shape``, where -1 matches any length.

        Dtype, shape and finiteness are checked on the whole array, so a long
        array costs no Python loop.
        """
        try:
            arr = np.asarray(self.value)
        except ValueError:  # ragged nesting
            arr = np.asarray(None)
        if arr.shape == (0,) and len(shape) > 1:
            arr = arr.reshape((0,) + shape[1:])
        if (arr.dtype.kind not in "iuf" or arr.ndim != len(shape)
                or any(n not in (-1, m) for n, m in zip(shape, arr.shape))
                or not np.isfinite(arr).all()):
            dims = " x ".join("n" if n < 0 else str(n) for n in shape)
            raise self.error(f"expected a {dims} array of numbers")
        return arr.astype(float, copy=False)

    # -- scalars --

    def number(self) -> float:
        """A finite number, integer or float, as a float."""
        if type(self.value) not in (int, float):
            raise self.error("expected a number")
        if not abs(self.value) <= sys.float_info.max:
            raise self.error("expected a finite number")
        return float(self.value)

    def integer(self) -> int:
        if type(self.value) is not int:
            raise self.error("expected an integer")
        return self.value

    def string(self) -> str:
        if type(self.value) is not str:
            raise self.error("expected a string")
        return self.value

    def scalar(self):
        """A string or a finite number, kept as written (an integer stays an int)."""
        if type(self.value) in (str, int):
            return self.value
        if type(self.value) is not float:
            raise self.error("expected a string or a number")
        return self.number()

    def enum(self, cls):
        """The member of the enum ``cls`` with this value; an error lists the legal values."""
        try:
            return cls(self.value)
        except ValueError:
            legal = ", ".join(m.value for m in cls)
            raise self.error(f"{self.value!r} is not a legal value "
                             f"(expected one of: {legal})") from None
