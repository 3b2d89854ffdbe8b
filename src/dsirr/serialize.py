"""JSON codecs for scalars, matrices and dims, `require` for the keys
of every payload reader, and the report writer.

Complex scalars travel as [re, im] pairs (two JSON numbers) in float
mode or as strings "a/b+c/d i" in exact mode; plain JSON integers are
accepted in both modes.  Matrices are flat row-major arrays of scalars;
shapes come from context."""

from __future__ import annotations

import json
import math
from cmath import isfinite
from json.encoder import encode_basestring_ascii

import numpy as np

from .scalars import GaussianRational, format_exact, parse_exact

SCHEMA_VERSION = 1  # of every CLI report and saved instance or rep


class SchemaError(ValueError):
    """Input does not match the documented JSON schema."""


def require(data, key, path="", kind=None, default=...):
    """data[key], of type `kind`, where data is the object at JSON path
    `path`, or the default if one is given and key is absent; else a
    SchemaError names the place.  A JSON true or false is no int."""
    if not isinstance(data, dict):
        raise SchemaError(f"expected an object at {path or '/'}")
    if key not in data:
        if default is ...:
            raise SchemaError(f"missing required key at {path}/{key}")
        return default
    value = data[key]
    if kind is not None and (not isinstance(value, kind) or kind is int and type(value) is bool):
        raise SchemaError(f"wrong type at {path}/{key}")
    return value


def dims_from_json(data, vertices, path="") -> dict:
    """A dimension vector: an object at `path` keyed by exactly `vertices`,
    each value a JSON integer of at least 0."""
    if not isinstance(data, dict) or data.keys() != set(vertices):
        raise SchemaError(f"expected an object keyed by exactly the vertices at {path or '/'}")
    for v, d in data.items():
        if type(d) is not int:  # rejects bool too, an int subclass
            raise ValueError(f"dimension at vertex {v} must be a JSON integer, got {d!r}")
        if d < 0:
            raise ValueError(f"dimension at {path}/{v} is negative: {d}")
    return dict(data)


def scalar_to_json(x):
    if isinstance(x, GaussianRational):
        return format_exact(x)
    z = complex(x)
    return [z.real, z.imag]


def scalar_from_json(obj, exact: bool):
    """Decode a scalar in the given mode.  A float-mode scalar must be
    finite: NaN, an infinity or a value beyond the float range is a
    ValueError."""
    if isinstance(obj, str):
        g = parse_exact(obj)
        return g if exact else _finite(g.re, g.im, obj)
    if isinstance(obj, int) and not isinstance(obj, bool):
        return GaussianRational(obj) if exact else _finite(obj, 0, obj)
    if isinstance(obj, float):
        if exact:
            raise ValueError(f"float {obj!r} not allowed in exact mode; use 'a/b+c/d i' strings")
        return _finite(obj, 0, obj)
    if _is_pair(obj):
        if exact:
            raise ValueError("[re, im] pairs are float-mode scalars; exact mode needs strings")
        return _finite(*obj, obj)
    raise ValueError(f"cannot decode scalar from {obj!r}")


def _is_pair(obj) -> bool:
    """An [re, im] pair: two JSON numbers, neither a boolean."""
    return (isinstance(obj, (list, tuple)) and len(obj) == 2
            and all(type(x) in (int, float) for x in obj))


def _finite(re, im, obj) -> complex:
    """complex(re, im), or a ValueError naming obj unless both are finite."""
    try:
        z = complex(float(re), float(im))
    except OverflowError:  # an integer or a fraction beyond the float range
        z = complex("inf")
    if not isfinite(z):
        raise ValueError(f"scalar {obj!r} is not a finite float")
    return z


# keys holding one scalar, and keys holding a list of scalars (or of
# scalar matrices); every other list in a payload holds integers
_SCALAR_KEYS = ("value", "position")
_SCALAR_LIST_KEYS = ("coeffs", "marking", "matrix", "eigenvalue_hints")


def payload_is_float(obj) -> bool:
    """Float mode iff some scalar in the payload is a JSON float or an [re, im]
    pair; payloads of strings and integers are exact.  Nodes under a scalar
    or scalar-list key wait on one stack, all others on the other."""
    plain, scalars = [obj], []
    while plain or scalars:
        scalar = not plain
        obj = scalars.pop() if scalar else plain.pop()
        if isinstance(obj, dict):
            for key, val in obj.items():
                if key in _SCALAR_LIST_KEYS and isinstance(val, list):
                    scalars += val
                else:
                    (scalars if key in _SCALAR_KEYS else plain).append(val)
        elif isinstance(obj, list):
            if scalar and _is_pair(obj):
                return True
            (scalars if scalar else plain).extend(obj)
        elif isinstance(obj, float):
            return True
    return False


def matrix_to_json(a: np.ndarray) -> list:
    return [scalar_to_json(x) for x in np.asarray(a).reshape(-1)]


def matrix_from_json(data: list, rows: int, cols: int, exact: bool, path: str = "") -> np.ndarray:
    if not isinstance(data, list) or len(data) != rows * cols:
        raise SchemaError(f"expected a list of {rows * cols} scalars at {path or '/'}")
    vals = [scalar_from_json(x, exact) for x in data]
    return np.array(vals, dtype=object if exact else complex).reshape(rows, cols)


def report_text(report) -> str:
    """json.dumps(report, indent=2, sort_keys=True), byte for byte, in one
    recursive pass; with `indent` set, the json module runs its
    pure-Python encoder, a chain of generators.  Lists, tuples, dicts
    with str keys and leaves of the exact types in _LEAVES are written
    here; the json module writes any other node, at its indentation."""
    return _text(report, "\n")


_INFINITIES = {math.inf: "Infinity", -math.inf: "-Infinity"}
# the text of a leaf by its exact type
_LEAVES = {str: encode_basestring_ascii, bool: {True: "true", False: "false"}.__getitem__,
           int: int.__repr__, type(None): lambda _: "null",
           float: lambda x: "NaN" if x != x else _INFINITIES.get(x) or float.__repr__(x)}


def _text(x, newline: str) -> str:
    """The text of x, whose lines continue at `newline`."""
    inner = newline + "  "
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        items = [f(v) if (f := _LEAVES.get(type(v))) else _text(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(x, dict) and all(type(k) is str for k in x):
        if not x:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + (f(v) if (f := _LEAVES.get(type(v))) else _text(v, inner))
                 for k, v in sorted(x.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if f := _LEAVES.get(type(x)):
        return f(x)
    # a float subclass, a non-str key or what JSON has no form for: the json
    # module writes it, or refuses it as json.dumps would; JSON strings escape
    # newlines, so each raw one in its text starts an indented line
    return json.dumps(x, indent=2, sort_keys=True).replace("\n", newline)
