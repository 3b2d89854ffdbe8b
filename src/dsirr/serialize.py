"""JSON codecs for scalars and matrices, and the report writer.

Complex scalars travel as [re, im] pairs in float mode or as strings
"a/b+c/d i" in exact mode; plain JSON integers are accepted in both
modes.  Matrices are flat row-major arrays of scalars; shapes come
from context.
"""

from __future__ import annotations

import json
import math
from cmath import isfinite
from json.encoder import encode_basestring_ascii

import numpy as np

from .scalars import GaussianRational, format_exact, parse_exact

SCHEMA_VERSION = 1  # of every CLI report and saved instance or rep


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
    if isinstance(obj, bool):
        raise ValueError("booleans are not scalars")
    if isinstance(obj, int):
        return GaussianRational(obj) if exact else _finite(obj, 0, obj)
    if isinstance(obj, float):
        if exact:
            raise ValueError(f"float {obj!r} not allowed in exact mode; use 'a/b+c/d i' strings")
        return _finite(obj, 0, obj)
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        if exact:
            raise ValueError("[re, im] pairs are float-mode scalars; exact mode needs strings")
        return _finite(*obj, obj)
    raise ValueError(f"cannot decode scalar from {obj!r}")


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


def payload_is_float(obj, scalar: bool = False) -> bool:
    """Float mode iff some scalar in the payload is a JSON float or an
    [re, im] pair; payloads of strings and integers are exact."""
    if isinstance(obj, float):
        return True
    if isinstance(obj, dict):
        return any(
            any(payload_is_float(x, True) for x in val)
            if key in _SCALAR_LIST_KEYS and isinstance(val, list)
            else payload_is_float(val, key in _SCALAR_KEYS)
            for key, val in obj.items()
        )
    if isinstance(obj, list):
        if scalar and len(obj) == 2 and all(type(x) in (int, float) for x in obj):
            return True
        return any(payload_is_float(x, scalar) for x in obj)
    return False


def matrix_to_json(a: np.ndarray) -> list:
    return [scalar_to_json(x) for x in np.asarray(a).reshape(-1)]


def matrix_from_json(data: list, rows: int, cols: int, exact: bool) -> np.ndarray:
    if len(data) != rows * cols:
        raise ValueError(f"matrix payload has {len(data)} entries, expected {rows * cols}")
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
