"""JSON codecs for scalars and matrices.

Complex scalars travel as [re, im] pairs in float mode or as strings
"a/b+c/d i" in exact mode; plain JSON integers are accepted in both
modes.  Matrices are flat row-major arrays of scalars; shapes come
from context.
"""

from __future__ import annotations

import numpy as np

from .scalars import GaussianRational, format_exact, parse_exact


def scalar_to_json(x):
    if isinstance(x, GaussianRational):
        return format_exact(x)
    z = complex(x)
    return [z.real, z.imag]


def scalar_from_json(obj, exact: bool = None):
    """Decode a scalar; exact=None infers the mode from the payload."""
    if isinstance(obj, str):
        g = parse_exact(obj)
        return g if exact in (None, True) else g.to_complex()
    if isinstance(obj, bool):
        raise ValueError("booleans are not scalars")
    if isinstance(obj, int):
        return complex(obj) if exact is False else GaussianRational(obj)
    if isinstance(obj, float):
        if exact:
            raise ValueError(f"float {obj!r} not allowed in exact mode; use 'a/b+c/d i' strings")
        return complex(obj)
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        if exact:
            raise ValueError("[re, im] pairs are float-mode scalars; exact mode needs strings")
        return complex(float(obj[0]), float(obj[1]))
    raise ValueError(f"cannot decode scalar from {obj!r}")


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
