"""Dense linear algebra over both scalar backends.

Float mode delegates to numpy (SVD ranks and factorizations); exact
mode uses fraction-exact Gaussian elimination over Q(i).  The float rank
threshold is relative to the largest singular value, read on the copy
`unit_scaled` makes.
"""

from __future__ import annotations

import math

import numpy as np

from .scalars import ONE, ZERO, as_complex

RANK_RTOL = 1e-8
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def require_rtol(rtol: float) -> float:
    """`rtol` itself if it is finite and > 0.  A NaN, infinite, zero or
    negative tolerance passes or fails every check it gates, whatever the
    data, so it is refused rather than reported as a verdict."""
    if not (math.isfinite(rtol) and rtol > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {rtol}")
    return rtol


def is_exact(a: np.ndarray) -> bool:
    return a.dtype == object


def zeros(rows: int, cols: int, exact: bool) -> np.ndarray:
    if exact:
        return np.full((rows, cols), ZERO, dtype=object)
    return np.zeros((rows, cols), dtype=complex)


def eye(n: int, exact: bool) -> np.ndarray:
    if exact:
        a = zeros(n, n, True)
        for i in range(n):
            a[i, i] = ONE
        return a
    return np.eye(n, dtype=complex)


def _double(x) -> float:
    """float(x), or an infinity of x's sign beyond the double range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def to_complex(a: np.ndarray) -> np.ndarray:
    """The matrix in floats; an exact entry beyond the double range reads
    as an infinity, so its float norm is inf rather than an error."""
    if not is_exact(a):
        return np.asarray(a, dtype=complex)
    out = np.zeros(a.shape, dtype=complex)
    for idx in np.ndindex(a.shape):
        out[idx] = complex(_double(a[idx].re), _double(a[idx].im))
    return out


def mat_norm(a: np.ndarray) -> float:
    """Frobenius norm; exact entries are measured through floats."""
    return float(np.linalg.norm(to_complex(a)))


def frobenius(a: np.ndarray) -> float:
    """||a||_F of a float matrix within a relative gamma_{2n+1}, underflow
    included: the 2n real squares of n entries lose at most eps/2 tiny
    each to it, with tiny the smallest normal float."""
    return (float(np.vdot(a, a).real) + a.size * _EPS * _TINY) ** 0.5


def ldexp(x, e):
    """x * 2^e, a complex x part by part: exact bar underflow, with no zero
    changing sign and overflow reading as an infinity; x itself if e is 0."""
    if isinstance(e, int) and not e:
        return x
    with np.errstate(over="ignore"):
        if not np.iscomplexobj(x):
            return np.ldexp(x, e)
        out = np.empty(np.shape(x), dtype=complex)
        out.real, out.imag = np.ldexp(np.real(x), e), np.ldexp(np.imag(x), e)
        return out if np.ndim(x) else complex(out)


def unit_scaled(a: np.ndarray):
    """(a * 2^-e, e), for each matrix of the float stack a the least e >= 0
    with every real and imaginary part below 2^(e + 512) (0 if one is not
    finite).  With every shift and scale times 2^-e too, the copy's
    singular values and rank cutoffs stay far inside the double range,
    and a rank read on it is a's.  A matrix with e = 0 is its own copy."""
    top = abs(a.view(float)).max(axis=(-2, -1), initial=0.0)  # over both parts
    e = np.maximum(np.frexp(top)[1] - 512, 0)
    return (ldexp(a, -e[..., None, None]) if e.any() else a), e


def is_zero_matrix(a: np.ndarray, rtol: float = 1e-9, scale: float = 1.0) -> bool:
    if is_exact(a):
        return all(not a[idx] for idx in np.ndindex(a.shape))
    return mat_norm(a) <= rtol * max(1.0, scale)


def matrices_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if is_exact(a) != is_exact(b):
        raise TypeError("cannot compare matrices across backends")
    return is_zero_matrix(a - b, scale=max(mat_norm(a), mat_norm(b)))


def rref(a: np.ndarray):
    """Reduced row echelon form over Q(i); returns (R, pivot_columns)."""
    r = a.copy()
    rows, cols = r.shape
    pivots = []
    pr = 0
    for pc in range(cols):
        pivot_row = None
        for i in range(pr, rows):
            if r[i, pc]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != pr:
            r[[pr, pivot_row]] = r[[pivot_row, pr]]
        inv = ONE / r[pr, pc]
        r[pr, :] = r[pr, :] * inv
        for i in range(rows):
            if i != pr and r[i, pc]:
                r[i, :] = r[i, :] - r[i, pc] * r[pr, :]
        pivots.append(pc)
        pr += 1
        if pr == rows:
            break
    return r, pivots


def rank(a: np.ndarray, rtol: float = RANK_RTOL) -> int:
    if a.size == 0:
        return 0
    if is_exact(a):
        return len(rref(a)[1])
    return ranks([a], rtol)[0]


def ranks(mats, rtol: float = RANK_RTOL) -> list:
    """`rank` of each float matrix, from one stacked SVD per shape: numpy
    runs the same LAPACK call on each slice, so the singular values, and
    the ranks, are those of one call per matrix.  An all-zero matrix has
    rank 0, as no singular value exceeds its cutoff rtol * 0."""
    by_shape, out = {}, [0] * len(mats)
    for i, a in enumerate(mats):
        by_shape.setdefault(a.shape, []).append(i)
    for shape, where in by_shape.items():
        if 0 not in shape:  # a zero-size matrix has rank 0
            stack, _ = unit_scaled(np.array([mats[i] for i in where], dtype=complex))
            s = np.linalg.svd(stack, compute_uv=False)
            for i, k in zip(where, np.sum(s > rtol * s[:, :1], axis=1).tolist()):
                out[i] = k
    return out


def product_chain(a: np.ndarray, shifts, rtol: float = RANK_RTOL, scale: float = None) -> list:
    """Rank factorizations along the chain V_j = range (a - s_1)...(a - s_j):
    the pairs (f_j, r_j), j = 1..len(shifts), with a_{j-1} - s_j = f_j r_j,
    where a_0 = a and a_j = r_j f_j + s_j is a on V_j in the coordinates
    of f_1 ... f_j.  So f_j is the inclusion V_j -> V_{j-1}, r_j is
    a - s_j corestricted to V_j, and the width of f_j is the rank of the
    j-th partial product; no product or power is formed.

    Float mode takes f = U_k and r = S_k V_k^H from one SVD per step, k
    counting the singular values above rtol * (scale + |s_j|), so the
    coordinates stay orthonormal.  scale defaults to max(||a||_2, 1), as
    a numerically zero a formed by cancellation would otherwise read a
    spurious positive rank; callers that know the ambient scale pass it.
    The walk runs on a `unit_scaled`, shifts and scale alike, and returns
    each pair in a's units.  Exact mode takes the pivot columns as f and
    the non-zero rref rows as r.
    Once a step keeps the width, its shift maps the range onto itself
    (Fitting's lemma), so a repeat of it factors as (a_j - s, I) with no
    SVD or rref; the rref gives the same pair.  A float a_{j-1} - s_j
    with an infinite or NaN entry raises ValueError, as numpy's SVD of a
    complex matrix holding an infinity may never return; so does an r_j
    beyond the double range.
    """
    exact = is_exact(a)
    if not exact:
        a, e = unit_scaled(np.ascontiguousarray(a, dtype=complex))
        e = int(e)
        shifts = [ldexp(as_complex(s), -e) for s in shifts]
        scale = (max(np.linalg.norm(a, 2), ldexp(1.0, -e)) if scale is None
                 else ldexp(max(scale, 0.0), -e))
    steps, kept = [], False
    for j, s in enumerate(shifts):
        k = a.shape[0]
        m = a - s * eye(k, exact)
        if k == 0 or (kept and s == shifts[j - 1]):
            f, r = m, eye(k, exact)
            steps.append((f if exact else ldexp(f, e), r))
        elif exact:
            red, pivots = rref(m)
            f, r = m[:, pivots], red[: len(pivots)]
            steps.append((f, r))
        elif not np.isfinite(m).all():
            raise ValueError(f"step {j + 1} of the product chain is not finite")
        else:
            u, sv, vh = np.linalg.svd(m, full_matrices=False)
            w = int(np.sum(sv > rtol * (scale + abs(s))))
            f, r = u[:, :w], sv[:w, None] * vh[:w]
            steps.append((f, ldexp(r, e)))
            if not np.isfinite(steps[-1][1]).all():
                raise ValueError(f"step {j + 1} of the product chain is not finite")
        kept = f.shape[1] == k
        a = np.dot(r, f) + s * eye(f.shape[1], exact)
    return steps


def inv(a: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix.  Exact mode reads it off the rref of
    [a | I], whose pivots are the columns of a just when a is invertible."""
    if is_exact(a):
        n = a.shape[0]
        r, pivots = rref(np.concatenate([a, eye(n, True)], axis=1))
        if pivots[:n] != list(range(n)):
            raise ValueError("singular exact matrix")
        return r[:, n:]
    return np.linalg.inv(np.asarray(a, dtype=complex))


class SpanBasis:
    """Incremental basis of a subspace of Q(i)^d (vectors are rows), kept
    as reduced echelon rows."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[np.ndarray] = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec: np.ndarray) -> bool:
        """Add a vector; returns True when it enlarged the span."""
        v = vec.reshape(-1).copy()
        for row, p in zip(self.rows, self._pivots):
            if v[p]:
                v = v - v[p] * row
        pivot = next((j for j in range(self.dim) if v[j]), None)
        if pivot is None:
            return False
        v = v * (ONE / v[pivot])
        self.rows.append(v)
        self._pivots.append(pivot)
        return True
