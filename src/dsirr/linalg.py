"""Dense linear algebra over both scalar backends.

Float mode delegates to numpy (SVD ranks, least squares); exact mode
uses fraction-exact Gaussian elimination over Q(i).  The float rank
threshold is relative to the largest singular value.
"""

from __future__ import annotations

import math

import numpy as np

from .scalars import ONE, ZERO

RANK_RTOL = 1e-8


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


def to_complex(a: np.ndarray) -> np.ndarray:
    if not is_exact(a):
        return np.asarray(a, dtype=complex)
    out = np.zeros(a.shape, dtype=complex)
    for idx in np.ndindex(a.shape):
        out[idx] = a[idx].to_complex()
    return out


def mat_norm(a: np.ndarray) -> float:
    """Frobenius norm; exact entries are measured through floats."""
    return float(np.linalg.norm(to_complex(a)))


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
    s = np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def power_rank_sequence(a: np.ndarray, jmax: int, rtol: float = RANK_RTOL, scale: float = None) -> list:
    """Ranks of a^j for j = 1..jmax.

    Float mode iterates orthonormalized images (rank of a^j equals the
    rank of a applied to an orthonormal basis of range(a^{j-1})), which
    avoids the condition-number blow-up of explicit powers.  The cutoff
    is rtol * scale per step; scale defaults to ||a||, but callers that
    obtained a by cancellation should pass the ambient scale, or a
    numerically-zero difference gets a spurious positive rank.

    Once rank a^j = rank a^{j-1} (with a^0 = I), range(a^j) = range(a^{j-1})
    and every later rank is the same (Fitting's lemma), so the rest of
    the sequence is filled in without further steps.
    """
    n = a.shape[0]
    ranks = []
    exact = is_exact(a)
    if exact:
        power = a
    else:
        af = np.asarray(a, dtype=complex)
        scale = np.linalg.norm(af, 2) if scale is None else max(scale, 0.0)
        basis = np.eye(n, dtype=complex)
    last = n
    while len(ranks) < jmax:
        if exact:
            k = rank(power)
            power = np.dot(power, a)
        elif basis.shape[1] == 0 or scale == 0.0:
            k = 0
        else:
            u, s, _ = np.linalg.svd(af @ basis, full_matrices=False)
            k = int(np.sum(s > rtol * scale))
            basis = u[:, :k]
        ranks.append(k)
        if k == last:
            ranks += [k] * (jmax - len(ranks))
        last = k
    return ranks


def solve_linear(a: np.ndarray, b: np.ndarray):
    """Solve a x = b (b may be a matrix).

    Returns (x, residual) where residual is the float norm of a x - b;
    exact mode returns residual 0.0 on consistency and raises
    ValueError on an inconsistent system.
    """
    if is_exact(a):
        aug = np.concatenate([a, b], axis=1)
        r, pivots = rref(aug)
        ncols = a.shape[1]
        if any(p >= ncols for p in pivots):
            raise ValueError("inconsistent exact linear system")
        x = zeros(ncols, b.shape[1], True)
        for row, p in enumerate(pivots):
            x[p, :] = r[row, ncols:]
        return x, 0.0
    af = np.asarray(a, dtype=complex)
    bf = np.asarray(b, dtype=complex)
    x, *_ = np.linalg.lstsq(af, bf, rcond=None)
    residual = float(np.linalg.norm(af @ x - bf))
    return x, residual


def inv(a: np.ndarray) -> np.ndarray:
    if is_exact(a):
        n = a.shape[0]
        x, _ = solve_linear(a, eye(n, True))
        if not matrices_equal(np.dot(a, x), eye(n, True)):
            raise ValueError("singular exact matrix")
        return x
    return np.linalg.inv(np.asarray(a, dtype=complex))


def column_space(a: np.ndarray) -> np.ndarray:
    """Basis of the column space, as columns of the returned matrix.

    Exact mode returns pivot columns of a itself; float mode returns an
    orthonormal basis from the SVD.
    """
    if is_exact(a):
        _, pivots = rref(a)
        return a[:, pivots].copy()
    af = np.asarray(a, dtype=complex)
    if af.size == 0:
        return np.zeros((af.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(af, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((af.shape[0], 0), dtype=complex)
    k = int(np.sum(s > RANK_RTOL * s[0]))
    return u[:, :k]


def coords_in_basis(basis: np.ndarray, vectors: np.ndarray):
    """Express vectors (columns) in a column basis; raise if not in span
    (residual above 1e-9 relative to max(1, ||vectors||))."""
    x, residual = solve_linear(basis, vectors)
    if residual > 1e-9 * max(1.0, mat_norm(vectors)):
        raise ValueError("vectors do not lie in the span of the basis")
    return x


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
