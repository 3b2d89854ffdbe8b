"""Truncated matrix power series (jets) and principal parts.

A :class:`JetMatrix` holds g(z) = sum g_i z^i mod z^k.  A
:class:`PrincipalPart` holds a one-form germ modulo regular terms,
A(z) = sum_i A_i z^{-i-1} dz with slots i = 0..k-1; the "polar" tag
restricts to slots 1..k-1 (residue slot quotiented away), the "full"
tag keeps the residue slot.  A :class:`ConnectionJet` holds
A(z) = sum_{i>=0} A_i z^{i-k} dz up to a trusted jet depth N.

The pairing between jets and principal parts is the residue of the
trace, res tr(X A) = sum_i tr(X_i A_i); all duality conventions in the
package flow from it.

Every truncated product is one Cauchy sum, `truncated_product`, added
in index order from its first product: exact sums ignore the order, but
float ones reach the `reduce` and `verify` reports, so no caller may
reorder its sum.
Read backwards, a principal part is a jet, P(z) = z^k A(z) = sum_d
A_{k-1-d} z^d: slot s of g A (or A g) is degree k-1-s of g P (or P g),
and A_0 reaches only slot 0, which a polar part zeroes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .scalars import GaussianRational


def _check_square(coeffs, n):
    for c in coeffs:
        if c.shape != (n, n):
            raise ValueError(f"coefficient shape {c.shape} != ({n}, {n})")


@dataclass(frozen=True)
class JetMatrix:
    """g(z) = sum_{i<k} coeffs[i] z^i, an element of the jet group/algebra."""

    n: int
    k: int
    coeffs: tuple

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("precision k must be positive")
        if len(self.coeffs) != self.k:
            raise ValueError(f"expected {self.k} coefficients, got {len(self.coeffs)}")
        _check_square(self.coeffs, self.n)

    @property
    def exact(self) -> bool:
        return linalg.is_exact(self.coeffs[0])

    @staticmethod
    def identity(n: int, k: int, exact: bool = False) -> "JetMatrix":
        coeffs = [linalg.eye(n, exact)] + [linalg.zeros(n, n, exact) for _ in range(k - 1)]
        return JetMatrix(n, k, tuple(coeffs))

    def is_invertible(self) -> bool:
        return linalg.rank(self.coeffs[0]) == self.n

    def is_unipotent(self) -> bool:
        return linalg.matrices_equal(self.coeffs[0], linalg.eye(self.n, self.exact))


@dataclass(frozen=True)
class PrincipalPart:
    """A(z) = sum_i coeffs[i] z^{-i-1} dz; slot 0 is ignored when polar."""

    n: int
    k: int
    coeffs: tuple
    tag: str = "polar"

    def __post_init__(self):
        if self.tag not in ("full", "polar"):
            raise ValueError(f"unknown tag {self.tag!r}")
        if len(self.coeffs) != self.k:
            raise ValueError(f"expected {self.k} slots, got {len(self.coeffs)}")
        _check_square(self.coeffs, self.n)

    @property
    def exact(self) -> bool:
        return linalg.is_exact(self.coeffs[0])

    @property
    def slot_range(self) -> range:
        return range(1, self.k) if self.tag == "polar" else range(0, self.k)

    def with_slot(self, i: int, value: np.ndarray) -> "PrincipalPart":
        coeffs = list(self.coeffs)
        coeffs[i] = value
        return PrincipalPart(self.n, self.k, tuple(coeffs), self.tag)

    def norm(self) -> float:
        return max((linalg.mat_norm(self.coeffs[i]) for i in self.slot_range), default=0.0)


@dataclass(frozen=True)
class ConnectionJet:
    """A(z) = sum_{i<=N} coeffs[i] z^{i-k} dz, trusted to jet depth N."""

    n: int
    k: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) < self.k:
            raise ValueError("need at least k coefficients (depth >= k-1)")
        _check_square(self.coeffs, self.n)

    @property
    def depth(self) -> int:
        return len(self.coeffs) - 1

    @property
    def exact(self) -> bool:
        return linalg.is_exact(self.coeffs[0])


def _one_over(m: int, exact: bool):
    return GaussianRational(Fraction(1, m)) if exact else 1.0 / m


def truncated_product(a, b, s: int, lo: int = 0):
    """sum_{i=lo}^{s} a[i] b[s-i], added in index order from the first product."""
    acc = np.dot(a[lo], b[s - lo])
    for i in range(lo + 1, s + 1):
        acc = acc + np.dot(a[i], b[s - i])
    return acc


def jet_mul(a: JetMatrix, b: JetMatrix) -> JetMatrix:
    """Cauchy product truncated at z^k."""
    if a.n != b.n or a.k != b.k:
        raise ValueError("jet dimension/precision mismatch")
    out = tuple(truncated_product(a.coeffs, b.coeffs, s) for s in range(a.k))
    return JetMatrix(a.n, a.k, out)


def jet_inv(a: JetMatrix) -> JetMatrix:
    """Multiplicative inverse; requires the constant term to be invertible."""
    g0_inv = linalg.inv(a.coeffs[0])
    out = [g0_inv]
    for s in range(1, a.k):
        out.append(-np.dot(g0_inv, truncated_product(a.coeffs, out, s, lo=1)))
    return JetMatrix(a.n, a.k, tuple(out))


def jet_exp(x: np.ndarray, i: int, k: int) -> JetMatrix:
    """exp(z^i x) truncated at z^k (a finite sum since i >= 1)."""
    if i < 1:
        raise ValueError("exponent degree must be >= 1")
    n = x.shape[0]
    exact = linalg.is_exact(x)
    coeffs = list(JetMatrix.identity(n, k, exact).coeffs)
    term = linalg.eye(n, exact)
    m = 1
    while m * i < k:
        term = np.dot(term, x) * _one_over(m, exact)
        coeffs[m * i] = coeffs[m * i] + term
        m += 1
    return JetMatrix(n, k, tuple(coeffs))


def pairing(x: JetMatrix, a: PrincipalPart):
    """res tr(x a) = sum_i tr(x_i a_i)."""
    if x.n != a.n:
        raise ValueError("size mismatch in pairing")
    acc = GaussianRational(0) if a.exact else 0j
    for i in a.slot_range:
        if i >= x.k:
            break
        acc = acc + np.trace(np.dot(x.coeffs[i], a.coeffs[i]))
    return acc


def _principal_product(a: PrincipalPart, left, right) -> PrincipalPart:
    """The principal part, in a's slots, whose slot s is the degree
    k-1-s coefficient of left * right (one of them is a read backwards)."""
    if len(left) != len(right) or left[0].shape != right[0].shape:
        raise ValueError("size/precision mismatch")
    out = [linalg.zeros(a.n, a.n, a.exact) for _ in range(a.k)]
    for s in a.slot_range:
        out[s] = truncated_product(left, right, a.k - 1 - s)
    return PrincipalPart(a.n, a.k, tuple(out), a.tag)


def pp_left_mul(g: JetMatrix, a: PrincipalPart) -> PrincipalPart:
    """Principal part of g(z) * A(z)."""
    return _principal_product(a, g.coeffs, a.coeffs[::-1])


def pp_right_mul(a: PrincipalPart, g: JetMatrix) -> PrincipalPart:
    """Principal part of A(z) * g(z)."""
    return _principal_product(a, a.coeffs[::-1], g.coeffs)


def coadjoint(g: JetMatrix, a: PrincipalPart) -> PrincipalPart:
    """g * A * g^{-1} truncated back into the declared slot range.

    Discarding slots outside the range is the dual-space quotient, so
    this is an exact left action for either tag.
    """
    if not g.is_invertible():
        raise ValueError("coadjoint requires an invertible jet")
    return pp_right_mul(pp_left_mul(g, a), jet_inv(g))


def gauge(g: JetMatrix, a: ConnectionJet) -> ConnectionJet:
    """Gauge transform g[A] = g A g^{-1} + dg g^{-1}.

    The output is trusted to depth min(A.depth, g.k - 1); below the
    polar range that is an error (depth underflow).  With g of
    precision >= depth + 1 there is no depth loss.
    """
    if g.n != a.n:
        raise ValueError("size mismatch")
    out_depth = min(a.depth, g.k - 1)
    if out_depth < a.k - 1:
        raise ValueError("depth underflow: gauge jet too short for the polar part")
    h = jet_inv(g)
    # conjugation term sum_{i+j+l=s} g_i A_j h_l, as (g A) then (g A) h
    ga = [truncated_product(g.coeffs, a.coeffs, t) for t in range(out_depth + 1)]
    out = []
    for s in range(out_depth + 1):
        acc = truncated_product(ga, h.coeffs, s)
        # derivative term dg g^{-1}: sum_i i g_i h_{m+1-i} at z^m dz, m = s - k
        # (none for m < 0); every index is at most s - k + 1 < g.k
        m = s - a.k
        for i in range(1, m + 2):
            acc = acc + np.dot(g.coeffs[i] * i, h.coeffs[m + 1 - i])
        out.append(acc)
    return ConnectionJet(a.n, a.k, tuple(out))
