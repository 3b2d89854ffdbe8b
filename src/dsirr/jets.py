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


def jet_mul(a: JetMatrix, b: JetMatrix) -> JetMatrix:
    """Cauchy product truncated at z^k."""
    if a.n != b.n or a.k != b.k:
        raise ValueError("jet dimension/precision mismatch")
    out = []
    for s in range(a.k):
        acc = linalg.zeros(a.n, a.n, a.exact)
        for i in range(s + 1):
            acc = acc + np.dot(a.coeffs[i], b.coeffs[s - i])
        out.append(acc)
    return JetMatrix(a.n, a.k, tuple(out))


def jet_inv(a: JetMatrix) -> JetMatrix:
    """Multiplicative inverse; requires the constant term to be invertible."""
    g0_inv = linalg.inv(a.coeffs[0])
    out = [g0_inv]
    for s in range(1, a.k):
        acc = linalg.zeros(a.n, a.n, a.exact)
        for i in range(1, s + 1):
            acc = acc + np.dot(a.coeffs[i], out[s - i])
        out.append(-np.dot(g0_inv, acc))
    return JetMatrix(a.n, a.k, tuple(out))


def jet_exp(x: np.ndarray, i: int, k: int) -> JetMatrix:
    """exp(z^i x) truncated at z^k (a finite sum since i >= 1)."""
    if i < 1:
        raise ValueError("exponent degree must be >= 1")
    n = x.shape[0]
    exact = linalg.is_exact(x)
    coeffs = [linalg.zeros(n, n, exact) for _ in range(k)]
    coeffs[0] = linalg.eye(n, exact)
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
    acc = None
    for i in a.slot_range:
        if i >= x.k:
            break
        t = np.trace(np.dot(x.coeffs[i], a.coeffs[i]))
        acc = t if acc is None else acc + t
    if acc is None:
        acc = GaussianRational(0) if a.exact else 0j
    return acc


def pp_left_mul(g: JetMatrix, a: PrincipalPart) -> PrincipalPart:
    """Principal part of g(z) * A(z)."""
    if g.n != a.n or g.k != a.k:
        raise ValueError("size/precision mismatch")
    out = [linalg.zeros(a.n, a.n, a.exact) for _ in range(a.k)]
    for s in a.slot_range:
        acc = linalg.zeros(a.n, a.n, a.exact)
        for j in range(0, a.k - s):
            src = s + j
            if src in a.slot_range:
                acc = acc + np.dot(g.coeffs[j], a.coeffs[src])
        out[s] = acc
    return PrincipalPart(a.n, a.k, tuple(out), a.tag)


def pp_right_mul(a: PrincipalPart, g: JetMatrix) -> PrincipalPart:
    """Principal part of A(z) * g(z)."""
    if g.n != a.n or g.k != a.k:
        raise ValueError("size/precision mismatch")
    out = [linalg.zeros(a.n, a.n, a.exact) for _ in range(a.k)]
    for s in a.slot_range:
        acc = linalg.zeros(a.n, a.n, a.exact)
        for j in range(0, a.k - s):
            src = s + j
            if src in a.slot_range:
                acc = acc + np.dot(a.coeffs[src], g.coeffs[j])
        out[s] = acc
    return PrincipalPart(a.n, a.k, tuple(out), a.tag)


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
    n, exact = a.n, a.exact
    h = jet_inv(g)
    # conjugation term sum_{i+j+l=s} g_i A_j h_l, as (g A) then (g A) h
    ga = []
    for t in range(out_depth + 1):
        acc = linalg.zeros(n, n, exact)
        for i in range(t + 1):
            acc = acc + np.dot(g.coeffs[i], a.coeffs[t - i])
        ga.append(acc)
    out = []
    for s in range(out_depth + 1):
        acc = linalg.zeros(n, n, exact)
        for t in range(s + 1):
            acc = acc + np.dot(ga[t], h.coeffs[s - t])
        # derivative term dg g^{-1}: coefficient of z^{s-k} dz needs s >= k
        m = s - a.k  # z^m dz with m = s - k >= 0
        if m >= 0:
            for i in range(1, m + 2):
                l = m + 1 - i
                if i < g.k and l < g.k:
                    acc = acc + np.dot(g.coeffs[i] * i, h.coeffs[l])
        out.append(acc)
    return ConnectionJet(n, a.k, tuple(out))
