"""Formal reduction of connection jets at an irregular point.

stage_loop is the one reduction: the stabilizer chain of Babbitt-
Varadarajan.  Stage i checks that slot i-1 has reached its expected
value, then removes, degree by degree, the component of every later
slot that the classes of level i-1 join but those of level i separate:
the degree-j gauge factor exp(z^j X_j) has X_j in the range of ad of
the expected diagonal, found by entrywise division of the offending
component by differences of that diagonal.  Its four callers differ
only in where the chain comes from:

* bv_split runs one stage in an eigenbasis of the semisimple leading
  coefficient, with its eigenvalues as the classes, and so commutes
  every slot past it;
* bv_chain reads the classes and the expected values off the diagonal
  top slots of the jet itself;
* normalize reads them off a prescribed irregular type (coord_classes,
  dt_slot) and returns the residue of the reduced jet: the exponent,
  which does not depend on the gauge used;
* irregular.orbit_to_qp embeds an orbit element as a jet and cleans its
  polar slots only, reading the chain of gauge factors back.

Float values closer than CLUSTER_RTOL (relative, floor 1) fall into one
class.  A slot off its expected value raises OrbitMembershipError (a
ValueError carrying the residual).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .irregular import IrregularType, OrbitMembershipError
from .jets import ConnectionJet, JetMatrix, gauge, jet_exp, jet_mul
from .scalars import scalars_equal

CLUSTER_RTOL = 1e-8


@dataclass
class ReductionResult:
    """Gauge factors (degree, X) in application order, and the reduced jet."""

    factors: list
    reduced: ConnectionJet

    @property
    def depth(self) -> int:
        return self.reduced.depth

    def gauge_jet(self, precision: int = None) -> JetMatrix:
        """Product of the factors as a single jet (later factors on the left)."""
        n = self.reduced.n
        exact = self.reduced.exact
        precision = self.depth + 1 if precision is None else precision
        total = JetMatrix.identity(n, precision, exact)
        for degree, x in self.factors:
            total = jet_mul(jet_exp(x, degree, precision), total)
        return total


@dataclass
class NormalizeResult(ReductionResult):
    exponent: np.ndarray = None


def _eigen_data(a0: np.ndarray):
    """Eigenbasis of a semisimple matrix; exact mode requires diagonal input."""
    n = a0.shape[0]
    if linalg.is_exact(a0):
        for i in range(n):
            for j in range(n):
                if i != j and a0[i, j]:
                    raise ValueError("exact reduction requires a diagonal leading coefficient")
        return [a0[i, i] for i in range(n)], None, None
    af = np.asarray(a0, dtype=complex)
    vals, vecs = np.linalg.eig(af)
    cond = np.linalg.cond(vecs)
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError("leading coefficient is not diagonalizable within tolerance")
    return list(vals), vecs, np.linalg.inv(vecs)


def _truncate(a: ConnectionJet, depth) -> ConnectionJet:
    if depth is None:
        return a
    if depth > a.depth:
        raise ValueError(f"requested depth {depth} exceeds trusted depth {a.depth}")
    return ConnectionJet(a.n, a.k, a.coeffs[: depth + 1])


def bv_split(a: ConnectionJet) -> ReductionResult:
    """Commute everything past the semisimple leading coefficient.

    The reduced jet satisfies [A_0, A'_i] = 0 for all i up to the
    trusted depth, with A'_0 = A_0; slots already commuting with A_0
    are returned unchanged.  This is one stage of stage_loop in an
    eigenbasis of A_0, whose eigenvalues fall into classes by the rule
    of bv_chain (CLUSTER_RTOL).
    """
    n = a.n
    vals, vecs, vecs_inv = _eigen_data(a.coeffs[0])
    if vecs is not None:
        a = ConnectionJet(n, a.k, tuple(vecs_inv @ c @ vecs for c in a.coeffs))
    # expect the conjugated A_0 itself, not its diagonal: its off-diagonal
    # rounding grows with the condition of the eigenbasis
    out = stage_loop(a, [[0] * n, _diag_tuple_classes([vals], a.exact)], [a.coeffs[0]])
    if vecs is None:
        return out
    factors = [(j, vecs @ x @ vecs_inv) for j, x in out.factors]
    reduced = ConnectionJet(n, a.k, tuple(vecs @ c @ vecs_inv for c in out.reduced.coeffs))
    return ReductionResult(factors, reduced)


def _restore_invariant_slots(before: ConnectionJet, after: ConnectionJet, upto: int) -> ConnectionJet:
    """Slots <= upto are invariant under the stage by the centralizer
    property; recomputing them only adds rounding noise, so copy them
    back (guarded against real drift)."""
    coeffs = list(after.coeffs)
    for s in range(min(upto + 1, len(coeffs))):
        drift = linalg.mat_norm(after.coeffs[s] - before.coeffs[s])
        scale = max(1.0, linalg.mat_norm(before.coeffs[s]))
        if drift > 1e-9 * scale:
            raise AssertionError(f"stage moved an invariant slot {s} by {drift:.3e}")
        coeffs[s] = before.coeffs[s]
    return ConnectionJet(after.n, after.k, tuple(coeffs))


def stage_loop(
    a: ConnectionJet, classes, expected, last: int = None, rtol: float = CLUSTER_RTOL
) -> ReductionResult:
    """The stabilizer-chain reduction shared by bv_split, bv_chain,
    normalize and orbit_to_qp: one stage per step of the class chain.

    classes[i] is the class id of every coordinate once slots 0..i-1
    are taken into account, so classes[0] is a single class; expected[i]
    (one fewer than classes) is the value slot i must reach.  Stage i
    (i = 1..len(classes)-1) checks slot i-1 against expected[i-1]
    (relative to the largest coefficient) and then clears, for every
    degree j, the component of slot i-1+j <= last (default the trusted
    depth) inside a class of classes[i-1] but across classes of
    classes[i], by conjugating with exp(z^j X), X dividing by
    differences of the diagonal of expected[i-1].  The gauge factors
    keep the jet's own precision.
    """
    n = a.n
    last = a.depth if last is None else last
    scale = max(linalg.mat_norm(m) for m in list(a.coeffs) + list(expected))
    work = a
    factors = []
    for slot in range(len(classes) - 1):
        defect = work.coeffs[slot] - expected[slot]
        if not linalg.is_zero_matrix(defect, rtol=rtol, scale=scale):
            residual = linalg.mat_norm(defect)
            raise OrbitMembershipError(
                f"slot {slot} differs from its expected value (residual {residual:.3e})",
                residual=residual,
            )
        hi, lo = classes[slot], classes[slot + 1]
        dvals = [expected[slot][i, i] for i in range(n)]
        allowed = [
            (r, c) for r in range(n) for c in range(n) if hi[r] == hi[c] and lo[r] != lo[c]
        ]
        before = work
        for j in range(1, last - slot + 1):
            coeff = work.coeffs[slot + j]
            x = linalg.zeros(n, n, a.exact)
            dirty = False
            for r, c in allowed:
                if coeff[r, c]:
                    x[r, c] = -coeff[r, c] / (dvals[c] - dvals[r])
                    dirty = True
            if dirty:
                work = gauge(jet_exp(x, j, a.depth + 1), work)
                factors.append((j, x))
        work = _restore_invariant_slots(before, work, slot)
    return ReductionResult(factors, work)


def _diag_tuple_classes(diags, exact: bool):
    """Group coordinates by equality of their value tuples, within
    CLUSTER_RTOL on floats."""
    n = len(diags[0]) if diags else 0
    classes = [-1] * n
    reps = []
    for i in range(n):
        tup = [d[i] for d in diags]
        for cid, rep in enumerate(reps):
            if all(scalars_equal(a, b, exact, CLUSTER_RTOL) for a, b in zip(tup, rep)):
                classes[i] = cid
                break
        else:
            classes[i] = len(reps)
            reps.append(tup)
    return classes


def bv_chain(a: ConnectionJet, depth: int = None) -> ReductionResult:
    """Iterated split through the stabilizer chain of the top slots,
    on the jet truncated to depth (default: its trusted depth).

    The chain is read off the diagonals of the coefficients below the
    residue slot (indices <= k-2), which must equal their diagonals
    when their stage comes (relative tolerance CLUSTER_RTOL, which also
    groups float diagonal entries).  The reduced jet is valued in their
    joint centralizer, and for diagonal input those coefficients are
    returned unchanged.  Equal diagonal entries need not be adjacent.
    """
    a = _truncate(a, depth)
    n, k = a.n, a.k
    expected = []
    for i in range(k - 1):
        d = linalg.zeros(n, n, a.exact)
        for r in range(n):
            d[r, r] = a.coeffs[i][r, r]
        expected.append(d)
    diags = [[m[r, r] for r in range(n)] for m in expected]
    classes = [[0] * n] + [_diag_tuple_classes(diags[:i], a.exact) for i in range(1, k)]
    return stage_loop(a, classes, expected)


def normalize(a: ConnectionJet, T: IrregularType, rtol: float = 1e-8) -> NormalizeResult:
    """Reduce a connection jet against a prescribed irregular type, on
    its first min(2k, trusted depth) + 1 slots.

    The jet need not have diagonal coefficients: each stage first
    checks that its leading slot equals the matching dT coefficient
    (else the polar part is incompatible with the type) and then
    removes the separating component at that level.  Returns the gauge
    factors, the reduced jet, and the exponent: the residue coefficient
    of the reduced jet, block-diagonal for the type.  The exponent is
    independent of the unipotent gauge used.  Raises ValueError unless
    `rtol` is finite and > 0.
    """
    linalg.require_rtol(rtol)
    if T.exact != a.exact:
        raise TypeError("backend mismatch between the jet and the irregular type")
    if a.n != T.n or a.k != T.k:
        raise ValueError("jet size or pole order does not match the irregular type")
    k = T.k
    depth = min(2 * k, a.depth)
    if depth < k - 1:
        raise ValueError("depth underflow: cannot even trust the residue slot")
    classes = [T.coord_classes(k - 1 - i) for i in range(k)]
    expected = [T.dt_slot(k - 1 - i) for i in range(k - 1)]
    out = stage_loop(_truncate(a, depth), classes, expected, rtol=rtol)
    return NormalizeResult(out.factors, out.reduced, exponent=out.reduced.coeffs[k - 1])
