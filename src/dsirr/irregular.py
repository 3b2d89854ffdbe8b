"""Irregular types, level filtration, and the triangular orbit kernel.

An irregular type is a block-scalar polar part T(z) = sum T_i z^{-i}
(i = 1..k-1): each block carries an eigenvalue polynomial t_p(z) and a
multiplicity.  Grouping blocks by the tails of their coefficient
tuples yields the level filtration: at level i two blocks are in the
same class when their coefficients of z^{-(i+1)}, ..., z^{-(k-1)} all
agree.  Level k-1 always has a single class (so the strict
upper/lower pieces there are zero), and level 0 separates all blocks.

Blocks are ordered by comparing the coefficient tuples
(c_{k-1}, ..., c_1) lexicographically by (Re, Im), largest first; this
is compatible with the class orderings at every level, so the "lower"
pieces u_i^- are genuinely block-lower-triangular.

The kernel implemented here:

* factorize        -- unique b = b_minus * b_plus with b_minus in the
                      strictly-lower jets and b_plus in the parabolic
                      ones, via the split g = u_i^- + p_i^+ per degree;
* qp_to_orbit      -- the descending slot recursion reconstructing an
                      orbit element from coordinates (Q, P);
* orbit_to_qp      -- membership test and inverse map: the orbit
                      element, embedded as a connection jet, is
                      conjugated back to dT by reduction.stage_loop, the
                      one stabilizer-chain loop (bv_split, bv_chain and
                      normalize run on it too), and the chain of gauge
                      factors is factorized;
* qp_to_rep/rep_to_qp -- the grading that matches z^i blocks with the
                      parallel arrows of the core quiver, walked in one
                      order (_core_arrows) by them and core_quiver.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .jets import ConnectionJet, JetMatrix, PrincipalPart, jet_inv, pp_left_mul, truncated_product
from .quiver import DoubledRep, make_quiver
from .scalars import GaussianRational, as_double, require_int, scalar_key, scalars_equal
from .serialize import require, scalar_from_json, scalar_to_json

FLOAT_COEFF_RTOL = 1e-9
# IrregularType.project: part -> comparison of the row's class with the column's
_PARTS = {"lower": np.greater, "upper": np.less, "diag": np.equal,
          "lower_eq": np.greater_equal, "upper_eq": np.less_equal}


@dataclass(frozen=True)
class Block:
    """One eigenvalue polynomial: coefficients (c_1..c_{k-1}) and multiplicity."""

    coeffs: tuple
    mult: int


@dataclass(frozen=True)
class IrregularType:
    n: int
    k: int
    blocks: tuple  # canonically ordered
    starts: tuple  # ambient start index per block
    level_classes: tuple  # level i -> tuple(class id per block)
    # canonical position -> position in the input (bookkeeping only)
    source_indices: tuple = field(default=(), compare=False)

    @property
    def exact(self) -> bool:
        return isinstance(self.blocks[0].coeffs[0], GaussianRational)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block_slice(self, b: int) -> slice:
        return slice(self.starts[b], self.starts[b] + self.blocks[b].mult)

    def coord_classes(self, level: int) -> np.ndarray:
        """Class id of every ambient coordinate at the given level."""
        cls = self.level_classes[level]
        out = np.empty(self.n, dtype=int)
        for b, blk in enumerate(self.blocks):
            out[self.starts[b] : self.starts[b] + blk.mult] = cls[b]
        return out

    def project(self, m: np.ndarray, level: int, part: str) -> np.ndarray:
        """Component of m in the level subspace named by part.

        part: "lower"/"upper" are the strict triangular pieces u^-/u^+,
        "diag" is the centralizer piece h, "lower_eq"/"upper_eq" the
        parabolic pieces p^-/p^+.
        """
        cls = self.coord_classes(level)
        mask = _PARTS[part](cls[:, None], cls[None, :])
        if linalg.is_exact(m):
            return np.where(mask, m, GaussianRational(0))
        return np.where(mask, m, 0j)

    def in_subspace(self, m: np.ndarray, level: int, part: str, rtol: float = 1e-9) -> bool:
        return linalg.is_zero_matrix(m - self.project(m, level, part), rtol=rtol,
                                     scale=linalg.mat_norm(m))

    def t_slot(self, s: int) -> np.ndarray:
        """Coefficient matrix T_s (block-scalar diagonal)."""
        out = linalg.zeros(self.n, self.n, self.exact)
        for b, blk in enumerate(self.blocks):
            v = blk.coeffs[s - 1]
            for i in range(self.starts[b], self.starts[b] + blk.mult):
                out[i, i] = v
        return out

    def dt_slot(self, s: int) -> np.ndarray:
        """Coefficient of z^{-s-1} dz in dT, namely -s * T_s."""
        return self.t_slot(s) * (-s)

    def dt(self) -> PrincipalPart:
        coeffs = [linalg.zeros(self.n, self.n, self.exact)]
        coeffs += [self.dt_slot(s) for s in range(1, self.k)]
        return PrincipalPart(self.n, self.k, tuple(coeffs), "polar")

    def separation(self, p: int, q: int) -> int:
        """Largest s with c_s differing between blocks p and q (0 if equal):
        the lowest level at which the two share a class."""
        return next(i for i, cls in enumerate(self.level_classes) if cls[p] == cls[q])

    def arrow_multiplicity(self, p: int, q: int) -> int:
        """deg of t_p - t_q in 1/z, minus one."""
        return max(self.separation(p, q) - 1, 0)

    def to_float(self) -> "IrregularType":
        """Same type with complex coefficients (block order preserved).

        Raises ValueError when the float coefficients, compared as
        `make_irregular_type` compares a float payload's, separate two
        neighbouring blocks at another level than the exact ones do."""
        if not self.exact:
            return self
        blocks = tuple(
            Block(tuple(as_double(c, "irregular type: coefficient") for c in b.coeffs), b.mult)
            for b in self.blocks
        )
        for b, sep in enumerate(_separations(blocks, self.k, False)):
            if sep != self.separation(b, b + 1):
                p, q = sorted(self.source_indices[b : b + 2])
                raise ValueError(f"irregular type: the largest s with c_s differing between "
                                 f"blocks {p} and {q} is {self.separation(b, b + 1)}, and "
                                 f"{sep} in floats; the type has no float form")
        return IrregularType(
            self.n, self.k, blocks, self.starts, self.level_classes, self.source_indices
        )


def _separations(blocks, k: int, exact: bool) -> list:
    """For each pair of neighbouring blocks, the largest s with c_s
    differing (0 if none), found from the top; floats are compared
    under FLOAT_COEFF_RTOL."""
    return [next((s for s in range(k - 1, 0, -1) if not scalars_equal(
        a.coeffs[s - 1], b.coeffs[s - 1], exact, FLOAT_COEFF_RTOL)), 0)
        for a, b in zip(blocks, blocks[1:])]


def make_irregular_type(k: int, blocks) -> IrregularType:
    """Canonicalize and validate block data.

    blocks: iterable of (coeffs, mult); coefficient tuples have length
    k-1 (entries for z^{-1} .. z^{-(k-1)}).  Blocks are sorted with the
    largest reversed coefficient tuple first; duplicate polynomials are
    rejected (merge their multiplicities instead).
    """
    require_int(k, "the pole order k", 2)
    blk = []
    for coeffs, mult in blocks:
        coeffs = tuple(coeffs)
        if len(coeffs) != k - 1:
            raise ValueError(f"block needs {k - 1} coefficients, got {len(coeffs)}")
        blk.append(Block(coeffs, require_int(mult, "a block multiplicity", 1)))
    if not blk:
        raise ValueError("irregular type needs at least one block")
    exact = isinstance(blk[0].coeffs[0], GaussianRational)
    if not exact:
        warnings.warn(
            "float irregular-type coefficients: level structure uses tolerance "
            f"{FLOAT_COEFF_RTOL} and is discontinuous in the data",
            stacklevel=2,
        )

    def key(pair):
        return tuple(scalar_key(c) for c in reversed(pair[1].coeffs))

    order = sorted(enumerate(blk), key=key, reverse=True)
    source = tuple(i for i, _ in order)
    blk = [b for _, b in order]
    # neighbours share a class at level i iff their separation is <= i
    seps = _separations(blk, k, exact)
    if 0 in seps:
        raise ValueError("blocks must be pairwise distinct as polynomials")
    *starts, pos = itertools.accumulate((b.mult for b in blk), initial=0)
    levels = [tuple(itertools.accumulate((s > i for s in seps), initial=0)) for i in range(k)]
    return IrregularType(pos, k, tuple(blk), tuple(starts), tuple(levels), source)


def level_filtration(T: IrregularType) -> list:
    """Classes per level: level i -> list of lists of block indices."""
    out = []
    for i in range(T.k):
        classes: dict = {}
        for b, c in enumerate(T.level_classes[i]):
            classes.setdefault(c, []).append(b)
        out.append([classes[c] for c in sorted(classes)])
    return out


def _core_arrows(T: IrregularType):
    """(id, p, q, i) for every core arrow: block p -> block q (p < q) at
    grading level 1 <= i <= their arrow multiplicity."""
    for p in range(T.block_count):
        for q in range(p + 1, T.block_count):
            for i in range(1, T.arrow_multiplicity(p, q) + 1):
                yield f"p{p}>p{q}:{i}", p, q, i


def core_quiver(T: IrregularType):
    """Vertices are the blocks, with deg(t_p - t_q) - 1 parallel arrows.

    Arrow p -> q at grading level i exists for 1 <= i <= multiplicity;
    ids are "p{p}>p{q}:{i}".  Returns (quiver, dims).
    """
    names = [f"p{b}" for b in range(T.block_count)]
    arrows = [(arrow, names[p], names[q]) for arrow, p, q, _ in _core_arrows(T)]
    dims = {names[b]: T.blocks[b].mult for b in range(T.block_count)}
    return make_quiver(names, arrows), dims


def factorize(T: IrregularType, b: JetMatrix):
    """Unique b = b_minus * b_plus along g = u_i^- + p_i^+ per degree."""
    if b.n != T.n or b.k != T.k:
        raise ValueError("jet size/precision does not match the irregular type")
    if not b.is_unipotent():
        raise ValueError("factorize needs a unipotent jet")
    exact = b.exact
    k, n = T.k, T.n
    minus = [linalg.eye(n, exact)] + [linalg.zeros(n, n, exact) for _ in range(k - 1)]
    plus = [linalg.eye(n, exact)] + [linalg.zeros(n, n, exact) for _ in range(k - 1)]
    for i in range(1, k):
        # minus[i] is still 0, so the sum's last term minus[i] plus[0] is too
        rhs = b.coeffs[i] - truncated_product(minus, plus, i, lo=1)
        lower = T.project(rhs, i, "lower")
        minus[i] = lower
        plus[i] = rhs - lower
    return JetMatrix(n, k, tuple(minus)), JetMatrix(n, k, tuple(plus))


@dataclass(frozen=True)
class QPPair:
    """Triangular coordinates: q[i] in u_i^-, p[i] in u_i^+ (slot 0 unused)."""

    n: int
    k: int
    q: tuple
    p: tuple

    @property
    def exact(self) -> bool:
        return linalg.is_exact(self.q[0])

    @staticmethod
    def zero(T: IrregularType, exact: bool = None) -> "QPPair":
        exact = T.exact if exact is None else exact
        z = [linalg.zeros(T.n, T.n, exact) for _ in range(T.k)]
        return QPPair(T.n, T.k, tuple(z), tuple(list(z)))

    def norm(self) -> float:
        return max(
            max((linalg.mat_norm(m) for m in self.q[1:]), default=0.0),
            max((linalg.mat_norm(m) for m in self.p[1:]), default=0.0),
        )


def validate_qp(T: IrregularType, qp: QPPair):
    for s in range(1, T.k):
        if not T.in_subspace(qp.q[s], s, "lower"):
            raise ValueError(f"Q slot {s} leaves the strictly-lower level subspace")
        if not T.in_subspace(qp.p[s], s, "upper"):
            raise ValueError(f"P slot {s} leaves the strictly-upper level subspace")


class OrbitMembershipError(ValueError):
    """The principal part is not in the coadjoint orbit of dT."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


def _require_same_mode(T: IrregularType, exact: bool):
    if T.exact != exact:
        raise TypeError(
            "backend mismatch: convert the irregular type with to_float() "
            "or supply exact data"
        )


def qp_to_orbit(T: IrregularType, qp: QPPair) -> PrincipalPart:
    """Reconstruct the orbit element with coordinates (Q, P); validate_qp
    first checks that they lie in their level subspaces.

    Descending over slots s = k-1..1, the auxiliary element B' is fixed
    by: its u_s^+ part is P_s, and its p_s^- part matches
    dT_s - sum_{j>=1} B'_{s+j} Q_j.  The orbit element is then the
    polar part of (1 + Q) B'.
    """
    _require_same_mode(T, qp.exact)
    validate_qp(T, qp)
    n, k = T.n, T.k
    bprime = [linalg.zeros(n, n, qp.exact) for _ in range(k)]
    for s in range(k - 1, 0, -1):
        acc = T.dt_slot(s)
        for j in range(1, k - s):
            acc = acc - np.dot(bprime[s + j], qp.q[j])
        bprime[s] = qp.p[s] + T.project(acc, s, "lower_eq")
    one_plus_q = JetMatrix(n, k, (linalg.eye(n, qp.exact),) + qp.q[1:])
    return pp_left_mul(one_plus_q, PrincipalPart(n, k, tuple(bprime), "polar"))


def orbit_to_qp(T: IrregularType, B: PrincipalPart) -> QPPair:
    """Invert qp_to_orbit; doubles as the orbit membership test.

    B is embedded as a connection jet (jet slot s is B slot k-1-s) and
    reduction.stage_loop conjugates its polar slots back to dT along the
    level filtration of T.  The chain of gauge factors is factorized and
    (Q, P) are read off.  A slot that does not reach dT (relative
    tolerance 1e-8) raises OrbitMembershipError.
    """
    from .reduction import stage_loop  # here, since reduction imports this module

    n, k = T.n, T.k
    if B.tag != "polar" or B.n != n or B.k != k:
        raise ValueError("orbit elements are polar principal parts matching T")
    exact = B.exact
    _require_same_mode(T, exact)
    slots = [B.coeffs[k - 1 - s] for s in range(k - 1)] + [linalg.zeros(n, n, exact)]
    classes = [T.coord_classes(k - 1 - i) for i in range(k)]
    expected = [T.dt_slot(k - 1 - i) for i in range(k - 1)]
    chain = stage_loop(ConnectionJet(n, k, tuple(slots)), classes, expected, k - 2, 1e-8)
    b_minus, _ = factorize(T, jet_inv(chain.gauge_jet(k)))
    q = [linalg.zeros(n, n, exact)] + [b_minus.coeffs[i] for i in range(1, k)]
    bprime = pp_left_mul(jet_inv(b_minus), B)
    p = [linalg.zeros(n, n, exact)]
    for s in range(1, k):
        p.append(T.project(bprime.coeffs[s], s, "upper"))
    return QPPair(n, k, tuple(q), tuple(p))


def qp_to_rep(T: IrregularType, qp: QPPair) -> DoubledRep:
    """Scatter (Q, P) blocks onto the parallel arrows of the core quiver.

    The z^i block of Q mapping block p into block q rides on the i-th
    arrow p -> q; the matching block of P rides on its reverse.
    """
    quiver, dims = core_quiver(T)
    rep = DoubledRep.zero(quiver, dims, qp.exact)
    for arrow, p, q, i in _core_arrows(T):
        sp, sq = T.block_slice(p), T.block_slice(q)
        rep.fwd[arrow] = qp.q[i][sq, sp].copy()
        rep.rev[arrow] = qp.p[i][sp, sq].copy()
    return rep


def rep_to_qp(T: IrregularType, rep: DoubledRep) -> QPPair:
    exact = rep.exact
    q = [linalg.zeros(T.n, T.n, exact) for _ in range(T.k)]
    p = [linalg.zeros(T.n, T.n, exact) for _ in range(T.k)]
    for arrow, pb, qb, i in _core_arrows(T):
        sp, sq = T.block_slice(pb), T.block_slice(qb)
        q[i][sq, sp] = rep.fwd[arrow]
        p[i][sp, sq] = rep.rev[arrow]
    return QPPair(T.n, T.k, tuple(q), tuple(p))


def irregular_type_to_json(T: IrregularType) -> dict:
    return {
        "k": T.k,
        "blocks": [
            {"coeffs": [scalar_to_json(c) for c in b.coeffs], "mult": b.mult}
            for b in T.blocks
        ],
    }


def irregular_type_from_json(data: dict, exact: bool, path: str = "") -> IrregularType:
    k, blocks = require(data, "k", path, int), []
    for i, b in enumerate(require(data, "blocks", path, list)):
        at = f"{path}/blocks/{i}"
        coeffs = [scalar_from_json(c, exact) for c in require(b, "coeffs", at, list)]
        blocks.append((coeffs, require(b, "mult", at, int)))
    return make_irregular_type(k, blocks)
