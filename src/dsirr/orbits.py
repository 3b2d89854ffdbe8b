"""Conjugacy classes of matrices: markings, leg data, realization.

An orbit is described by its Jordan data (eigenvalues with block-size
multisets).  A marking is an ordered tuple (l_1, ..., l_d) with
prod_i (A - l_i) = 0 on the orbit; each marking determines the chain
of subspaces V_l = range prod_{i<=l} (A - l_i) whose dimensions form a
type-A leg.  The greedy marking (largest rank drop first, ties by
(Re, Im) order) minimizes the leg dimensions; callers may override the
order.

Invariant: an OrbitSpec holds its eigenvalues sorted by (Re, Im) and
distinct; its constructor alone sorts them and rejects a repeat.  So
index order is the greedy tie-break, and the greedy marking is one sort
of the (-drop, index, level) triples, eigenvalue `index` losing `drop`
active blocks at its `level`-th use.  The rank sequence and the ranks
orbit_membership expects are computed by index too; only a marking given
by value is matched to indices, entry by entry with ==.

realize_leg builds the chain maps explicitly: the reverse map along
arrow l -> l-1 is (A - l_l) corestricted to V_l, the forward map is
the inclusion; the product of the pair at the top plus l_1 recovers A.

orbit_membership reads each eigenvalue's rank profile up to its largest
block only, the first ranks of all from one stacked SVD in float mode,
at a cutoff scaled by the terms that cancelled in forming the matrix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import lt

import numpy as np

from . import linalg
from .quiver import DoubledRep, make_quiver
from .scalars import GaussianRational, as_complex, as_exact, require_int, scalar_key

Marking = tuple


@dataclass(frozen=True)
class OrbitSpec:
    """Jordan data: (eigenvalue, sorted block sizes) pairs summing to n."""

    n: int
    eigenvalues: tuple  # ((value, (b1 >= b2 >= ...)), ...)
    marking_override: Marking | None = None

    def __post_init__(self):
        total = sum(sum(blocks) for _, blocks in self.eigenvalues)
        if total != self.n:
            raise ValueError(f"block sizes sum to {total}, expected n={self.n}")
        evs = self.eigenvalues
        keys = [scalar_key(v) for v, _ in evs]
        if not all(map(lt, keys, keys[1:])):  # else already sorted and distinct
            order = sorted(range(len(evs)), key=keys.__getitem__)
            if any(keys[a] == keys[b] for a, b in zip(order, order[1:])):
                raise ValueError("repeated eigenvalue in orbit data")
            object.__setattr__(self, "eigenvalues", tuple(evs[i] for i in order))
        if self.marking_override is not None:
            _validate_marking(self, self.marking_override)

    @property
    def exact(self) -> bool:
        return isinstance(self.eigenvalues[0][0], GaussianRational)

    def to_float(self, name: str) -> "OrbitSpec":
        """Same orbit with complex eigenvalues and marking.  Two distinct
        exact eigenvalues that round to the same double have no float
        orbit: the error names the orbit (`name`) and both values."""
        if not self.exact:
            return self
        evs, first = [], {}
        for v, blocks in self.eigenvalues:
            z = as_complex(v)
            if z in first:
                raise ValueError(f"{name}: eigenvalues {first[z]} and {v} round to the "
                                 "same double, so the orbit has no float form")
            first[z] = v
            evs.append((z, blocks))
        marking = self.marking_override
        return OrbitSpec(self.n, tuple(evs), tuple(map(as_complex, marking)) if marking else None)


def make_orbit_spec(n: int, eigenvalues, marking=None) -> OrbitSpec:
    evs = []
    for value, blocks in eigenvalues:
        blocks = sorted((require_int(b, "a Jordan block size", 1) for b in blocks), reverse=True)
        if not blocks:
            raise ValueError(f"eigenvalue {value} has no Jordan block")
        evs.append((value, tuple(blocks)))
    return OrbitSpec(n, tuple(evs), tuple(marking) if marking is not None else None)


def _indices(spec: OrbitSpec, marking: Marking) -> list:
    """Each marking entry's eigenvalue index, None outside the spectrum."""
    values = [v for v, _ in spec.eigenvalues]
    return [next((i for i, v in enumerate(values) if v is m or v == m), None) for m in marking]


def _greedy_indices(spec: OrbitSpec) -> list:
    """The greedy marking as eigenvalue indices, by one sort: each
    eigenvalue's drops shrink with its level, so the sort is the greedy merge."""
    steps = []
    for i, (_, blocks) in enumerate(spec.eigenvalues):
        active = len(blocks)  # blocks larger than `level`; sizes descend
        for level in range(blocks[0]):
            while blocks[active - 1] <= level:
                active -= 1
            steps.append((-active, i, level))
    return [i for _, i, _ in sorted(steps)]


def _validate_marking(spec: OrbitSpec, marking: Marking):
    uses = Counter(_indices(spec, marking))
    for i, (value, blocks) in enumerate(spec.eigenvalues):
        if uses[i] < blocks[0]:
            raise ValueError(f"marking lists eigenvalue {value} only {uses[i]} times, "
                             f"largest block is {blocks[0]}")


def greedy_marking(spec: OrbitSpec) -> Marking:
    """Marking of minimal length d = sum of largest block sizes.

    At each step pick the eigenvalue with the most still-active Jordan
    blocks (maximal rank drop); break ties by (Re, Im) order.
    """
    if spec.marking_override is not None:
        return spec.marking_override
    return tuple(spec.eigenvalues[i][0] for i in _greedy_indices(spec))


def minimal_marking(L: np.ndarray) -> Marking:
    """Greedy minimal marking of a concrete float matrix."""
    return greedy_marking(jordan_from_matrix(L))


def rank_sequence(spec: OrbitSpec, marking: Marking = None) -> list:
    """dim V_l for l = 1..d-1 (combinatorial, exact).

    dim V_l = sum over Jordan blocks of max(size - uses so far, 0),
    where a use is an occurrence of the block's eigenvalue among the
    first l marking entries; a use at level c removes one from every
    block larger than c.
    """
    if marking is None and spec.marking_override is None:
        order = _greedy_indices(spec)
    else:
        order = _indices(spec, spec.marking_override if marking is None else marking)
    dims, uses, d = [], [0] * len(spec.eigenvalues), spec.n
    for i in order[:-1]:
        if i is not None:
            c = uses[i]
            uses[i] = c + 1
            d -= sum(b > c for b in spec.eigenvalues[i][1])
        dims.append(d)
    return dims


def leg_dimensions(spec: OrbitSpec, marking: Marking = None) -> list:
    """Strictly positive part of the rank sequence (zero tail dropped)."""
    dims = rank_sequence(spec, marking)
    while dims and dims[-1] == 0:
        dims.pop()
    return dims


def normal_form_matrix(spec: OrbitSpec) -> np.ndarray:
    """Block-diagonal Jordan normal form realizing the spec, in its mode."""
    exact = spec.exact
    a = linalg.zeros(spec.n, spec.n, exact)
    one = GaussianRational(1) if exact else 1.0 + 0j
    pos = 0
    for v, blocks in spec.eigenvalues:
        for b in blocks:
            for i in range(b):
                a[pos + i, pos + i] = v
                if i + 1 < b:
                    a[pos + i, pos + i + 1] = one
            pos += b
    return a


def _cluster_eigenvalues(vals: np.ndarray, tol: float):
    order = sorted(range(len(vals)), key=lambda i: (vals[i].real, vals[i].imag))
    clusters = []
    for i in order:
        z = vals[i]
        for c in clusters:
            if abs(z - c[0]) <= tol:
                c[1].append(z)
                c[0] = sum(c[1]) / len(c[1])
                break
        else:
            clusters.append([z, [z]])
    return [(c[0], len(c[1])) for c in clusters]


def jordan_from_matrix(L: np.ndarray, eigenvalues=None) -> OrbitSpec:
    """Recover Jordan data from a matrix.

    Block sizes come from rank profiles of powers of (L - value), with
    the cutoff 1e-8 when the eigenvalues are supplied.  Otherwise float
    mode clusters the computed eigenvalues first.  A size-b Jordan block
    scatters them by roughly eps^(1/b), so the clustering tolerance,
    which is also the rank cutoff, starts at max(1e-8, eps^(1/n))
    relative to ||L||; distinct eigenvalues closer than that are
    ambiguous and get merged.  Exact mode needs the eigenvalues supplied
    (rational spectrum).
    """
    n = L.shape[0]
    exact = linalg.is_exact(L)
    if exact:
        if eigenvalues is None:
            raise ValueError("exact Jordan data needs the eigenvalue list supplied")
        return _jordan_pass(L, [as_exact(v) for v in eigenvalues], 1e-8)
    if eigenvalues is not None:
        return _jordan_pass(L, [complex(v) for v in eigenvalues], 1e-8)
    # eigenvalues of a size-b block scatter by ~eps^(1/b) under rounding,
    # so start at max(1e-8, eps^(1/n)) and coarsen until consistent
    scale = max(1.0, linalg.mat_norm(L))
    eigvals = np.linalg.eigvals(np.asarray(L, dtype=complex))
    tol = max(1e-8, float(np.finfo(float).eps) ** (1.0 / max(2, n)))
    last_error = None
    for _ in range(7):
        values = [v for v, _ in _cluster_eigenvalues(eigvals, tol * scale)]
        try:
            return _jordan_pass(L, values, tol)
        except ValueError as e:
            last_error = e
            tol *= 10.0
            if tol > 1e-2:
                break
    raise ValueError(f"eigenvalue clustering ambiguity: {last_error}")


def _jordan_pass(L: np.ndarray, values, detect_rtol: float) -> OrbitSpec:
    n = L.shape[0]
    exact = linalg.is_exact(L)
    spec_data = []
    total = 0
    norm = None if exact else np.linalg.norm(linalg.to_complex(L), 2)
    for value in values:
        shifted = L - value * linalg.eye(n, exact)
        ambient = None if exact else norm + abs(complex(value))
        ranks = [n] + linalg.power_rank_sequence(shifted, n, detect_rtol, scale=ambient)
        mult = n - ranks[-1]
        if mult == 0:
            raise ValueError(f"{value} is not an eigenvalue (within tolerance)")
        blocks = []
        for j in range(1, len(ranks)):
            at_least_j = ranks[j - 1] - ranks[j]
            at_least_next = ranks[j] - ranks[j + 1] if j + 1 < len(ranks) else 0
            blocks.extend([j] * (at_least_j - at_least_next))
        spec_data.append((value, blocks))
        total += mult
    if total != n:
        raise ValueError(
            f"declared eigenvalues account for dimension {total} of {n}; spectrum incomplete"
        )
    return make_orbit_spec(n, spec_data)


@dataclass
class LegRealization:
    """Concrete chain maps for a marking of a matrix orbit.

    Vertices are "0", "1", ..., with V_0 the ambient space; the arrow
    l -> l-1 carries the inclusion forward and the shifted matrix
    backward.
    """

    marking: Marking
    rep: DoubledRep


def _check_annihilation(L: np.ndarray, marking: Marking):
    n = L.shape[0]
    exact = linalg.is_exact(L)
    ident = linalg.eye(n, exact)
    prod = ident
    scale = max(1.0, linalg.mat_norm(L)) ** max(1, len(marking))
    for lam in marking:
        prod = np.dot(prod, L - lam * ident)
    if not linalg.is_zero_matrix(prod, rtol=1e-8, scale=scale):
        raise ValueError("invalid marking: the shifted product does not annihilate")


def realize_leg(L: np.ndarray, marking: Marking) -> LegRealization:
    """Build the chain of subspaces and maps for a marking of L."""
    n = L.shape[0]
    exact = linalg.is_exact(L)
    _check_annihilation(L, marking)
    ident = linalg.eye(n, exact)
    d = len(marking)
    dims = {"0": n}
    fwd, rev, arrows = {}, {}, []
    prev_basis = ident
    for l in range(1, d):
        lam = marking[l - 1]
        shifted = L - lam * ident
        image = np.dot(shifted, prev_basis)
        basis = linalg.column_space(image)
        if basis.shape[1] == 0:
            break  # zero-dimensional tail: leg ends here
        vertex, parent = str(l), str(l - 1)
        dims[vertex] = basis.shape[1]
        arrow_id = f"{vertex}>{parent}"
        arrows.append((arrow_id, vertex, parent))
        # reverse map: (L - lam) corestricted to V_l, in chain coordinates
        rev[arrow_id] = linalg.coords_in_basis(basis, image)
        # forward map: inclusion of V_l into V_{l-1}
        fwd[arrow_id] = linalg.coords_in_basis(prev_basis, basis)
        prev_basis = basis
    quiver = make_quiver(list(dims.keys()), arrows)
    rep = DoubledRep(quiver, dims, fwd, rev)
    return LegRealization(tuple(marking), rep)


def orbit_membership(R: np.ndarray, spec: OrbitSpec, rtol: float = 1e-8, scale: float = 0.0) -> bool:
    """Conjugacy-class membership via rank profiles.

    R lies in the orbit when, for every declared eigenvalue value with
    largest block b_max, rank((R - value)^j) = n - sum_b min(b, j) for
    j = 1..b_max.  Later powers need no test.  Lemma: the rank at
    j = b_max says dim ker (R - value)^b_max = m, value's multiplicity;
    the generalized eigenspaces of distinct eigenvalues form a direct sum
    and the multiplicities fill n (an OrbitSpec invariant), so each such
    kernel is the whole generalized eigenspace.  Every later rank is then
    n - m, and no undeclared eigenvalue is left.

    Float mode reads ||R||_2 and every rank at j = 1 from one stacked
    SVD of [R, R - value_1, ..., R - value_m], without singular vectors,
    at the cutoff rtol * (max(||R||_2, scale) + |value|); an eigenvalue
    with a block of size 2 or more then takes its profile up to b_max
    from `linalg.power_rank_sequence` at the same cutoff.  A semisimple
    spec costs the one SVD.  A caller that formed R by cancellation
    passes the size of the terms that cancelled as `scale`; otherwise
    round-off in a numerically zero R reads as full rank.  Exact mode
    ignores `scale`.
    """
    n = R.shape[0]
    if n != spec.n:
        raise ValueError("size mismatch")

    def expected(blocks):
        return [n - sum(min(b, j) for b in blocks) for j in range(1, blocks[0] + 1)]

    if linalg.is_exact(R):
        ident = linalg.eye(n, True)
        return all(linalg.power_rank_sequence(R - v * ident, blocks[0]) == expected(blocks)
                   for v, blocks in spec.eigenvalues)
    values = [as_complex(v) for v, _ in spec.eigenvalues]
    m = len(values)
    stack = np.empty((m + 1, n, n), dtype=complex)
    stack[:] = R
    # slice i's diagonal, through a strided view, minus value i
    stack.reshape(m + 1, n * n)[1:, :: n + 1] -= np.array(values)[:, None]
    rows = np.linalg.svd(stack, compute_uv=False).tolist()
    norm = max(rows[0][0], scale)
    # the ranks at j = 1, read off the stacked singular values
    if any(sum(x > rtol * (norm + abs(v)) for x in row) != n - len(blocks)
           for row, v, (_, blocks) in zip(rows[1:], values, spec.eigenvalues)):
        return False
    return all(
        linalg.power_rank_sequence(stack[i], blocks[0], rtol, scale=norm + abs(values[i - 1]))
        == expected(blocks)
        for i, (_, blocks) in enumerate(spec.eigenvalues, 1) if blocks[0] > 1)


def orbit_spec_to_json(spec: OrbitSpec) -> dict:
    from .serialize import scalar_to_json

    out = {
        "eigenvalues": [
            {"value": scalar_to_json(v), "blocks": list(b)} for v, b in spec.eigenvalues
        ]
    }
    if spec.marking_override is not None:
        out["marking"] = [scalar_to_json(m) for m in spec.marking_override]
    return out


def orbit_spec_from_json(data: dict, n: int, exact: bool) -> OrbitSpec:
    from .serialize import matrix_from_json, scalar_from_json

    marking = None
    if "marking" in data and "ranks" in data:
        return _spec_from_marking_ranks(data, n, exact)
    if "marking" in data:
        marking = [scalar_from_json(x, exact) for x in data["marking"]]
    if "eigenvalues" in data:
        evs = [
            (scalar_from_json(e["value"], exact), tuple(e["blocks"]))
            for e in data["eigenvalues"]
        ]
        return make_orbit_spec(n, evs, marking)
    if "matrix" in data:
        m = matrix_from_json(data["matrix"], n, n, exact)
        hints = [scalar_from_json(x, exact) for x in data.get("eigenvalue_hints", [])] or None
        spec = jordan_from_matrix(m, eigenvalues=hints)
        if marking is not None:
            spec = make_orbit_spec(n, spec.eigenvalues, marking)
        return spec
    raise ValueError("orbit spec needs 'eigenvalues', 'matrix', or 'marking'+'ranks'")


def _spec_from_marking_ranks(data: dict, n: int, exact: bool) -> OrbitSpec:
    """Rebuild Jordan data from a marking and its rank sequence."""
    from .serialize import scalar_from_json

    marking = [scalar_from_json(x, exact) for x in data["marking"]]
    ranks = [require_int(r, "a marking rank", 0) for r in data["ranks"]]
    if len(ranks) != len(marking) - 1:
        raise ValueError("rank sequence must have length d-1")
    dims = [n] + ranks + [0]
    drops = {}  # (Re, Im) -> (scalar, the rank drop at each of its uses)
    for l, lam in enumerate(marking):
        drops.setdefault(scalar_key(lam), (lam, []))[1].append(dims[l] - dims[l + 1])
    evs = []
    for lam, d in drops.values():
        # its j-th use drops the rank by its number of blocks of size >= j
        blocks = [j for j, (a, b) in enumerate(zip(d, d[1:] + [0]), 1) for _ in range(a - b)]
        if blocks:
            evs.append((lam, blocks))
    return make_orbit_spec(n, evs, marking)
