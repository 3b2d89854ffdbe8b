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

A marking's chain is one walk, `linalg.product_chain`: step l factors
A - l_l on V_{l-1} through V_l, and the two factors are the leg's maps
along arrow l -> l-1, the inclusion forward and (A - l_l) corestricted
to V_l backward; the product of the pair at the top plus l_1 recovers
A.  The widths of the walk are the ranks of the partial products:
realize_leg reads the marking check off the last one and returns the
leg's maps as a DoubledRep, and _rank_profiles, behind orbit_membership
and _jordan_pass, reads the profiles of powers at each eigenvalue.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field, replace
from operator import lt

import numpy as np

from . import linalg
from .quiver import DoubledRep, make_quiver
from .scalars import GaussianRational, as_complex, as_double, as_exact, require_int, scalar_key
from .serialize import SchemaError, matrix_from_json, require, scalar_from_json, scalar_to_json

Marking = tuple


@dataclass(frozen=True)
class OrbitSpec:
    """Jordan data: (eigenvalue, sorted block sizes) pairs summing to n."""

    n: int
    eigenvalues: tuple  # ((value, (b1 >= b2 >= ...)), ...)
    marking_override: Marking | None = None
    # how far the values' weighted sum may lie from the trace of the float
    # matrix they were read from alone, n eps max(1, ||L||_2); else 0
    trace_error: float = field(default=0.0, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"an orbit needs size n >= 1, got {self.n}")
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
            z = as_double(v, f"{name}: eigenvalue")
            if z in first:
                raise ValueError(f"{name}: eigenvalues {first[z]} and {v} round to the "
                                 "same double, so the orbit has no float form")
            first[z] = v
            evs.append((z, blocks))
        marking = self.marking_override
        if marking:
            marking = tuple(as_double(x, f"{name}: marking entry") for x in marking)
        return OrbitSpec(self.n, tuple(evs), marking or None)


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
            return replace(_jordan_pass(L, values, tol),
                           trace_error=n * float(np.finfo(float).eps) * scale)
        except ValueError as e:
            last_error = e
            tol *= 10.0
            if tol > 1e-2:
                break
    raise ValueError(f"eigenvalue clustering ambiguity: {last_error}")


def _blocks_from_drops(drops) -> list:
    """Jordan block sizes, ascending: drops[j - 1] counts the blocks of
    size >= j, so drops[j - 1] - drops[j] of them have size exactly j."""
    drops = list(drops) + [0]
    return [j for j in range(1, len(drops)) for _ in range(drops[j - 1] - drops[j])]


def _jordan_pass(L: np.ndarray, values, detect_rtol: float) -> OrbitSpec:
    """Jordan data at `values`, read off rank profiles of depth n."""
    n = L.shape[0]
    spec_data = []
    total = 0
    (_, profiles), = _rank_profiles([(L, [[v] * n for v in values], 0.0)], detect_rtol)
    for value, ranks in zip(values, profiles):
        ranks = [n] + ranks
        mult = n - ranks[-1]
        if mult == 0:
            raise ValueError(f"{value} is not an eigenvalue (within tolerance)")
        blocks = _blocks_from_drops([a - b for a, b in zip(ranks, ranks[1:])])
        spec_data.append((value, blocks))
        total += mult
    if total != n:
        raise ValueError(
            f"declared eigenvalues account for dimension {total} of {n}; spectrum incomplete"
        )
    return make_orbit_spec(n, spec_data)


def _rank_profiles(items, rtol: float) -> list:
    """For each (R, chains, scale) in `items`: the norm max(||R||_2, scale),
    None in exact mode, and for each list of shifts in `chains` the ranks
    of (R - s_1)...(R - s_j) for j = 1..len(shifts): b copies of a value
    give its rank profile up to depth b, and a marking annihilates R just
    when its last rank is 0.

    Float mode reads every ||R||_2, and the rank of every one-shift chain,
    from one SVD without singular vectors per matrix size: the stack of
    [R, R - s_1, ...] over every item of that size.  Longer chains read
    the widths of `linalg.product_chain`.  A singular value counts above
    rtol * (max(||R||_2, scale) + |s_j|).  A caller that formed R by
    cancellation passes the size of the terms that cancelled as `scale`;
    otherwise round-off in a numerically zero R reads as full rank.  Float
    ranks are read on R `linalg.unit_scaled`, shifts and scale alike.  A
    float R with an infinite or NaN entry gets (inf, None) and no SVD,
    read off one `np.isfinite` per size.  Exact mode ranks exactly and
    ignores `rtol` and `scale`.
    """
    out, by_size = [None] * len(items), {}
    for i, (R, chains, _) in enumerate(items):
        if linalg.is_exact(R):
            out[i] = None, [_widths(linalg.product_chain(R, shifts)) for shifts in chains]
        else:
            by_size.setdefault(R.shape[0], []).append(i)
    for n, where in by_size.items():
        mats = np.array([items[i][0] for i in where], dtype=complex)
        finite = np.isfinite(mats).all(axis=(1, 2))
        if not finite.all():
            for i in np.compress(~finite, where).tolist():
                out[i] = np.inf, None
            where, mats = np.compress(finite, where).tolist(), mats[finite]
            if not where:
                continue
        mats, units = linalg.unit_scaled(mats)
        # per item: 0, then the first shift of each one-shift chain, scaled alike
        shifts = [[0j] + [linalg.ldexp(as_complex(s[0]), -e) for s in items[i][1] if len(s) == 1]
                  for i, e in zip(where, units.tolist())]
        stack = np.repeat(mats, [len(s) for s in shifts], axis=0)
        # slice k's diagonal, through a strided view, minus shift k
        stack.reshape(len(stack), n * n)[:, :: n + 1] -= np.concatenate(shifts)[:, None]
        rows = iter(np.linalg.svd(stack, compute_uv=False).tolist())
        for i, firsts, R, e in zip(where, shifts, mats, units.tolist()):
            _, chains, scale = items[i]
            norm = max(next(rows)[0], linalg.ldexp(scale, -e))
            profiles, one_shift = [], iter(firsts[1:])
            for chain in chains:
                if len(chain) == 1:
                    cutoff = rtol * (norm + abs(next(one_shift)))
                    profiles.append([sum(x > cutoff for x in next(rows))])
                else:
                    chain = [linalg.ldexp(as_complex(s), -e) for s in chain]
                    profiles.append(_widths(linalg.product_chain(R, chain, rtol, norm)))
            out[i] = float(linalg.ldexp(norm, e)), profiles
    return out


def _widths(steps) -> list:
    """The ranks of a `linalg.product_chain` walk."""
    return [f.shape[1] for f, _ in steps]


def realize_leg(L: np.ndarray, marking: Marking) -> DoubledRep:
    """The chain of subspaces and maps for a marking of L, from one
    `linalg.product_chain` walk: vertices "0", "1", ..., with V_0 the
    ambient space, and arrow l -> l-1 carrying f_l forward and r_l
    backward, for each step before the first of width 0.

    The marking must annihilate L: the walk's last width is 0, read at
    rtol 1e-8 with ||L||_2 floored at 1 (the walk's default), since a
    zero exponent block formed by cancellation is only numerically zero.
    """
    steps = linalg.product_chain(L, marking, 1e-8)
    if not steps or steps[-1][0].shape[1] > 0:
        raise ValueError("invalid marking: the shifted product does not annihilate")
    dims = {"0": L.shape[0]}
    fwd, rev, arrows = {}, {}, []
    for l, (f, r) in enumerate(steps, 1):
        if f.shape[1] == 0:
            break  # zero-dimensional tail: leg ends here
        vertex, parent = str(l), str(l - 1)
        dims[vertex] = f.shape[1]
        arrow_id = f"{vertex}>{parent}"
        arrows.append((arrow_id, vertex, parent))
        fwd[arrow_id], rev[arrow_id] = f, r
    return DoubledRep(make_quiver(list(dims.keys()), arrows), dims, fwd, rev)


def orbit_membership(R, spec, rtol: float = 1e-8, scale=0.0):
    """Conjugacy-class membership via rank profiles (`_rank_profiles`,
    whose docstring gives the cutoff and the use of `scale`).

    R lies in the orbit when, for every declared eigenvalue value with
    largest block b_max, rank((R - value)^j) = n - sum_b min(b, j) for
    j = 1..b_max.  Later powers need no test.  Lemma: the rank at
    j = b_max says dim ker (R - value)^b_max = m, value's multiplicity;
    the generalized eigenspaces of distinct eigenvalues form a direct sum
    and the multiplicities fill n (an OrbitSpec invariant), so each such
    kernel is the whole generalized eigenspace.  Every later rank is then
    n - m, and no undeclared eigenvalue is left.

    In float mode two declared values lambda, mu with |lambda - mu| <=
    rtol * (max(||R||_2, scale) + max(|lambda|, |mu|)) answer False: at
    that distance their kernels are one numerical kernel read twice.  A
    float R with an infinite or NaN entry is in no orbit.

    Given equal-length sequences of matrices, specs and scales, it
    answers for each in a list, and all the float matrices of one size
    share one SVD: a semisimple spec adds its one-shift profiles to it
    and nothing else.  One matrix and one OrbitSpec give one bool.
    """
    if isinstance(spec, OrbitSpec):
        return orbit_membership([R], [spec], rtol, [scale])[0]
    if any(m.shape[0] != s.n for m, s in zip(R, spec)):
        raise ValueError("size mismatch")
    items = [(m, [[v] * b[0] for v, b in s.eigenvalues], c)
             for m, s, c in zip(R, spec, scale, strict=True)]
    answers = []
    for s, (norm, profiles) in zip(spec, _rank_profiles(items, rtol)):
        if profiles is None:  # a non-finite matrix
            answers.append(False)
            continue
        values = [] if norm is None else [as_complex(v) for v, _ in s.eigenvalues]
        apart = not any(abs(a - b) <= rtol * (norm + max(abs(a), abs(b)))
                        for a, b in itertools.combinations(values, 2))
        answers.append(apart and all(p == [s.n - sum(min(b, j) for b in blocks)
                                           for j in range(1, blocks[0] + 1)]
                                     for p, (_, blocks) in zip(profiles, s.eigenvalues)))
    return answers


def orbit_spec_to_json(spec: OrbitSpec) -> dict:
    out = {
        "eigenvalues": [
            {"value": scalar_to_json(v), "blocks": list(b)} for v, b in spec.eigenvalues
        ]
    }
    if spec.marking_override is not None:
        out["marking"] = [scalar_to_json(m) for m in spec.marking_override]
    return out


def orbit_spec_from_json(data: dict, n: int, exact: bool, path: str = "") -> OrbitSpec:
    marking = require(data, "marking", path, list, None)
    if marking is not None:
        marking = [scalar_from_json(x, exact) for x in marking]
        if "ranks" in data:
            return _spec_from_marking_ranks(marking, require(data, "ranks", path, list), n,
                                            f"{path}/ranks")
    if "eigenvalues" in data:
        evs = []
        for i, e in enumerate(require(data, "eigenvalues", path, list)):
            at = f"{path}/eigenvalues/{i}"
            value = scalar_from_json(require(e, "value", at), exact)
            evs.append((value, require(e, "blocks", at, list)))
        return make_orbit_spec(n, evs, marking)
    if "matrix" in data:
        m = matrix_from_json(require(data, "matrix", path), n, n, exact, f"{path}/matrix")
        hints = [scalar_from_json(x, exact)
                 for x in require(data, "eigenvalue_hints", path, list, [])]
        spec = jordan_from_matrix(m, eigenvalues=hints or None)
        return spec if marking is None else replace(spec, marking_override=tuple(marking))
    raise SchemaError(f"orbit at {path or '/'} needs 'eigenvalues', 'matrix' or 'marking'+'ranks'")


def _spec_from_marking_ranks(marking: list, ranks: list, n: int, path: str) -> OrbitSpec:
    """Rebuild Jordan data from a marking and its rank sequence, read at `path`."""
    ranks = [require_int(r, "a marking rank", 0) for r in ranks]
    if len(ranks) != len(marking) - 1:
        raise ValueError(f"rank sequence at {path} must have length d-1 = {len(marking) - 1}")
    dims = [n] + ranks + [0]
    drops = {}  # (Re, Im) -> (scalar, the rank drop at each of its uses)
    for l, lam in enumerate(marking):
        drops.setdefault(scalar_key(lam), (lam, []))[1].append(dims[l] - dims[l + 1])
    evs = []
    for lam, d in drops.values():
        blocks = _blocks_from_drops(d)  # its j-th use drops the rank by d[j - 1]
        if blocks:
            evs.append((lam, blocks))
    return make_orbit_spec(n, evs, marking)
