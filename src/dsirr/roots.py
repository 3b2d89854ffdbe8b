"""Root system of a loop-free quiver and the non-emptiness criterion.

The symmetrized adjacency a_ij counts arrows between i and j in either
direction; the bilinear form is (u, v) = sum_i 2 u_i v_i
- sum_{i != j} a_ij u_i v_j, the Tits form q(v) = (v, v)/2, and
delta(v) = 1 - q(v) on the same quiver.

Positive roots are recognized by the reflection algorithm: reflect at
any vertex with (v, e_i) > 0; landing on a simple root means a real
root, going negative means not a root, and a fixed vector is an
imaginary root exactly when its support is connected.

The decision procedure: the moduli space for (v, zeta) is non-empty
iff (1) v is a positive root, (2) zeta . v = 0, and (3) every
non-trivial decomposition of v into positive roots w_j with
zeta . w_j = 0 satisfies delta(v) > sum_j delta(w_j).

Conditions (2) and (3) run on integers.  zeta is read exactly (float
parameters are rejected) and multiplied once by the least common
denominator of its real and imaginary parts, so zeta . w = 0 becomes
two integer dot products.

The candidates for (3), the positive roots 0 < w <= v with
zeta . w = 0, are found by meeting in the middle.  The vertices are
split into two halves of near-equal box size; the integer zeta sums of
one half's points are tabulated, and each point of the other half looks
up the negated sum.  That takes about 2 sqrt(prod(v_i + 1)) steps plus
one per zeta-orthogonal point, where scanning the box takes
prod(v_i + 1); only the matches are tested for being roots.

Condition (3) is a dynamic programme over the zeta-orthogonal u <= v:
F(0) = 0 and F(u) = max delta(w) + F(u - w) over the candidates
w <= u, the largest total delta of a decomposition of u.  (3) fails
iff some candidate w != v has delta(w) + F(v - w) >= delta(v), and
following the maximizing parts from v - w gives the violating
decomposition.

The search budget `max_nodes` of `cb_solvable` bounds the enumeration's
work: both half boxes, checked before either is built, plus every
zeta-orthogonal point.  The DP's states are among those points, so the
budget bounds them too.  Running out gives an "undecided" verdict that
names the budget and its value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import add, mul

import numpy as np

from .quiver import Quiver
from .scalars import as_exact


class SearchCapExceeded(Exception):
    """Raised when the candidate enumeration exceeds its work budget."""


@dataclass(frozen=True)
class CartanData:
    """Symmetrized adjacency and bilinear form of a loop-free quiver."""

    vertices: tuple
    adjacency: tuple  # row-major symmetric matrix of arrow counts

    @staticmethod
    def from_quiver(quiver: Quiver) -> "CartanData":
        if not quiver.loop_free:
            raise ValueError("root-system arithmetic requires a loop-free quiver")
        idx = {v: i for i, v in enumerate(quiver.vertices)}
        m = len(quiver.vertices)
        a = [[0] * m for _ in range(m)]
        for arrow in quiver.arrows:
            i, j = idx[arrow.src], idx[arrow.dst]
            a[i][j] += 1
            a[j][i] += 1
        return CartanData(tuple(quiver.vertices), tuple(tuple(row) for row in a))

    @property
    def size(self) -> int:
        return len(self.vertices)

    def pairing(self, u, v) -> int:
        total = 0
        for i in range(self.size):
            total += 2 * u[i] * v[i]
            for j in range(self.size):
                if i != j:
                    total -= self.adjacency[i][j] * u[i] * v[j]
        return total

    def pairing_with_simple(self, v, i: int) -> int:
        return 2 * v[i] - sum(self.adjacency[i][j] * v[j] for j in range(self.size) if j != i)

    def tits_form(self, v) -> int:
        p = self.pairing(v, v)
        assert p % 2 == 0
        return p // 2

    def delta(self, v) -> int:
        return 1 - self.tits_form(v)

    def vec(self, dims: dict):
        return tuple(int(dims[v]) for v in self.vertices)

    def support_connected(self, v) -> bool:
        supp = [i for i in range(self.size) if v[i] != 0]
        if not supp:
            return False
        seen = {supp[0]}
        stack = [supp[0]]
        while stack:
            i = stack.pop()
            for j in supp:
                if j not in seen and self.adjacency[i][j] > 0:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == len(supp)


def is_positive_root(cartan: CartanData, v) -> bool:
    """Reflection test for membership among positive roots."""
    v = tuple(int(x) for x in v)
    if any(x < 0 for x in v) or all(x == 0 for x in v):
        return False
    while True:
        if sum(v) == 1:
            return True  # simple root
        moved = False
        for i in range(cartan.size):
            p = cartan.pairing_with_simple(v, i)
            if p > 0:
                w = list(v)
                w[i] -= p
                if w[i] < 0:
                    return False
                v = tuple(w)
                moved = True
                break
        if not moved:
            # fixed configuration: imaginary root iff support connected
            return cartan.support_connected(v)


def _integer_zeta(cartan: CartanData, zeta):
    """zeta times the least common denominator of all its coordinates.

    Returns the real and the imaginary parts as two integer tuples in
    vertex order; zeta . w = 0 iff both integer dot products vanish.
    Float parameters are rejected.
    """
    values = [as_exact(zeta[u]) for u in cartan.vertices]
    lcd = math.lcm(*(x.denominator for z in values for x in (z.re, z.im)))
    return (
        tuple(int(z.re * lcd) for z in values),
        tuple(int(z.im * lcd) for z in values),
    )


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _halves(v):
    """Two sets of vertex indices whose boxes have near-equal sizes."""
    halves, sizes = ([], []), [1, 1]
    for i in sorted(range(len(v)), key=lambda i: -v[i]):
        h = 0 if sizes[0] <= sizes[1] else 1
        halves[h].append(i)
        sizes[h] *= v[i] + 1
    return halves, sizes


def _half_box(v, half, zr, zi):
    """Points of the box of v that vanish off `half`, with their zeta sums."""
    ranges = [range(x + 1) if i in half else (0,) for i, x in enumerate(v)]
    for w in itertools.product(*ranges):
        yield w, _dot(zr, w), _dot(zi, w)


def summand_candidates(cartan: CartanData, v, zeta, cap: int = 2_000_000):
    """All positive roots w with 0 < w <= v componentwise and zeta.w = 0.

    Meets in the middle: one half box's integer zeta sums are tabulated
    and each point of the other half looks up the negated sum.  The
    work (both half boxes plus every zeta-orthogonal match) may not
    exceed `cap`; the half boxes are checked before either is built.
    The parameter test is exact; float parameters are rejected.  The
    result is sorted lexicographically.
    """
    v = tuple(int(x) for x in v)
    zr, zi = _integer_zeta(cartan, zeta)
    (head, tail), sizes = _halves(v)
    work = sum(sizes)
    if work > cap:
        raise SearchCapExceeded(
            f"enumeration budget of {cap} exhausted: the half boxes alone hold {work} points")
    table = {}
    for w, re, im in _half_box(v, head, zr, zi):
        table.setdefault((re, im), []).append(w)
    out = []
    for wt, re, im in _half_box(v, tail, zr, zi):
        heads = table.get((-re, -im), ())
        work += len(heads)
        if work > cap:
            raise SearchCapExceeded(f"enumeration budget of {cap} exhausted")
        for wh in heads:
            w = tuple(map(add, wh, wt))
            if any(w) and is_positive_root(cartan, w):
                out.append(w)
    out.sort()
    return out


@dataclass
class Verdict:
    """Outcome of the non-emptiness decision."""

    nonempty: bool | None  # None means undecided
    failed_condition: int | None = None
    witness: list | None = None  # violating decomposition for condition 3
    delta: int | None = None
    dim: int | None = None
    detail: str = ""
    nodes: int = 0  # states of the condition-3 DP evaluated, v included
    candidates: int = 0  # zeta-orthogonal positive roots w <= v

    @property
    def undecided(self) -> bool:
        return self.nonempty is None


def _violating_decomposition(cartan: CartanData, v, cands):
    """Parts of a decomposition of v with >= 2 parts and sum delta >= delta(v).

    Returns (parts or None, states evaluated).  F(u), the largest total
    delta of a decomposition of u into candidates (None if u has none),
    is memoized by u's lexicographic rank in the box of v, so that
    rank(u - w) = rank(u) - rank(w).  Every decomposition of u has a part
    w with w_i > 0 at u's first non-zero coordinate i, so only those
    parts are tried.
    """
    m = len(v)
    strides = [1] * m
    for i in range(m - 2, -1, -1):
        strides[i] = strides[i + 1] * (v[i + 1] + 1)
    # one array per coordinate: the w <= u test is m vector comparisons
    cols = np.array(cands, dtype=np.min_scalar_type(max(v))).reshape(len(cands), m).T.copy()
    rank = [_dot(w, strides) for w in cands]
    deltas = [cartan.delta(w) for w in cands]
    best = {0: 0}  # rank(u) -> F(u); F(0) = 0 counts as v's own state
    choice = {}  # rank(u) -> the candidate the maximum picks first

    def parts(r):
        u = [r // s % (x + 1) for s, x in zip(strides, v)]
        mask = cols[next(i for i, x in enumerate(u) if x)] > 0
        for col, x, top in zip(cols, u, v):
            if x < top:  # every candidate has w_i <= v_i
                mask &= col <= x
        return np.flatnonzero(mask).tolist()

    def solve(root):
        stack, tried = [root], {}
        while stack:
            r = stack[-1]
            if r in best:
                stack.pop()
                continue
            if r not in tried:
                tried[r] = parts(r)
                todo = [r - rank[c] for c in tried[r] if r - rank[c] not in best]
                if todo:
                    stack.extend(todo)
                    continue
            f, pick = None, None
            for c in tried.pop(r):
                g = best[r - rank[c]]
                if g is not None and (f is None or deltas[c] + g > f):
                    f, pick = deltas[c] + g, c
            best[r], choice[r] = f, pick
            stack.pop()

    top = _dot(v, strides)
    for c in reversed(parts(top)):
        rest = top - rank[c]
        if rest == 0:
            continue  # w = v, the trivial decomposition
        solve(rest)
        if best[rest] is not None and deltas[c] + best[rest] >= cartan.delta(v):
            witness = [cands[c]]
            while rest:
                witness.append(cands[choice[rest]])
                rest -= rank[choice[rest]]
            return witness, len(best)
    return None, len(best)


def cb_solvable(cartan: CartanData, v, zeta, max_nodes: int = 200_000) -> Verdict:
    """Decide non-emptiness for (v, zeta) on a loop-free quiver.

    On failure the verdict names the violated condition; a condition-3
    failure carries a violating decomposition.  `max_nodes` bounds the
    candidate enumeration's work, and with it the DP's states; running
    out yields an honest "undecided" that names the budget.
    """
    v = tuple(int(x) for x in v)
    dv = cartan.delta(v)
    if not is_positive_root(cartan, v):
        return Verdict(False, failed_condition=1, delta=dv, detail="v is not a positive root")
    zr, zi = _integer_zeta(cartan, zeta)
    if _dot(zr, v) or _dot(zi, v):
        return Verdict(False, failed_condition=2, delta=dv, detail="zeta . v != 0")

    try:
        cands = summand_candidates(cartan, v, zeta, cap=max_nodes)
    except SearchCapExceeded as e:
        return Verdict(None, delta=dv, detail=str(e))
    witness, states = _violating_decomposition(cartan, v, cands)
    if witness is not None:
        return Verdict(
            False,
            failed_condition=3,
            witness=[list(w) for w in witness],
            delta=dv,
            detail="a decomposition violates the strict dimension inequality",
            nodes=states,
            candidates=len(cands),
        )
    return Verdict(True, delta=dv, dim=2 * dv, nodes=states, candidates=len(cands))
