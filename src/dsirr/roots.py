"""Root system of a loop-free quiver and the non-emptiness criterion.

The symmetrized adjacency a_ij counts arrows between i and j in either
direction; the bilinear form is (u, v) = sum_i 2 u_i v_i
- sum_{i != j} a_ij u_i v_j, the Tits form q(v) = (v, v)/2, and
delta(v) = 1 - q(v) on the same quiver.

Positive roots are recognized by the reflection algorithm: reflect at
a vertex with (v, e_i) > 0; landing on a simple root means a real root,
going negative means not a root, and a fixed vector is an imaginary
root exactly when its support is connected.  `positive_root_mask` runs
it on a whole integer array of vectors at once.  The pairings P = W C
with the int64 Cartan matrix C = 2I - A are computed once, and each step
reflects every row at the vertices of one colour class (pairwise
non-adjacent, so the reflections commute) and updates P by the matching
rows of C.  A fixed row with full support reads the cached
connectedness of the quiver; only other fixed rows need a reachability
pass.  `is_positive_root` is the same test on one vector.

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
one half's points are tabulated, and the other half's points are
grouped by the negated sum.  That takes about 2 sqrt(prod(v_i + 1))
steps, where scanning the box takes prod(v_i + 1).  Each sum found in
both halves gives a block of matches, every head plus every tail, built
as one broadcast; one batched root test covers all blocks.  At
zeta = 0 every box point is a match, in a single block.

Condition (3) is a dynamic programme over the zeta-orthogonal u <= v:
F(0) = 0 and F(u) = max delta(w) + F(u - w) over the candidates
w <= u, the largest total delta of a decomposition of u.  (3) fails
iff some candidate w != v has delta(w) + F(v - w) >= delta(v), and
following the maximizing parts from v - w gives the violating
decomposition.

The search budget `max_nodes` of `cb_solvable` bounds the reflection
steps of condition (1), and the enumeration's work: both half boxes,
checked before either is built, plus every zeta-orthogonal point, each
block checked before it is built.  The DP's states are among those
points, so the budget bounds them too.  Running out gives an
"undecided" verdict that names the budget and its value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import mul

import numpy as np

from .quiver import Quiver
from .scalars import integerize


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

    @cached_property
    def matrix(self) -> np.ndarray:
        """The Cartan matrix C = 2I - A in int64, so that (u, v) = u C v."""
        flat = [2 * (i == j) - a for i, row in enumerate(self.adjacency) for j, a in enumerate(row)]
        return np.array(flat, dtype=np.int64).reshape(self.size, self.size)

    @cached_property
    def int64_bound(self) -> int:
        """Largest coordinate for which a vector's sum and pairings, and
        those of every reflection of it, fit int64."""
        return 2**62 // (3 + max(map(sum, self.adjacency), default=0) + self.size)

    @cached_property
    def connected(self) -> bool:
        """Whether the whole quiver is connected."""
        seen, stack = {0}, [0]
        while stack:
            i = stack.pop()
            for j, a in enumerate(self.adjacency[i]):
                if a and j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == self.size

    @cached_property
    def same_colour(self) -> np.ndarray:
        """(m, m) booleans; row i marks the vertices of i's class in a
        greedy proper colouring, a set of pairwise non-adjacent vertices."""
        colour = []
        for i, row in enumerate(self.adjacency):
            used = {colour[j] for j in range(i) if row[j]}
            colour.append(next(k for k in itertools.count() if k not in used))
        colour = np.array(colour)
        return colour[:, None] == colour[None, :]

    def pairing(self, u, v) -> int:
        return sum(x * (2 * v[i] - _dot(self.adjacency[i], v)) for i, x in enumerate(u) if x)

    def tits_form(self, v) -> int:
        p = self.pairing(v, v)
        assert p % 2 == 0
        return p // 2

    def delta(self, v) -> int:
        return 1 - self.tits_form(v)

    def vec(self, dims: dict):
        return tuple(int(dims[v]) for v in self.vertices)


def _support_connected(cartan: CartanData, supp: np.ndarray) -> np.ndarray:
    """For each non-empty boolean row of `supp`, whether that vertex set is
    connected: rows with full support read `cartan.connected`, and one
    reachability pass serves the others."""
    out = np.full(len(supp), cartan.connected)
    part = ~supp.all(1)
    if not np.count_nonzero(part):
        return out
    supp = supp[part]
    adj = cartan.matrix < 0
    reach = np.zeros_like(supp)
    reach[np.arange(len(supp)), supp.argmax(1)] = True
    while True:
        grown = supp & (reach | reach @ adj)
        if (grown == reach).all():
            out[part] = (reach == supp).all(1)
            return out
        reach = grown


def positive_root_mask(cartan: CartanData, w: np.ndarray, max_steps: int | None = None) -> np.ndarray:
    """Reflection test of every row of the (n, m) integer array `w` at once.

    The pairings P = W C are computed once.  A row with full support and
    no positive pairing is fixed by every reflection, so it is an
    imaginary root exactly when the quiver is connected; when all rows
    are such, that one product and the cached flag decide them.

    Otherwise each step reflects a row at every vertex with positive
    pairing in the colour class of its largest pairing, lowering w_j by
    (w, e_j) and P by that multiple of row j of C.  Vertices of a class
    are non-adjacent, so these reflections commute and leave each
    other's pairings alone: together they act as one after the other.
    A positive root that is not simple stays one under each of them, so
    a row goes negative only if it is no root, and becomes a simple root
    (a root) only between steps.  A row that no reflection moves is an
    imaginary root exactly when its support is connected.

    Reflections only lower coordinates, so int64 holds every step
    whenever it holds the first pairings of the non-negative rows; other
    input runs on Python integers.

    A real root takes about as many steps as its height.  With
    `max_steps` set, a row still undecided after that many steps raises
    `SearchCapExceeded`.
    """
    c = cartan.matrix
    if w.dtype == object or w.size and w.max() > cartan.int64_bound:
        w, c = w.astype(object), c.astype(object)
    p = w @ c
    if w.size and w.min() > 0 and p.max() <= 0:
        return np.full(len(w), cartan.connected)
    out = np.zeros(len(w), dtype=bool)
    idx = np.flatnonzero((w >= 0).all(1) & w.any(1))
    w, p = w[idx], p[idx]  # copies, so the reflections leave the input alone
    steps = 0
    while len(idx):
        pos = p > 0
        simple = w.sum(1) == 1
        fixed = ~pos.any(1)
        done = simple | fixed
        if np.count_nonzero(done):
            out[idx[simple]] = True
            if np.count_nonzero(fixed):
                out[idx[fixed]] = _support_connected(cartan, w[fixed] > 0)
            go = ~done
            idx, w, p, pos = idx[go], w[go], p[go], pos[go]
        if max_steps is not None and steps >= max_steps and len(idx):
            raise SearchCapExceeded(
                f"enumeration budget of {max_steps} exhausted: the root test needs more "
                "reflection steps")
        steps += 1
        # d_j = (w, e_j) at the positive vertices j of one colour class
        d = p * (cartan.same_colour[p.argmax(1)] & pos)
        w -= d
        p -= d @ c
        neg = (w < 0).any(1)
        if np.count_nonzero(neg):
            go = ~neg
            idx, w, p = idx[go], w[go], p[go]
    return out


def is_positive_root(cartan: CartanData, v, max_steps: int | None = None) -> bool:
    """Whether v is a positive root: `positive_root_mask` on one row."""
    small = max(map(abs, v), default=0) <= cartan.int64_bound
    w = np.array([v], dtype=np.int64 if small else object)
    return bool(positive_root_mask(cartan, w, max_steps)[0])


def _integer_zeta(cartan: CartanData, zeta):
    """The integer real and imaginary parts of zeta in vertex order, from
    `integerize`; zeta . w = 0 iff both integer dot products vanish."""
    return integerize(zeta[u] for u in cartan.vertices)[1:]


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
    """Points of the box of v restricted to the vertices `half`, as tuples
    in the order of `half`, with their integer zeta sums."""
    zr = [zr[i] for i in half]
    zi = [zi[i] for i in half] if any(zi) else None
    for w in itertools.product(*(range(v[i] + 1) for i in half)):
        yield w, sum(map(mul, zr, w)), sum(map(mul, zi, w)) if zi else 0


def summand_candidates(cartan: CartanData, v, zeta, cap: int = 2_000_000):
    """All positive roots w with 0 < w <= v componentwise and zeta.w = 0.

    Meets in the middle: one half box is tabulated by its integer zeta
    sums, and the other half's points are grouped by the negated sum.
    Each sum found in both gives a block of matches, every head plus
    every tail, and one `positive_root_mask` call tests all blocks.  The
    work (both half boxes plus every match) may not exceed `cap`; the
    half boxes are checked before either is built, and each block
    before it is built.  `zeta` maps vertices to exact scalars (float
    parameters are rejected) or is the integer pair `_integer_zeta`
    returns.  The result is sorted lexicographically.
    """
    v = tuple(int(x) for x in v)
    zr, zi = zeta if isinstance(zeta, tuple) else _integer_zeta(cartan, zeta)
    (head, tail), sizes = _halves(v)
    work = sum(sizes)
    if work > cap:
        raise SearchCapExceeded(
            f"enumeration budget of {cap} exhausted: the half boxes alone hold {work} points")
    table = {}
    for w, re, im in _half_box(v, head, zr, zi):
        table.setdefault((re, im), []).append(w)
    tails = {}
    for w, re, im in _half_box(v, tail, zr, zi):
        key = (-re, -im)
        if key in table:
            tails.setdefault(key, []).append(w)
    blocks = []
    for key, wt in tails.items():
        wh = table[key]
        work += len(wh) * len(wt)
        if work > cap:
            raise SearchCapExceeded(f"enumeration budget of {cap} exhausted")
        block = np.zeros((len(wh), len(wt), len(v)), dtype=np.int64)
        block[:, :, head] = np.array(wh, dtype=np.int64).reshape(len(wh), 1, len(head))
        block[:, :, tail] = np.array(wt, dtype=np.int64).reshape(1, len(wt), len(tail))
        blocks.append(block.reshape(-1, len(v)))
    # both half boxes start at 0, so the first row is 0 + 0: drop it
    w = np.concatenate(blocks)[1:]
    w = w[positive_root_mask(cartan, w)]
    return list(map(tuple, w[np.lexsort(w.T[::-1])].tolist()))


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


def _bits(mask: np.ndarray) -> int:
    """The boolean array `mask` as a Python int with bit c set iff mask[c]."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _violating_decomposition(cartan: CartanData, v, dv: int, cands):
    """Parts of a decomposition of v with >= 2 parts and sum delta >= dv = delta(v).

    Returns (parts or None, states evaluated).  F(u), the largest total
    delta of a decomposition of u into candidates (-1 if u has none;
    every candidate has delta >= 0), is memoized by u's lexicographic
    rank in the box of v, so that rank(u - w) = rank(u) - rank(w).
    Every decomposition of u has a part w with w_i > 0 at u's first
    non-zero coordinate i, so only those parts are tried.

    The parts of u are found on Python-int bitsets over the candidate
    indices, each built on first use: lead[i] holds the candidates with
    w_i > 0 and below[i][x] those with w_i <= x, for x < v_i.  A state
    ANDs lead[i] with below[j][u_j] for every u_j < v_j and reads the
    set bits back in ascending order.
    """
    m = len(v)
    strides = [1] * m
    for i in range(m - 2, -1, -1):
        strides[i] = strides[i + 1] * (v[i + 1] + 1)
    wc = np.array(cands, dtype=np.int64).reshape(len(cands), m)
    rank = [_dot(w, strides) for w in cands]
    # delta(w) = 1 - (w, w) / 2 for all candidates from one product W C
    deltas = [1 - q // 2 for q in ((wc @ cartan.matrix) * wc).sum(1).tolist()]
    nbytes = (len(cands) + 7) // 8
    lead = [None] * m
    below = [[None] * x for x in v]
    best = {0: 0}  # rank(u) -> F(u); F(0) = 0 counts as v's own state
    choice = {}  # rank(u) -> the candidate the maximum picks first

    def parts(r):
        u = [r // s % (x + 1) for s, x in zip(strides, v)]
        i = next(i for i, x in enumerate(u) if x)
        mask = lead[i]
        if mask is None:
            mask = lead[i] = _bits(wc[:, i] > 0)
        for j, x in enumerate(u):
            if x < v[j]:  # every candidate has w_j <= v_j
                b = below[j][x]
                if b is None:
                    b = below[j][x] = _bits(wc[:, j] <= x)
                mask &= b
        bits = np.frombuffer(mask.to_bytes(nbytes, "little"), np.uint8)
        return np.unpackbits(bits, bitorder="little").view(bool).nonzero()[0].tolist()

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
            f, pick = -1, None
            for c in tried.pop(r):
                g = best[r - rank[c]]
                if g >= 0 and deltas[c] + g > f:
                    f, pick = deltas[c] + g, c
            best[r], choice[r] = f, pick
            stack.pop()

    top = _dot(v, strides)
    for c in reversed(parts(top)):
        rest = top - rank[c]
        if rest == 0:
            continue  # w = v, the trivial decomposition
        solve(rest)
        if best[rest] >= 0 and deltas[c] + best[rest] >= dv:
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
    reflection steps of condition 1's root test, and the candidate
    enumeration's work and with it the DP's states; running out of
    either yields an honest "undecided" that names the budget, which
    must be at least 1.  `zeta` is as in `summand_candidates`.
    """
    if max_nodes < 1:
        raise ValueError(f"search budget max_nodes must be at least 1, got {max_nodes}")
    v = tuple(int(x) for x in v)
    dv = cartan.delta(v)
    try:
        if not is_positive_root(cartan, v, max_steps=max_nodes):
            return Verdict(False, failed_condition=1, delta=dv, detail="v is not a positive root")
        zr, zi = zeta if isinstance(zeta, tuple) else _integer_zeta(cartan, zeta)
        if _dot(zr, v) or _dot(zi, v):
            return Verdict(False, failed_condition=2, delta=dv, detail="zeta . v != 0")
        cands = summand_candidates(cartan, v, (zr, zi), cap=max_nodes)
    except SearchCapExceeded as e:
        return Verdict(None, delta=dv, detail=str(e))
    witness, states = _violating_decomposition(cartan, v, dv, cands)
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
