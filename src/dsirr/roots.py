"""Root system of a loop-free quiver and the non-emptiness criterion.

The symmetrized adjacency a_ij counts arrows between i and j in either
direction; the bilinear form is (u, v) = sum_i 2 u_i v_i
- sum_{i != j} a_ij u_i v_j, the Tits form q(v) = (v, v)/2, and
delta(v) = 1 - q(v) on the same quiver.

Positive roots are recognized by the reflection algorithm: reflect at
a vertex with (v, e_i) > 0; landing on a simple root means a real root,
going negative means not a root, and a fixed vector is an imaginary
root exactly when its support is connected.  `is_positive_root` runs
it on one vector of Python integers.

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
as one broadcast; each non-zero match gets its own root test.  At
zeta = 0 every box point is a match, in a single block.

Most candidates are never needed as a part.  If zeta_i = 0, w != e_i
and (w, e_i) >= 1, then w - e_i is a zeta-orthogonal positive root and
delta(e_i) + delta(w - e_i) >= delta(w), so w can be split without
lowering a decomposition's delta-sum.  `indispensable_candidates`
applies this where zeta vanishes on the support of v: it skips the
enumeration and keeps the simple roots plus Kac's fundamental set, the
box points with connected support and no positive pairing, which are
imaginary roots, so one product over the box replaces the root test.
Elsewhere the DP runs on every enumerated candidate.

Condition (3) is a dynamic programme over the zeta-orthogonal u <= v:
F(0) = 0 and F(u) = max delta(w) + F(u - w) over the kept candidates
w <= u, the largest total delta of a decomposition of u.  (3) fails
iff some kept candidate w != v has delta(w) + F(v - w) >= delta(v), and
following the maximizing parts from v - w gives the violating
decomposition.

The search budget `max_nodes` of `cb_solvable` bounds three counts,
each on its own: the reflection steps of condition (1); the
enumeration's work, which at zeta = 0 on the support of v is the box of
v, checked before it is built, and otherwise both half boxes, checked
before either is built, plus every zeta-orthogonal point, each block
checked before it is built; and the DP's part checks, the parts it
tries summed over the states it evaluates, which is where its time
goes.  Running out gives an "undecided" verdict that names the budget
and its value.
"""

from __future__ import annotations

import itertools
import math
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
    def colour_class(self) -> tuple:
        """Entry i lists the vertices of i's class in a greedy proper
        colouring, a set of pairwise non-adjacent vertices."""
        colour = []
        for i, row in enumerate(self.adjacency):
            used = {colour[j] for j in range(i) if row[j]}
            colour.append(next(k for k in itertools.count() if k not in used))
        return tuple(tuple(j for j, c in enumerate(colour) if c == ci) for ci in colour)

    def pairings(self, v) -> list:
        """The pairings (v, e_i) = 2 v_i - sum_j a_ij v_j, in vertex order."""
        return [2 * x - _dot(row, v) for x, row in zip(v, self.adjacency)]

    def pairing(self, u, v) -> int:
        return _dot(u, self.pairings(v))

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


def is_positive_root(cartan: CartanData, v, max_steps: int | None = None) -> bool:
    """Whether v is a positive root, by the reflection walk on Python integers.

    Each step reflects w at every vertex j with positive pairing
    d_j = (w, e_j) in the colour class of its first largest pairing:
    w_j falls by d_j, (w, e_j) turns to -d_j, and each neighbour's
    pairing rises by a_jk d_j.  Vertices of a class are non-adjacent, so
    these reflections commute and act as one after the other.  A
    positive root that is not simple stays one under each of them, so w
    goes negative only if it is no root, and becomes a simple root only
    between steps.  A w that no reflection moves is an imaginary root
    exactly when its support is connected.

    A real root takes about as many steps as its height.  With
    `max_steps` set, a w still undecided after that many steps raises
    `SearchCapExceeded`.
    """
    w = [int(x) for x in v]
    if not any(w) or min(w) < 0:
        return False
    p = cartan.pairings(w)
    for steps in itertools.count():
        if sum(w) == 1:
            return True
        top = max(p)
        if top <= 0:
            if min(w) > 0:
                return cartan.connected
            return bool(_support_connected(cartan, np.array([[x > 0 for x in w]]))[0])
        if max_steps is not None and steps >= max_steps:
            raise SearchCapExceeded(
                f"enumeration budget of {max_steps} exhausted: the root test needs more "
                "reflection steps")
        for j in cartan.colour_class[p.index(top)]:
            d = p[j]
            if d > 0:
                w[j] -= d
                if w[j] < 0:
                    return False
                p = [x + a * d for x, a in zip(p, cartan.adjacency[j])]
                p[j] = -d


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


def indispensable_candidates(cartan: CartanData, v, zeta, cap: int = 2_000_000):
    """The parts condition (3) needs: the zeta-orthogonal positive roots
    0 < w <= v, without those the lemma below splits where zeta
    vanishes on the support of v.

    If zeta_i = 0, w != e_i and (w, e_i) >= 1, then w - e_i is a
    zeta-orthogonal positive root (the e_i-string through w is unbroken)
    and delta(e_i) + delta(w - e_i) = delta(w) + (w, e_i) - 1 >= delta(w),
    so any decomposition using w does as well with e_i and w - e_i in its
    place.  Splitting parts so, by induction on height, turns every
    decomposition into one of the kept parts, the simple roots and the w
    with (w, e_i) <= 0 at every zero vertex i, with no lower delta-sum
    and no fewer parts; so the DP on the kept parts reaches the same
    verdict.

    Where zeta vanishes on the support of v, every box point is
    zeta-orthogonal, and the kept set is the simple roots plus Kac's
    fundamental set: the w <= v with connected support and (w, e_i) <= 0
    at every vertex, all of them imaginary roots (Kac, *Infinite
    dimensional Lie algebras*, 5.3), so no reflection walk is needed.
    The box of v is charged to `cap` before it is built and is read
    with one Cartan product, in lexicographic order.  Otherwise this is
    `summand_candidates`, unfiltered.  `zeta` is as there.
    """
    v = tuple(int(x) for x in v)
    zr, zi = zeta if isinstance(zeta, tuple) else _integer_zeta(cartan, zeta)
    if any(x and (zr[i] or zi[i]) for i, x in enumerate(v)):
        return summand_candidates(cartan, v, (zr, zi), cap)
    if math.prod(x + 1 for x in v) > cap:
        raise SearchCapExceeded(f"enumeration budget of {cap} exhausted")
    # the box in lexicographic order: row r is the point of rank r
    w = np.indices([x + 1 for x in v], dtype=np.int64).reshape(len(v), -1).T
    keep = ((w @ cartan.matrix) <= 0).all(1)
    keep[0] = False  # w = 0
    fund = np.flatnonzero(keep)
    keep[fund] = _support_connected(cartan, w[fund] > 0)
    keep |= w.sum(1) == 1
    return list(map(tuple, w[keep].tolist()))


def summand_candidates(cartan: CartanData, v, zeta, cap: int = 2_000_000):
    """All positive roots w with 0 < w <= v componentwise and zeta.w = 0.

    Meets in the middle: one half box is tabulated by its integer zeta
    sums, and the other half's points are grouped by the negated sum.
    Each sum found in both gives a block of matches, every head plus
    every tail, and `is_positive_root` tests each non-zero match.  The
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
    matches = map(tuple, np.concatenate(blocks)[1:].tolist())
    return sorted(w for w in matches if is_positive_root(cartan, w))


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
    # the parts the DP runs on (`indispensable_candidates`); they include
    # every w <= v in Sigma_zeta, the roots all of whose proper
    # decompositions have a smaller delta-sum, so this bounds that count
    candidates: int = 0

    @property
    def undecided(self) -> bool:
        return self.nonempty is None


def _bits(mask: np.ndarray) -> int:
    """The boolean array `mask` as a Python int whose big-endian bytes are
    `np.packbits(mask)`, so that `np.unpackbits` of those bytes gives
    `mask` back, zero-padded to whole bytes."""
    return int.from_bytes(np.packbits(mask).tobytes(), "big")


def _violating_decomposition(cartan: CartanData, v, dv: int, cands, budget: int):
    """Parts of a decomposition of v with >= 2 parts and sum delta >= dv = delta(v).

    Returns (parts or None, states evaluated).  F(u), the largest total
    delta of a decomposition of u into candidates, is memoized by u's
    lexicographic rank in the box of v, so that rank(u - w) = rank(u) -
    rank(w); every candidate has delta >= 0, and a u with no
    decomposition gets F(u) = `none`, low enough that no part lifts it
    to 0.  Every decomposition of u has a part w with w_i > 0 at u's
    first non-zero coordinate i, so only those parts are tried.

    The parts of u are found on Python-int bitsets over the candidate
    indices (`_bits`), each built on first use: lead[i] holds the
    candidates whose first non-zero coordinate is i, and below[j][x]
    those with w_j <= x, for x < v_j.  One pass over u's digits, from the
    last coordinate up, ANDs below[j][u_j] for every u_j < v_j until the
    rest of the rank is 0, which happens at the lead coordinate i; the
    state then ANDs lead[i] and reads the set bits back in ascending
    order with one numpy unpack.  The pass over its parts that looks up
    each F(u - w) also takes the maximum, so a state whose u - w are all
    known is done in it; otherwise it keeps its parts, pushes the
    unknown u - w, and makes the same pass again once they are known.

    Each state's parts are charged to `budget`; a DP that needs more
    raises `SearchCapExceeded`.
    """
    m, n = len(v), len(cands)
    strides = [1] * m
    for i in range(m - 2, -1, -1):
        strides[i] = strides[i + 1] * (v[i + 1] + 1)
    wc = np.array(cands, dtype=np.int64).reshape(n, m)
    # every rank is below prod(v + 1): int64 where that fits, exact ints past it
    box = strides[0] * (v[0] + 1)
    rank = (wc @ np.array(strides, dtype=np.int64 if box <= 2**63 else object)).tolist()
    # delta(w) = 1 - (w, w) / 2 for all candidates from one product W C
    deltas = [1 - q // 2 for q in ((wc @ cartan.matrix) * wc).sum(1).tolist()]
    none = -1 - max(deltas, default=0)
    nbytes = (n + 7) // 8
    lead = [None] * m
    below = [[None] * x for x in v]
    digits = [(j, v[j] + 1, v[j], below[j]) for j in reversed(range(m))]
    best = {0: 0}  # rank(u) -> F(u); F(0) = 0 counts as v's own state
    choice = {}  # rank(u) -> the candidate the maximum picks first
    checks = 0

    def parts(r):
        nonlocal checks
        mask = -1  # every bit set
        for j, radix, vj, le in digits:
            x = r % radix
            r //= radix
            if x < vj:  # every candidate has w_j <= v_j
                b = le[x]
                if b is None:
                    b = le[x] = _bits(wc[:, j] <= x)
                mask &= b
            if not r:  # j is u's first non-zero coordinate
                break
        b = lead[j]
        if b is None:
            b = lead[j] = _bits((wc[:, :j] == 0).all(1) & (wc[:, j] > 0))
        bits = np.frombuffer((mask & b).to_bytes(nbytes, "big"), np.uint8)
        out = np.unpackbits(bits).view(bool).nonzero()[0].tolist()
        checks += len(out)
        if checks > budget:
            raise SearchCapExceeded(f"enumeration budget of {budget} exhausted: "
                                    "the condition-3 DP needs more part checks")
        return out

    def solve(root):
        stack, tried = [root], {}
        while stack:
            r = stack[-1]
            if r in best:
                stack.pop()
                continue
            cs = tried.pop(r, None)
            if cs is None:
                cs = parts(r)
            f, pick, todo = -1, None, []
            for c in cs:
                k = r - rank[c]
                g = best.get(k)
                if g is None:
                    todo.append(k)
                elif deltas[c] + g > f:
                    f, pick = deltas[c] + g, c
            if todo:
                tried[r] = cs
                stack.extend(todo)
                continue
            best[r], choice[r] = f if pick is not None else none, pick
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
    failure carries a violating decomposition, found by the DP on
    `indispensable_candidates`.  `max_nodes` bounds, each on its own, the
    reflection steps of condition 1's root test, the candidate
    enumeration's work (the box of v where zeta vanishes on its support)
    and the DP's part checks (the parts tried, summed over its states);
    running out of any yields an honest "undecided" that names the
    budget, which must be at least 1.  `zeta` is as in
    `summand_candidates`.
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
        cands = indispensable_candidates(cartan, v, (zr, zi), cap=max_nodes)
        witness, states = _violating_decomposition(cartan, v, dv, cands, budget=max_nodes)
    except SearchCapExceeded as e:
        return Verdict(None, delta=dv, detail=str(e))
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
