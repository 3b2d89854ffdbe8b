"""Root system of a loop-free quiver and the non-emptiness criterion.

The arrows between i and j in either direction count a_ij, kept as the
pairs (j, a_ij) with a_ij > 0 at each vertex i; the bilinear form is
(u, v) = sum_i 2 u_i v_i - sum_{i != j} a_ij u_i v_j, the Tits form
q(v) = (v, v)/2, and delta(v) = 1 - q(v) on the same quiver.

Positive roots are recognized by the reflection algorithm: reflect at
a vertex with (v, e_i) > 0; landing on a simple root means a real root,
going negative means not a root, and a fixed vector is an imaginary
root exactly when its support is connected.  `is_positive_root` runs
it on Python integers; a reflection updates its neighbours' pairings.

The decision procedure: the moduli space for (v, zeta) is non-empty
iff (1) v is a positive root, (2) zeta . v = 0, and (3) every
non-trivial decomposition of v into positive roots w_j with
zeta . w_j = 0 satisfies delta(v) > sum_j delta(w_j).

Conditions (2) and (3) run on integers.  zeta is read exactly (float
parameters are rejected) and multiplied once by the least common
denominator of its real and imaginary parts, so zeta . w = 0 becomes
two integer dot products.

The candidates for (3), the positive roots 0 < w <= v with
zeta . w = 0, are found by meeting in the middle (`summand_candidates`)
in about 2 sqrt(prod(v_i + 1)) steps, where scanning the box takes
prod(v_i + 1).  Condition (3) is then a dynamic programme over the
zeta-orthogonal u <= v: F(0) = 0 and F(u) = max delta(w) + F(u - w)
over the candidates w <= u.  (3) fails iff some candidate w != v has
delta(w) + F(v - w) >= delta(v), and following the maximizing parts
from v - w gives the violating decomposition.  Where zeta vanishes on
the support of v, (3) is membership in Crawley-Boevey's Sigma_0, which
`_zero_zeta_verdict` decides in closed form, with neither.

The budget `max_nodes` of `cb_solvable` bounds, each on its own, the
reflection steps of each root test, the search's work (the closed
form's isotropic-root boxes, or both half boxes plus every
zeta-orthogonal point), each part checked before it is built, and the
DP's part checks, the parts it tries summed over its states.  Running
out gives an "undecided" verdict that names the budget and its value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import le, mul, sub

import numpy as np

from .quiver import Quiver
from .scalars import integerize


class SearchCapExceeded(Exception):
    """Raised when the candidate enumeration exceeds its work budget."""


@dataclass(frozen=True)
class CartanData:
    """Symmetrized arrow counts and bilinear form of a loop-free quiver."""

    vertices: tuple
    neighbours: tuple  # entry i: the pairs (j, a_ij) with a_ij > 0, by j

    @staticmethod
    def from_quiver(quiver: Quiver) -> "CartanData":
        if not quiver.loop_free:
            raise ValueError("root-system arithmetic requires a loop-free quiver")
        idx = {v: i for i, v in enumerate(quiver.vertices)}
        counts = [{} for _ in quiver.vertices]
        for arrow in quiver.arrows:
            i, j = idx[arrow.src], idx[arrow.dst]
            counts[i][j] = counts[i].get(j, 0) + 1
            counts[j][i] = counts[j].get(i, 0) + 1
        return CartanData(tuple(quiver.vertices), tuple(tuple(sorted(c.items())) for c in counts))

    @property
    def size(self) -> int:
        return len(self.vertices)

    def block(self, rows, cols) -> np.ndarray:
        """The block rows x cols of the Cartan matrix C = 2I - A in int64: (u, v) = u C v."""
        rows = [(i, dict(self.neighbours[i])) for i in rows]
        flat = [2 * (i == j) - a.get(j, 0) for i, a in rows for j in cols]
        return np.array(flat, dtype=np.int64).reshape(len(rows), len(cols))

    def reach(self, supp: set, i: int) -> set:
        """The vertices of `supp` joined to i by arrows inside `supp`."""
        seen, stack = {i}, [i]
        while stack:
            step = {j for j, _ in self.neighbours[stack.pop()] if j in supp and j not in seen}
            seen |= step
            stack.extend(step)
        return seen

    def connected(self, w) -> bool:
        """Whether the support of w, the i with w_i != 0, is non-empty and connected."""
        supp = {i for i, x in enumerate(w) if x}
        return bool(supp) and self.reach(supp, min(supp)) == supp

    @cached_property
    def colour_class(self) -> tuple:
        """Entry i lists the vertices of i's class in a greedy proper
        colouring, a set of pairwise non-adjacent vertices."""
        colour, classes = [], {}
        for i, row in enumerate(self.neighbours):
            used = {colour[j] for j, _ in row if j < i}
            colour.append(next(k for k in itertools.count() if k not in used))
            classes.setdefault(colour[i], []).append(i)
        classes = {c: tuple(js) for c, js in classes.items()}  # one tuple shared by a class
        return tuple(classes[c] for c in colour)

    def pairings(self, v) -> list:
        """The pairings (v, e_i) = 2 v_i - sum_j a_ij v_j, in vertex order."""
        return [2 * x - sum([a * v[j] for j, a in row]) for x, row in zip(v, self.neighbours)]

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
            return cartan.connected(w)
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
                for k, a in cartan.neighbours[j]:
                    p[k] += a * d
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
    # the parts the DP runs on, which bound the count of w <= v in
    # Sigma_zeta; like `nodes`, 0 where zeta vanishes on supp v
    candidates: int = 0

    @property
    def undecided(self) -> bool:
        return self.nonempty is None


def _violating_decomposition(cartan: CartanData, v, dv: int, cands, budget: int):
    """Parts of a decomposition of v with >= 2 parts and sum delta >= dv = delta(v).

    Returns (parts or None, states evaluated).  F(u), the largest total
    delta of a decomposition of u into candidates, is memoized by u; a u
    with none gets `none`, low enough that no part lifts it to 0.  Every
    decomposition of u has a part w with w_i > 0 at u's first non-zero
    coordinate i, so u tries the w <= u among the candidates led by i,
    in candidate order, each charged to `budget`; a DP that needs more
    raises `SearchCapExceeded`.
    """
    wc = np.array(cands, dtype=np.int64).reshape(len(cands), len(v))
    i, j, a = np.array([(i, j, a) for i, row in enumerate(cartan.neighbours) for j, a in row
                        if i < j], dtype=np.int64).reshape(-1, 3).T  # the arrow ends
    deltas = (1 - (wc * wc).sum(1) + (wc[:, i] * wc[:, j] * a).sum(1)).tolist()
    none = -1 - max(deltas, default=0)
    lead = [[] for _ in v]  # lead[i]: (index, w) of the candidates led by i
    for c, w in enumerate(cands):
        lead[next(i for i, x in enumerate(w) if x)].append((c, w))
    best = {(0,) * len(v): 0}  # u -> F(u); F(0) = 0 counts as v's own state
    choice = {}  # u -> (the candidate the maximum picks first, u minus it)
    checks = 0

    def parts(u):
        """(c, u - w) for the parts w of u, in candidate order."""
        nonlocal checks
        i = next(i for i, x in enumerate(u) if x)
        out = [(c, tuple(map(sub, u, w))) for c, w in lead[i] if all(map(le, w, u))]
        checks += len(out)
        if checks > budget:
            raise SearchCapExceeded(f"enumeration budget of {budget} exhausted: "
                                    "the condition-3 DP needs more part checks")
        return out

    def solve(root):
        stack, tried = [root], {}
        while stack:
            u = stack[-1]
            if u in best:
                stack.pop()
                continue
            cs = tried.pop(u, None)
            if cs is None:
                cs = parts(u)
            f, pick, todo = -1, None, []
            for c, k in cs:
                g = best.get(k)
                if g is None:
                    todo.append(k)
                elif deltas[c] + g > f:
                    f, pick = deltas[c] + g, (c, k)
            if todo:
                tried[u] = cs
                stack.extend(todo)
                continue
            best[u], choice[u] = f if pick is not None else none, pick
            stack.pop()

    for c, rest in reversed(parts(tuple(v))):
        if not any(rest):
            continue  # w = v, the trivial decomposition
        solve(rest)
        if best[rest] >= 0 and deltas[c] + best[rest] >= dv:
            witness = [cands[c]]
            while any(rest):
                c, rest = choice[rest]
                witness.append(cands[c])
            return witness, len(best)
    return None, len(best)


VIOLATED = "a decomposition violates the strict dimension inequality"
HOLDS = "no decomposition violates the strict dimension inequality"


def _split(v, w, dv: int, why: str) -> Verdict:
    """The condition-3 failure whose witness is the two parts [v - w, w]."""
    return Verdict(False, failed_condition=3, witness=[[x - y for x, y in zip(v, w)], list(w)],
                   delta=dv, detail=f"{VIOLATED}: {why}")


def _zero_zeta_verdict(cartan: CartanData, v, dv: int, budget: int) -> Verdict:
    """Condition (3) for a positive root v on whose support zeta vanishes,
    that is v in Crawley-Boevey's Sigma_0, decided in this order:

    1. v simple: (3) holds.
    2. (v, e_i) > 0 at some i: v - e_i is a positive root (the e_i-string
       through v is unbroken) and delta(v - e_i) + delta(e_i) = delta(v)
       + (v, e_i) - 1, so [v - e_i, e_i] violates (3).  Otherwise v lies
       in Kac's fundamental set F.
    3. delta(v) = 1: v = m gamma, m = gcd(v), gamma isotropic.  (3) holds
       iff m = 1; else [(m - 1) gamma, gamma] violates it.
    4. delta(v) >= 2.  A split [v - w, w] into positive roots violates
       (3) iff (v - w, w) >= -1, as delta(v - w) + delta(w) - delta(v) =
       1 + (v - w, w).  By Crawley-Boevey (*Geometry of the moment map
       for representations of quivers*, Compositio Math. 126 (2001), Thm
       8.1), (3) fails iff one with (v - w, w) = -1 exists where
       a. w is an isotropic root gamma with (v, gamma) = -1, or
       b. v - w and w are v on the two sides of the one arrow joining
          them, with v = 1 at both its ends.

    In 4a, (v, gamma) = sum_i gamma_i (v, e_i) with no term positive, so
    gamma_j = 1 at one j with (v, e_j) = -1 and gamma lies otherwise on
    Z, the i in supp v with (v, e_i) = 0.  For each such j the box of Z
    is charged to `budget` before it is walked; its points with q(gamma)
    = 1 + q(z) + (z, e_j) = 0 come from one Cartan product, in
    lexicographic order, and only they get root tests.  4b walks, for
    each single arrow i - j with v_i = v_j = 1, the side of i in supp v
    less j, and the arrow is a bridge iff (v - w, w) = -1.  The `detail`
    names the branch after the condition-3 sentence.
    """
    if sum(v) == 1:
        return Verdict(True, delta=dv, dim=0, detail=f"{HOLDS}: v is a simple root")
    p = cartan.pairings(v)
    i = next((i for i, x in enumerate(p) if x > 0), None)
    if i is not None:
        e = [int(k == i) for k in range(len(v))]
        return _split(v, e, dv, f"v lies outside the fundamental set, "
                                f"(v, e_i) = {p[i]} > 0 at vertex {cartan.vertices[i]}")
    if dv == 1:
        m = math.gcd(*v)
        if m == 1:
            return Verdict(True, delta=dv, dim=2, detail=f"{HOLDS}: v is an indivisible "
                                                         "isotropic root")
        return _split(v, [x // m for x in v], dv, f"v is {m} times an isotropic root")
    zero = [i for i, x in enumerate(v) if x and not p[i]]
    box, work, zs = math.prod(v[i] + 1 for i in zero), 0, None
    # with Z empty, gamma = e_j is a real root
    for j in [j for j, x in enumerate(v) if x and p[j] == -1] if zero else ():
        work += box
        if work > budget:
            raise SearchCapExceeded(f"enumeration budget of {budget} exhausted: the "
                                    f"isotropic-root search's boxes reach {work} points")
        if zs is None:  # the box of Z in lexicographic order, with q(z)
            zs = np.indices([v[i] + 1 for i in zero], dtype=np.int64).reshape(len(zero), -1).T
            qz = ((zs @ cartan.block(zero, zero)) * zs).sum(1) // 2
        for r in np.flatnonzero(qz + zs @ cartan.block([j], zero)[0] == -1).tolist():
            gamma = [int(k == j) for k in range(len(v))]
            for i, x in zip(zero, zs[r].tolist()):
                gamma[i] = x
            if is_positive_root(cartan, gamma, budget) and is_positive_root(
                    cartan, [x - y for x, y in zip(v, gamma)], budget):
                return _split(v, gamma, dv, "v - gamma is a positive root for an isotropic "
                                            "root gamma with (v, gamma) = -1")
    supp = {i for i, x in enumerate(v) if x}
    for i, j in [(i, j) for i, x in enumerate(v) if x == 1
                 for j, a in cartan.neighbours[i] if j > i and a == 1 and v[j] == 1]:
        side = cartan.reach(supp - {j}, i)
        u = [x * (k in side) for k, x in enumerate(v)]
        w = [x - y for x, y in zip(v, u)]
        if cartan.pairing(u, w) == -1 and is_positive_root(cartan, u, budget) and \
                is_positive_root(cartan, w, budget):
            return _split(v, w, dv, f"the arrow between vertices {cartan.vertices[i]} and "
                                    f"{cartan.vertices[j]}, with v = 1 at both ends, is the only "
                                    "one joining two positive roots")
    return Verdict(True, delta=dv, dim=2 * dv, detail=f"{HOLDS}: v lies in the fundamental "
                   "set with q(v) < 0, no isotropic root gamma with (v, gamma) = -1 leaves "
                   "a positive root v - gamma, and no arrow with v = 1 at both ends is the "
                   "only one joining two positive roots")


def cb_solvable(cartan: CartanData, v, zeta, max_nodes: int = 200_000) -> Verdict:
    """Decide non-emptiness for (v, zeta) on a loop-free quiver.

    On failure the verdict names the violated condition; a condition-3
    failure carries a violating decomposition, from `_zero_zeta_verdict`
    where zeta vanishes on the support of v and from the DP on
    `summand_candidates` elsewhere.  Running out of `max_nodes`, which
    must be at least 1, yields an honest "undecided" that names it.
    `zeta` is as in `summand_candidates`.
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
        if not any(x and (zr[i] or zi[i]) for i, x in enumerate(v)):
            return _zero_zeta_verdict(cartan, v, dv, max_nodes)
        cands = summand_candidates(cartan, v, (zr, zi), cap=max_nodes)
        witness, states = _violating_decomposition(cartan, v, dv, cands, budget=max_nodes)
    except SearchCapExceeded as e:
        return Verdict(None, delta=dv, detail=str(e))
    if witness is not None:
        return Verdict(
            False,
            failed_condition=3,
            witness=[list(w) for w in witness],
            delta=dv,
            detail=VIOLATED,
            nodes=states,
            candidates=len(cands),
        )
    return Verdict(True, delta=dv, dim=2 * dv, nodes=states, candidates=len(cands))
