"""Reference implementations that the tests compare the package against.

These are the straightforward algorithms the package used before it
moved to faster ones: the reflection test for positive roots one
vector and one vertex at a time, a scan of the whole box with exact
Q(i) arithmetic for the zeta-orthogonal positive roots, a depth-first
search over multisets for condition (3) of the criterion, the
condition-3 DP with each state's parts found by a numpy mask over every
candidate, the ranks of every power of a matrix without stopping once
they settle,
the triple-sum conjugation term of a gauge transform, the float density
test of irreducibility and the graded invariant closure of a quiver
representation (both on a float Gram-Schmidt span), the realizer's
damped Gauss-Newton step solved as a real system of twice the size, and
the trace identity's two sides folded term by term in Q(i) arithmetic,
the scalar parser that built each part with ``Fraction(str)``, and the
orbit bookkeeping that found each eigenvalue by its hashed or compared
(Re, Im) key: the step-by-step greedy marking, the rank sequence and
the expected rank of a power.
The last few helpers are small constructions only the tests need: an
exact matrix literal, the infinitesimal coadjoint action, the
dT-stabilizer test, the matrix a leg realization reproduces and the
benchmark's instance ladder.
"""

from __future__ import annotations

import importlib.util
import itertools
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from dsirr import linalg
from dsirr.jets import ConnectionJet, PrincipalPart, jet_inv, pp_left_mul, pp_right_mul
from dsirr.roots import SearchCapExceeded, Verdict
from dsirr.scalars import GaussianRational, as_exact, scalar_key


def reflection_end(cartan, v):
    """Where the scalar reflection loop leaves v, and the vector it stops at.

    It reflects at the first vertex i with (v, e_i) > 0 until v is a
    simple root ("simple"), a coordinate goes negative ("negative"), or
    no pairing is positive ("fixed").  Zero and vectors with a negative
    coordinate end at once as "not positive".
    """
    v = tuple(int(x) for x in v)
    if any(x < 0 for x in v) or not any(v):
        return "not positive", v
    m = cartan.size
    while sum(v) != 1:
        for i in range(m):
            p = 2 * v[i] - sum(cartan.adjacency[i][j] * v[j] for j in range(m))
            if p > 0:
                w = list(v)
                w[i] -= p
                v = tuple(w)
                if v[i] < 0:
                    return "negative", v
                break
        else:
            return "fixed", v
    return "simple", v


def support_connected(cartan, v) -> bool:
    """Whether the vertices where v is non-zero form a connected set."""
    supp = [i for i, x in enumerate(v) if x]
    seen, stack = {supp[0]}, [supp[0]]
    while stack:
        i = stack.pop()
        for j in supp:
            if j not in seen and cartan.adjacency[i][j]:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(supp)


def reflection_is_positive_root(cartan, v) -> bool:
    """Positive roots by the reflection loop: a simple root is reached, or a
    fixed vector has connected support (an imaginary root)."""
    end, u = reflection_end(cartan, v)
    return end == "simple" or end == "fixed" and support_connected(cartan, u)


def _zeta_dot(zeta_vec, w) -> GaussianRational:
    total = GaussianRational(0)
    for z, c in zip(zeta_vec, w):
        if c:
            total = total + z * c
    return total


def brute_candidates(cartan, v, zeta):
    """Positive roots 0 < w <= v with zeta.w = 0, by scanning the box."""
    v = tuple(int(x) for x in v)
    zeta_vec = tuple(as_exact(zeta[u]) for u in cartan.vertices)
    out = []
    for w in itertools.product(*(range(x + 1) for x in v)):
        if any(w) and not _zeta_dot(zeta_vec, w) and reflection_is_positive_root(cartan, w):
            out.append(w)
    return sorted(out)


def dfs_solvable(cartan, v, zeta, max_nodes: int = 200_000) -> Verdict:
    """The criterion with condition (3) decided by a DFS over multisets."""
    v = tuple(int(x) for x in v)
    dv = cartan.delta(v)
    if not reflection_is_positive_root(cartan, v):
        return Verdict(False, failed_condition=1, delta=dv)
    zeta_vec = tuple(as_exact(zeta[u]) for u in cartan.vertices)
    if _zeta_dot(zeta_vec, v):
        return Verdict(False, failed_condition=2, delta=dv)
    # non-increasing order canonicalizes multisets during the search
    cands = sorted(brute_candidates(cartan, v, zeta), reverse=True)
    deltas = [cartan.delta(w) for w in cands]
    nodes = 0

    def dfs(start, rem, picked, picked_delta):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise SearchCapExceeded(f"decomposition search exceeded {max_nodes} nodes")
        if not any(rem):
            if len(picked) >= 2 and not (dv > picked_delta):
                return list(picked)
            return None
        for idx in range(start, len(cands)):
            nxt = tuple(r - x for r, x in zip(rem, cands[idx]))
            if any(x < 0 for x in nxt):
                continue
            picked.append(cands[idx])
            hit = dfs(idx, nxt, picked, picked_delta + deltas[idx])
            picked.pop()
            if hit is not None:
                return hit
        return None

    try:
        witness = dfs(0, v, [], 0)
    except SearchCapExceeded:
        return Verdict(None, delta=dv, nodes=nodes)
    if witness is not None:
        return Verdict(False, failed_condition=3, witness=[list(w) for w in witness],
                       delta=dv, nodes=nodes)
    return Verdict(True, delta=dv, dim=2 * dv, nodes=nodes)


def mask_violating_decomposition(cartan, v, dv: int, cands):
    """The condition-3 DP of `roots._violating_decomposition`, with the
    parts of each state found by a numpy mask over every candidate.

    Returns (parts or None, states evaluated).  F(u) is memoized by u's
    lexicographic rank in the box of v; only candidates w with w_i > 0
    at u's first non-zero coordinate i are tried, and w <= u is tested
    as one vector comparison per coordinate.
    """
    m = len(v)
    strides = [1] * m
    for i in range(m - 2, -1, -1):
        strides[i] = strides[i + 1] * (v[i + 1] + 1)
    wc = np.array(cands, dtype=np.int64).reshape(len(cands), m)
    cols = np.ascontiguousarray(wc.T, dtype=np.min_scalar_type(max(v)))
    rank = [sum(a * b for a, b in zip(w, strides)) for w in cands]
    deltas = [1 - q // 2 for q in ((wc @ cartan.matrix) * wc).sum(1).tolist()]
    best = {0: 0}
    choice = {}

    def parts(r):
        u = [r // s % (x + 1) for s, x in zip(strides, v)]
        mask = cols[next(i for i, x in enumerate(u) if x)] > 0
        for col, x, top in zip(cols, u, v):
            if x < top:
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

    top = sum(a * b for a, b in zip(v, strides))
    for c in reversed(parts(top)):
        rest = top - rank[c]
        if rest == 0:
            continue
        solve(rest)
        if best[rest] is not None and deltas[c] + best[rest] >= dv:
            witness = [cands[c]]
            while rest:
                witness.append(cands[choice[rest]])
                rest -= rank[choice[rest]]
            return witness, len(best)
    return None, len(best)


def power_ranks_every_step(a, jmax, rtol=linalg.RANK_RTOL, scale=None) -> list:
    """Ranks of a^j for j = 1..jmax, one rank computation per power.

    Exact mode ranks every explicit power; float mode ranks a applied to
    an orthonormal basis of range(a^{j-1}), with cutoff rtol * scale.
    """
    if linalg.is_exact(a):
        power, ranks = a, []
        for _ in range(jmax):
            ranks.append(linalg.rank(power))
            power = np.dot(power, a)
        return ranks
    af = np.asarray(a, dtype=complex)
    scale = np.linalg.norm(af, 2) if scale is None else max(scale, 0.0)
    basis, ranks = np.eye(a.shape[0], dtype=complex), []
    for _ in range(jmax):
        if basis.shape[1] == 0 or scale == 0.0:
            ranks.append(0)
            continue
        u, s, _ = np.linalg.svd(af @ basis, full_matrices=False)
        basis = u[:, : int(np.sum(s > rtol * scale))]
        ranks.append(basis.shape[1])
    return ranks


def gauge_triple_sum(g, a) -> ConnectionJet:
    """g[A] = g A g^{-1} + dg g^{-1}, conjugation term as sum g_i A_j h_l."""
    out_depth = min(a.depth, g.k - 1)
    n, exact = a.n, a.exact
    h = jet_inv(g)
    out = []
    for s in range(out_depth + 1):
        acc = linalg.zeros(n, n, exact)
        for i in range(0, s + 1):
            for l in range(0, s - i + 1):
                j = s - i - l
                acc = acc + np.dot(np.dot(g.coeffs[i], a.coeffs[j]), h.coeffs[l])
        m = s - a.k
        if m >= 0:
            for i in range(1, m + 2):
                l = m + 1 - i
                if i < g.k and l < g.k:
                    acc = acc + np.dot(g.coeffs[i] * i, h.coeffs[l])
        out.append(acc)
    return ConnectionJet(n, a.k, tuple(out))


class FloatSpan:
    """Incremental orthonormal basis of a subspace of C^d (vectors are
    rows), built by modified Gram-Schmidt: a vector enlarges the span when
    what is left of it after two projection passes is longer than rtol
    times its own length."""

    def __init__(self, dim: int, rtol: float = linalg.RANK_RTOL):
        self.dim = dim
        self.rtol = rtol
        self.rows: list[np.ndarray] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec: np.ndarray) -> bool:
        """Add a vector; returns True when it enlarged the span."""
        v = np.asarray(vec.reshape(-1), dtype=complex)
        orig = np.linalg.norm(v)
        if orig == 0.0:
            return False
        for _ in range(2):  # the second pass stabilizes near-dependent vectors
            for row in self.rows:
                v = v - np.vdot(row, v) * row
        nrm = np.linalg.norm(v)
        if nrm <= self.rtol * orig:
            return False
        self.rows.append(v / nrm)
        return True

    def matrix(self) -> np.ndarray:
        out = np.zeros((len(self.rows), self.dim), dtype=complex)
        for i, row in enumerate(self.rows):
            out[i, :] = row
        return out


def invariant_closure(rep, seeds: dict) -> dict:
    """Smallest graded invariant subspace of a float representation
    containing the seed vectors.

    seeds maps vertex ids to matrices whose columns are seed vectors
    (missing vertices mean no seeds there).  Returns vertex -> basis
    matrix (columns).
    """
    spans = {v: FloatSpan(rep.dims[v]) for v in rep.quiver.vertices}
    queue = []
    for v, mat in seeds.items():
        for j in range(mat.shape[1]):
            if spans[v].add(mat[:, j]):
                queue.append((v, mat[:, j]))
    while queue:
        v, vec = queue.pop()
        col = vec.reshape(-1, 1)
        for a in rep.quiver.arrows:
            if a.src == v:
                img = np.dot(rep.fwd[a.id], col)
                if spans[a.dst].add(img[:, 0]):
                    queue.append((a.dst, img[:, 0]))
            if a.dst == v:
                img = np.dot(rep.rev[a.id], col)
                if spans[a.src].add(img[:, 0]):
                    queue.append((a.src, img[:, 0]))
    return {v: spans[v].matrix().T for v in rep.quiver.vertices}


def density_is_dense(gens, n: int, rtol: float = linalg.RANK_RTOL) -> bool:
    """Irreducibility of C^n under float matrices by the density test.

    The unital algebra the matrices generate is closed over words with a
    generous per-vector test; C^n is simple iff the algebra is all of
    End(C^n), that is, iff the rank of the stacked words (threshold rtol
    times their largest singular value) is n^2.
    """
    target = n * n
    span = FloatSpan(target, min(rtol, 1e-13))
    words = [np.eye(n, dtype=complex)]
    span.add(words[0].reshape(-1))
    frontier = []
    for g in gens:
        if span.add(g.reshape(-1)):
            words.append(g)
            frontier.append(g)
    while frontier and span.rank < target:
        new_frontier = []
        for b in frontier:
            for g in gens:
                for prod in (np.dot(b, g), np.dot(g, b)):
                    if span.rank >= target:
                        break
                    if span.add(prod.reshape(-1)):
                        words.append(prod)
                        new_frontier.append(prod)
        frontier = new_frontier
    stacked = np.array([w.reshape(-1) for w in words], dtype=complex)
    return linalg.rank(stacked, rtol) == target


def lm_step_real_doubled(jac, r, lam: float, digits: int = 50):
    """The step -(J^H J + lam I)^{-1} J^H r through real normal equations.

    J is split into its real representation [[Re J, -Im J], [Im J, Re J]]
    acting on (Re x, Im x), and (Jr^T Jr + lam I) s = -Jr^T rr is formed
    and solved as the realizer once did, but in `digits`-digit arithmetic
    from the exact values of the float inputs.  In double precision that
    system is useless for small lam on a wide J: its condition number is
    about ||J||^2 / lam, and at lam = 1e-14 the LU solve is off by more
    than the step itself.
    """
    import mpmath

    jr = np.block([[jac.real, -jac.imag], [jac.imag, jac.real]])
    rr = np.concatenate([r.real, r.imag])
    with mpmath.workdps(digits):
        a = mpmath.matrix(jr.tolist())
        h = a.T * a + mpmath.mpf(lam) * mpmath.eye(a.cols)
        step = mpmath.lu_solve(h, -(a.T * mpmath.matrix(rr.tolist())))
        step = np.array([float(v) for v in step])
    c = jac.shape[1]
    return step[:c] + 1j * step[c:]


def exact_matrix(rows) -> np.ndarray:
    """Build an object-dtype matrix, coercing entries into Q(i)."""
    data = [[as_exact(x) for x in row] for row in rows]
    a = np.empty((len(data), len(data[0]) if data else 0), dtype=object)
    for i, row in enumerate(data):
        for j, x in enumerate(row):
            a[i, j] = x
    return a


def ad_star(x, a: PrincipalPart) -> PrincipalPart:
    """Infinitesimal coadjoint action, slot truncation of x a - a x."""
    left = pp_left_mul(x, a)
    right = pp_right_mul(a, x)
    return PrincipalPart(
        a.n, a.k, tuple(l - r for l, r in zip(left.coeffs, right.coeffs)), a.tag
    )


def stabilizes_dt(T, b, rtol: float = 1e-9) -> bool:
    """A unipotent jet fixes dT iff every coefficient sits in its level
    centralizer h_i."""
    return all(T.in_subspace(b.coeffs[i], i, "diag", rtol) for i in range(1, T.k))


def leg_reconstruction(realization, exact: bool = None) -> np.ndarray:
    """Product of the top arrow pair plus l_1; equals the original matrix."""
    n = realization.rep.dims["0"]
    exact = realization.rep.exact if exact is None else exact
    lam1 = realization.marking[0]
    ident = linalg.eye(n, exact)
    if "1" not in realization.rep.dims:
        return lam1 * ident
    a = realization.rep.fwd["1>0"]
    b = realization.rep.rev["1>0"]
    return np.dot(a, b) + lam1 * ident


def fraction_fold(values, weights):
    """sum_i values[i] * weights[i], one Q(i) product and sum per term."""
    acc = None
    for x, w in zip(values, weights):
        t = x * w
        acc = t if acc is None else acc + t
    return acc


def zeta_dot_v_fold(gq):
    """zeta . v folded over the vertices in quiver order."""
    vertices = gq.quiver.vertices
    return fraction_fold([gq.zeta[v] for v in vertices], [gq.dims[v] for v in vertices])


def exponent_trace_fold(instance):
    """The trace of every residue exponent, folded orbit by orbit."""
    acc = None
    for spec in list(instance.residue_blocks) + [p.orbit for p in instance.poles]:
        t = fraction_fold([x for x, _ in spec.eigenvalues], [sum(b) for _, b in spec.eigenvalues])
        acc = t if acc is None else acc + t
    return acc


_EXACT_TOKEN = r"[+-]?\d+(?:/\d+)?"
_RE_BOTH = re.compile(rf"^(?P<re>{_EXACT_TOKEN})(?P<im>[+-]\d+(?:/\d+)?)i$")
_RE_IMAG = re.compile(rf"^(?P<im>{_EXACT_TOKEN})i$")
_RE_REAL = re.compile(rf"^(?P<re>{_EXACT_TOKEN})$")


def parse_exact_by_fraction_str(text: str) -> GaussianRational:
    """Parse "a/b+c/d i" with three patterns and ``Fraction(str)``."""
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ValueError("empty exact scalar")
    try:
        m = _RE_BOTH.match(s)
        if m:
            return GaussianRational(Fraction(m["re"]), Fraction(m["im"]))
        m = _RE_IMAG.match(s)
        if m:
            return GaussianRational(0, Fraction(m["im"]))
        m = _RE_REAL.match(s)
        if m:
            return GaussianRational(Fraction(m["re"]))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in exact scalar {text!r}") from None
    raise ValueError(f"cannot parse exact scalar {text!r}")


def keyed_greedy_marking(spec):
    """The greedy marking one step at a time: the eigenvalue with the most
    still-active blocks, ties to the smaller (Re, Im) key."""
    if spec.marking_override is not None:
        return spec.marking_override
    used = {i: 0 for i in range(len(spec.eigenvalues))}
    marking = []
    while True:
        best, best_drop = None, 0
        for i, (value, blocks) in enumerate(spec.eigenvalues):
            drop = sum(1 for b in blocks if b > used[i])
            if drop > best_drop or (
                drop == best_drop
                and drop > 0
                and scalar_key(value) < scalar_key(spec.eigenvalues[best][0])
            ):
                best, best_drop = i, drop
        if best is None:
            break
        marking.append(spec.eigenvalues[best][0])
        used[best] += 1
    return tuple(marking)


def keyed_rank_sequence(spec, marking=None) -> list:
    """dim V_l for l = 1..d-1, counting uses per hashed (Re, Im) key and
    summing max(size - uses, 0) over every block at every step."""
    marking = keyed_greedy_marking(spec) if marking is None else tuple(marking)
    dims = []
    counts = {}
    for m in marking[:-1]:
        key = scalar_key(m)
        counts[key] = counts.get(key, 0) + 1
        d = 0
        for value, blocks in spec.eigenvalues:
            c = counts.get(scalar_key(value), 0)
            d += sum(max(b - c, 0) for b in blocks)
        dims.append(d)
    return dims


def keyed_expected_rank(spec, value, j: int) -> int:
    """rank((R - value)^j) for R in the orbit, finding `value` by key."""
    r = spec.n
    for v, blocks in spec.eigenvalues:
        if scalar_key(v) == scalar_key(value):
            r -= sum(min(b, j) for b in blocks)
    return r


def keyed_orbit_membership(R, spec, rtol: float = 1e-8, scale: float = 0.0,
                           largest_block: bool = False) -> bool:
    """Rank profiles of every declared eigenvalue against
    `keyed_expected_rank`, asked once per eigenvalue and power up to n
    (up to the eigenvalue's largest block with `largest_block`), each
    power by its own SVD at the cutoff rtol * (max(||R||_2, scale)
    + |value|)."""
    n = R.shape[0]
    exact = linalg.is_exact(R)
    ident = linalg.eye(n, exact)
    norm = None if exact else max(np.linalg.norm(linalg.to_complex(R), 2), scale)
    for value, blocks in spec.eigenvalues:
        v = value if exact else complex(value)
        ambient = None if exact else norm + abs(v)
        jmax = max(blocks) if largest_block else n
        ranks = linalg.power_rank_sequence(R - v * ident, jmax, rtol, scale=ambient)
        if any(ranks[j - 1] != keyed_expected_rank(spec, value, j) for j in range(1, jmax + 1)):
            return False
    return True


def bench_ladder():
    """The benchmark's instance ladder, `bench/ladder.py`, as a module."""
    path = Path(__file__).resolve().parent.parent / "bench" / "ladder.py"
    spec = importlib.util.spec_from_file_location("bench_ladder", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module
