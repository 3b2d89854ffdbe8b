"""Quivers, doubled representations, moment map, and stability.

A doubled representation assigns to every arrow a of the quiver a map
for a (source -> target) and one for its reverse (target -> source);
signs are +1 on original arrows and -1 on reverses.  The moment map at
a vertex i is

    mu_i(Xi) = sum over doubled arrows targeting i of
               sign * Xi_arrow @ Xi_reverse,

and the symplectic form on the doubled representation space is
(1/2) sum_a sign(a) tr dXi_a ^ dXi_{a-bar}.

Stability means irreducibility of the doubled-path-algebra module: no
proper non-zero subspace of the sum of the vertex spaces is invariant
under the vertex projections and all arrow maps.

When zeta . w != 0 for every 0 < w < v, every point of mu^-1(zeta) is
simple (Crawley-Boevey, Geometry of the moment map for representations
of quivers, 2001).  The trace gap makes this a proof for a float point
near mu^-1(zeta), and is tried first.  Let S be a subrepresentation with
dimension vector w, 0 < w < v.  The moment map of S is the restriction
of mu, so sum_x tr(mu_x|S_x) = 0, and E_x = mu_x - zeta_x I maps S_x
into itself; hence |zeta . w| = |sum_x tr(E_x|S_x)| <= sum_x w_x ||E_x||_2.
This holds for any complex zeta_x, so the float values of zeta are used
as they are.  With B >= sum_x v_x ||E_x||_F for the exact E_x of the
float maps, a point where no 0 < w < v has |zeta . w| <= B is simple.

Rounding, with eps the machine epsilon, u = eps/2 and
gamma_k = k u / (1 - k u), at each vertex x of v_x > 0: m_x arrow ends
of non-zero maps meet x (a loop counts twice), K_x is the largest
dimension at their other ends, and T_x = sum over them of
||f||_F ||r||_F, plus |zeta_x| sqrt(v_x).

* A complex product of inner dimension k is within sqrt(2) gamma_{k+2}
  |f| |r| of the exact one, entrywise (Higham, Accuracy and Stability
  of Numerical Algorithms, 3.6), and the m_x sums and the subtraction of
  zeta_x add gamma_{m_x+1}; so ||fl(E_x) - E_x||_F is at most
  (K_x + m_x + 3) eps T_x, and B takes twice that.
* A Frobenius norm of n entries is taken as sqrt(s + n eps tiny) by
  `linalg.frobenius`, with s the computed sum of squares and tiny the
  smallest normal float: the 2n real squares lose at most u tiny each
  to underflow, and the rest is within a relative gamma_{2n+1}.  B adds
  2 (v_x^2 + 3) eps times the norm of fl(E_x).
* Underflow in forming fl(E_x) adds at most u tiny per operation and
  entry; B adds (K_x + m_x + 3) v_x tiny.

So B = sum_x v_x (||fl(E_x)||_F + rho_x), with rho_x the three terms.
Each half-box sum fl(zeta . w) and the sum of two of them take at most
2N + 1 roundings (N vertices of v_x > 0), within
delta = (2N + 2) eps sum_x |zeta_x| v_x of zeta . w.  A w is near when
|fl(zeta . w)| <= (B + delta)(1 + 2 (N + 4) eps), the last factor for
the roundings in forming B, delta and |.|; the doubled constants cover
those in T_x and the norms.  The test declines, and Norton's test runs,
when some w is near (zeta = 0, or a zeta . w = 0 as in condition 3), when
a half box or the pairs left to test are too many (TRACE_GAP_HALF_BOX),
or when no zeta is given; exact reps go to the algebra closure below.

Otherwise float input is decided by Norton's irreducibility test from
the MeatAxe (Holt and Rees, Testing modules for irreducibility, 1994):

1. the generators are scaled by their largest spectral norm;
2. theta is a random combination, from a fixed seed, of the identity,
   the generators and their pairwise products;
3. an eigenvalue lambda of theta that is well separated from the others
   is taken, with right and left null vectors v, w of theta - lambda;
4. v is spun under the generators and w under their adjoints (the
   smallest invariant subspace containing the vector, built breadth
   first with the absolute cutoff linalg.RANK_RTOL).

If theta - lambda has a one-dimensional kernel, the module is simple
exactly when both spins reach the whole space: a proper submodule U
either contains v or, when theta - lambda is invertible on U, its
annihilator contains w.  So a stable verdict is always certified by two
full spins, and an unstable one by the proper invariant subspace a spin
stopped in.  A simple module has simple eigenvalues for almost every
theta; when none turns up, a retry adds one longer random word to theta,
and after NORTON_TRIES tries the verdict is unresolved (dim None, read
as unstable by is_stable), as for an isotypic module such as S + S.  Exact Q(i) input is decided by
the dimension of the generated algebra, which must be (total dim)^2.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np

from . import linalg
from .scalars import ONE, GaussianRational, as_complex
from .serialize import SchemaError, dims_from_json, require, scalar_from_json, scalar_to_json

DimVector = dict  # vertex id -> nonnegative int
ParamVector = dict  # vertex id -> scalar


@dataclass(frozen=True)
class Arrow:
    id: str
    src: str
    dst: str


@dataclass(frozen=True)
class Quiver:
    vertices: tuple
    arrows: tuple

    def __post_init__(self):
        seen = set(self.vertices)
        if len(seen) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        ids = set()
        for a in self.arrows:
            if a.src not in seen or a.dst not in seen:
                raise ValueError(f"arrow {a.id} references unknown vertex")
            if a.id in ids:
                raise ValueError(f"duplicate arrow id {a.id}")
            ids.add(a.id)

    @property
    def loop_free(self) -> bool:
        return all(a.src != a.dst for a in self.arrows)


def make_quiver(vertices, arrows) -> Quiver:
    return Quiver(tuple(vertices), tuple(Arrow(*a) if not isinstance(a, Arrow) else a for a in arrows))


@dataclass
class DoubledRep:
    """Maps for every arrow and its reverse over a dimensioned vertex set."""

    quiver: Quiver
    dims: DimVector
    fwd: dict
    rev: dict

    def __post_init__(self):
        for a in self.quiver.arrows:
            f, r = self.fwd[a.id], self.rev[a.id]
            if f.shape != (self.dims[a.dst], self.dims[a.src]):
                raise ValueError(f"forward map of {a.id} has shape {f.shape}")
            if r.shape != (self.dims[a.src], self.dims[a.dst]):
                raise ValueError(f"reverse map of {a.id} has shape {r.shape}")

    @property
    def exact(self) -> bool:
        for a in self.quiver.arrows:
            return linalg.is_exact(self.fwd[a.id])
        return False

    @staticmethod
    def zero(quiver: Quiver, dims: DimVector, exact: bool = False) -> "DoubledRep":
        fwd = {a.id: linalg.zeros(dims[a.dst], dims[a.src], exact) for a in quiver.arrows}
        rev = {a.id: linalg.zeros(dims[a.src], dims[a.dst], exact) for a in quiver.arrows}
        return DoubledRep(quiver, dict(dims), fwd, rev)

    def copy(self) -> "DoubledRep":
        return DoubledRep(
            self.quiver,
            dict(self.dims),
            {k: v.copy() for k, v in self.fwd.items()},
            {k: v.copy() for k, v in self.rev.items()},
        )


def moment_map(rep: DoubledRep) -> dict:
    """Vertex-wise moment values; their traces always sum to zero."""
    exact = rep.exact
    mu = {v: linalg.zeros(rep.dims[v], rep.dims[v], exact) for v in rep.quiver.vertices}
    for a in rep.quiver.arrows:
        f, r = rep.fwd[a.id], rep.rev[a.id]
        mu[a.dst] = mu[a.dst] + np.dot(f, r)
        mu[a.src] = mu[a.src] - np.dot(r, f)
    return mu


def symplectic_form(rep: DoubledRep, dxi1: DoubledRep, dxi2: DoubledRep):
    """Evaluate the canonical form on two tangent vectors at rep.

    The value is base-point independent; rep only fixes the quiver and
    dimensions.
    """
    acc = GaussianRational(0) if rep.exact else 0j
    for a in rep.quiver.arrows:
        t = np.trace(np.dot(dxi1.fwd[a.id], dxi2.rev[a.id])) - np.trace(
            np.dot(dxi2.fwd[a.id], dxi1.rev[a.id])
        )
        acc = acc + t
    return acc


def delta(quiver: Quiver, dims: DimVector) -> int:
    """Half-dimension of the moduli space: sum over arrows of
    v_src*v_dst minus sum of v_i^2, plus one."""
    s = sum(dims[a.src] * dims[a.dst] for a in quiver.arrows)
    return s - sum(d * d for d in dims.values()) + 1


def total_endomorphism_generators(rep: DoubledRep):
    """Vertex projections and arrow maps as endomorphisms of the sum."""
    dims = [rep.dims[v] for v in rep.quiver.vertices]
    offsets, total = dict(zip(rep.quiver.vertices, accumulate(dims, initial=0))), sum(dims)
    exact = rep.exact
    gens = []
    one = ONE if exact else 1.0 + 0j
    for v in rep.quiver.vertices:
        p = linalg.zeros(total, total, exact)
        o, d = offsets[v], rep.dims[v]
        for i in range(d):
            p[o + i, o + i] = one
        gens.append(p)
    for a in rep.quiver.arrows:
        so, to = offsets[a.src], offsets[a.dst]
        sd, td = rep.dims[a.src], rep.dims[a.dst]
        m = linalg.zeros(total, total, exact)
        m[to : to + td, so : so + sd] = rep.fwd[a.id]
        gens.append(m)
        m = linalg.zeros(total, total, exact)
        m[so : so + sd, to : to + td] = rep.rev[a.id]
        gens.append(m)
    return gens, total


def algebra_span_dimension(gens: list, total: int) -> int:
    """Dimension of the unital algebra generated inside End(Q(i)^total).

    Exact span closure: words are added breadth first, each level
    multiplying the previous level's new words by every generator on
    both sides, until no word enlarges the span.
    """
    span = linalg.SpanBasis(total * total)
    span.add(linalg.eye(total, True).reshape(-1))
    frontier = [g for g in gens if span.add(g.reshape(-1))]
    while frontier and span.rank < total * total:
        frontier = [
            prod
            for b in frontier
            for g in gens
            for prod in (np.dot(b, g), np.dot(g, b))
            if span.add(prod.reshape(-1))
        ]
    return span.rank


# theta is a random element of the generated algebra; the generator is
# seeded so that a verdict depends on the input alone
NORTON_SEED = 1994
NORTON_TRIES = 4
# an eigenvalue of theta counts as simple when every other eigenvalue lies
# farther than this share of |theta| from it; its null vectors are then
# accurate to about machine precision over the gap, far below the cutoff
NORTON_GAP = 1e-3
# the trace-gap test declines, leaving the verdict to Norton, when a half of
# the box of sub-vectors, or the set of pairs in its search windows, has
# more points than this.  Half boxes of 512 points take the fewest
# dimensions on a cycle of 18 one-dimensional vertices: there the whole
# test took 1.3-2.0 ms and Norton 2.8-3.3 ms, and at 1024 points (20
# vertices) 3.3 ms against 3.9 ms (2-vCPU VM, one BLAS thread)
TRACE_GAP_HALF_BOX = 512


@dataclass(frozen=True)
class Stability:
    """A stability verdict and the dimension that certifies it.

    Float input: dim is the dimension of the invariant subspace that
    Norton's spins found, total when both reached the whole space, and
    None when no try found a simple eigenvalue (the verdict is then
    unresolved, and gap is the largest relative eigenvalue gap of theta
    seen in the tries).  Exact input: dim is the dimension of the
    generated algebra and total is n^2.  Trace gap: the verdict is
    stable, dim and total are both the total dimension, and bound is B.
    """

    stable: bool
    dim: int | None
    total: int
    measure: str  # "invariant_dim", "algebra_dim" or "trace_gap"
    gap: float | None = None
    bound: float | None = None  # the trace-gap bound B

    @property
    def detail(self) -> str:
        if self.dim is None:
            return (f"unresolved: no simple eigenvalue in {NORTON_TRIES} tries; largest "
                    f"relative gap {self.gap:.3e} <= NORTON_GAP {NORTON_GAP:g}")
        if self.measure == "trace_gap":
            return f"stable=True trace_gap: |zeta . w| > B = {self.bound:.3e} for all 0 < w < v"
        return f"stable={self.stable} {self.measure}={self.dim}/{self.total}"


def _spin(gens: np.ndarray, vec: np.ndarray) -> int:
    """Dimension of the smallest gens-invariant subspace containing vec.

    Breadth-first orthonormal spin: each level applies every generator
    to the previous level's new directions at once, removes the span so
    far (twice, for orthogonality) and keeps the directions of what
    remains whose singular value exceeds linalg.RANK_RTOL.  No generator
    is longer than 1 and every direction has unit length, so the cutoff
    is absolute.
    """
    n = gens.shape[1]
    basis = (vec / np.linalg.norm(vec))[:, None]
    frontier = basis
    while frontier.shape[1] and basis.shape[1] < n:
        img = np.matmul(gens, frontier).transpose(1, 0, 2).reshape(n, -1)
        for _ in range(2):
            img = img - basis @ (basis.conj().T @ img)
        u, s, _ = np.linalg.svd(img, full_matrices=False)
        frontier = u[:, s > linalg.RANK_RTOL]
        basis = np.concatenate([basis, frontier], axis=1)
    return basis.shape[1]


def _norton(gens: list, n: int) -> Stability:
    """Norton's irreducibility test of C^n under float matrices."""
    stack = np.array([np.eye(n, dtype=complex)] + [np.asarray(g, dtype=complex) for g in gens])
    # one common scale: a map that is zero up to rounding next to the
    # others must stay below the cutoff, not be blown up to unit norm
    scale = np.linalg.svd(stack[1:], compute_uv=False)[:, 0].max(initial=0.0)
    if scale > 0:
        stack[1:] /= scale
    m = len(stack)
    rng = np.random.default_rng(NORTON_SEED)

    def coeffs(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # theta = sum_j g_j sum_k c_jk g_k with g_0 = 1: the identity, the
    # generators and their pairwise products, in one matrix product
    inner = coeffs(m, m) @ stack.reshape(m, n * n)
    theta = stack.transpose(1, 0, 2).reshape(n, m * n) @ inner.reshape(m * n, n)
    gap = 0.0
    for attempt in range(NORTON_TRIES):
        if attempt:
            word = stack[rng.integers(m)]
            for j in rng.integers(m, size=attempt + 1):
                word = word @ stack[j]
            theta = theta + coeffs(1)[0] * word
        eig = np.linalg.eigvals(theta)
        nearest = (np.abs(eig[:, None] - eig[None, :]) + np.diag(np.full(n, np.inf))).min(axis=1)
        best = int(np.argmax(nearest))
        norm = np.linalg.norm(theta)
        gap = max(gap, float(nearest[best] / norm))
        if nearest[best] <= NORTON_GAP * norm:
            continue
        u, _, vh = np.linalg.svd(theta - eig[best] * np.eye(n))
        right = _spin(stack, vh[-1].conj())
        if right < n:
            return Stability(False, right, n, "invariant_dim")
        left = _spin(stack.conj().transpose(0, 2, 1), u[:, -1])
        return Stability(left == n, n - left if left < n else n, n, "invariant_dim")
    return Stability(False, None, n, "invariant_dim", gap)


def stability(gens: list, n: int) -> Stability:
    """Whether no proper non-zero subspace of C^n (or Q(i)^n) is
    invariant under every matrix in gens, with the certificate.

    Float input runs Norton's test (see the module docstring) with the
    absolute cutoff linalg.RANK_RTOL; exact input compares the dimension
    of the generated algebra with n^2.
    """
    if n == 0:
        raise ValueError("the module is zero-dimensional")
    if gens and linalg.is_exact(gens[0]):
        dim = algebra_span_dimension(gens, n)
        return Stability(dim == n * n, dim, n * n, "algebra_dim")
    return _norton(gens, n)


_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def _half_sums(zeta: list, dims: list) -> list:
    """zeta . w for every w of the box prod [0, dims], in row-major
    order: the first entry is w = 0, the last w = dims."""
    sums = [0j]
    for z, d in zip(zeta, dims):
        sums = [s + z * k for s in sums for k in range(d + 1)]
    return sums


def _gap_bound(rep: DoubledRep, zeta: dict) -> float:
    """B of the module docstring, at the vertices of positive dimension
    (the keys of the complex `zeta`)."""
    scale = dict.fromkeys(zeta, 0.0)  # T_x less |zeta_x| sqrt(v_x)
    ops = dict.fromkeys(zeta, 3)  # m_x + 3, then + K_x
    inner = dict.fromkeys(zeta, 0)  # K_x
    for a in rep.quiver.arrows:
        if rep.dims[a.src] and rep.dims[a.dst]:
            t = linalg.frobenius(rep.fwd[a.id]) * linalg.frobenius(rep.rev[a.id])
            for x, y in ((a.dst, a.src), (a.src, a.dst)):
                scale[x] += t
                ops[x] += 1
                inner[x] = max(inner[x], rep.dims[y])
    mu = moment_map(rep)
    bound = 0.0
    for x, z in zeta.items():
        d, k = rep.dims[x], ops[x] + inner[x]
        frob = linalg.frobenius(mu[x] - z * linalg.eye(d, False))
        rho = 2 * k * _EPS * (scale[x] + abs(z) * d ** 0.5) + 2 * (d * d + 3) * _EPS * frob
        bound += d * (frob + rho + k * d * _TINY)
    return bound


def _near_subvector(zeta: list, dims: list, cut: int, threshold: float) -> bool:
    """Whether some 0 < w < dims has |fl(zeta . w)| <= threshold, with
    the sums formed over the halves [:cut] and [cut:]; True also when
    the pairs left to test exceed TRACE_GAP_HALF_BOX.

    One half's sums are sorted by the coordinate (real or imaginary)
    along which zeta spreads most; a binary search then finds, for each
    sum of the other half, the pairs within twice the threshold in that
    coordinate, and only those are tested in full.  Plain Python: the
    halves are small, and the numpy form loaded kernels that realize and
    verify use nowhere else (0.35-0.55 MB of the benchmark's peak RSS).
    """
    left, right = _half_sums(zeta[:cut], dims[:cut]), _half_sums(zeta[cut:], dims[cut:])
    real = sum(abs(z.real) for z in zeta) >= sum(abs(z.imag) for z in zeta)
    keys = [s.real if real else s.imag for s in right]
    probes = [s.real if real else s.imag for s in left]
    order = sorted(range(len(right)), key=keys.__getitem__)
    keys = [keys[j] for j in order]
    # a pair within the threshold lies within twice it in one coordinate,
    # also after the rounding of the window's ends (rounding is monotone)
    lo = list(map(bisect_left, repeat(keys), [-k - 2 * threshold for k in probes]))
    hi = list(map(bisect_right, repeat(keys), [-k + 2 * threshold for k in probes]))
    if sum(hi) - sum(lo) > TRACE_GAP_HALF_BOX:
        return True
    last_i, last_j = len(left) - 1, len(right) - 1
    return any((i or j) and (i < last_i or j < last_j) and abs(left[i] + right[j]) <= threshold
               for i in range(len(left)) if hi[i] > lo[i] for j in order[lo[i]:hi[i]])


def trace_gap(rep: DoubledRep, zeta: ParamVector) -> float | None:
    """B when the trace-gap lemma proves the float rep simple, else None.

    See the module docstring for the lemma and every rounding term.  The
    box of sub-vectors is split into two halves of about equal size,
    searched against each other by `_near_subvector`.  None when a half
    box or the pairs left to test have more than TRACE_GAP_HALF_BOX
    points, or when some 0 < w < v has |fl(zeta . w)| within the
    threshold.
    """
    verts = [x for x in rep.quiver.vertices if rep.dims[x]]
    dims = [rep.dims[x] for x in verts]
    # cut where the larger half box is smallest
    sizes = [math.prod(d + 1 for d in dims[:c]) for c in range(len(dims) + 1)]
    cut = min(range(len(dims) + 1), key=lambda c: max(sizes[c], sizes[-1] // sizes[c]))
    if max(sizes[cut], sizes[-1] // sizes[cut]) > TRACE_GAP_HALF_BOX:
        return None
    z = {x: as_complex(zeta[x]) for x in verts}
    bound = _gap_bound(rep, z)
    zv = list(z.values())
    delta = (2 * len(verts) + 2) * _EPS * sum(abs(c) * d for c, d in zip(zv, dims))
    threshold = (bound + delta) * (1 + 2 * (len(verts) + 4) * _EPS)
    if not math.isfinite(threshold):
        return None
    return None if _near_subvector(zv, dims, cut, threshold) else bound


def rep_stability(rep: DoubledRep, zeta: ParamVector = None) -> Stability:
    """Stability of rep as a module of the doubled path algebra, with
    its certificate; see is_stable.

    Given zeta, a float rep is first tested by its trace gap (see the
    module docstring), which proves it simple when no sub-vector's
    zeta . w lies within the gap bound B; Norton's test (or, for an exact
    rep, the algebra closure) runs when that proof fails or zeta is None.
    """
    if all(d == 0 for d in rep.dims.values()):
        raise ValueError("dimension vector is identically zero")
    if zeta is not None and not rep.exact:
        bound = trace_gap(rep, zeta)
        if bound is not None:
            total = sum(rep.dims.values())
            return Stability(True, total, total, "trace_gap", bound=bound)
    gens, total = total_endomorphism_generators(rep)
    return stability(gens, total)


def is_stable(rep: DoubledRep) -> bool:
    """Whether rep is a simple module of the doubled path algebra.

    The generators are the vertex projections and all arrow maps, as
    endomorphisms of the sum of the vertex spaces.  In float mode a True
    verdict is certified by two Norton spins that both reach the whole
    space.  False means that a spin stopped in a proper invariant
    subspace (directions shorter than linalg.RANK_RTOL, next to
    unit-norm generators, count as zero), or that no simple eigenvalue
    of theta turned up in NORTON_TRIES tries, as happens for isotypic
    modules such as S + S.  Exact input is decided by the dimension of the
    generated algebra.
    """
    return rep_stability(rep).stable


def quiver_to_json(quiver: Quiver, dims: DimVector, zeta: ParamVector) -> dict:
    return {
        "vertices": list(quiver.vertices),
        "arrows": [[a.id, a.src, a.dst] for a in quiver.arrows],
        "dims": {v: int(dims[v]) for v in quiver.vertices},
        "zeta": {v: scalar_to_json(zeta[v]) for v in quiver.vertices},
    }


def quiver_from_json(data: dict, path: str = ""):
    """Inverse of quiver_to_json.  The criterion runs on this payload, so
    dims must be JSON integers >= 0 and zeta exact scalars (strings or
    integers); floats are rejected, never rounded."""
    vertices = require(data, "vertices", path, list)
    arrows = require(data, "arrows", path, list)
    if not vertices or not all(type(v) is str for v in vertices):
        raise SchemaError(f"expected a non-empty list of strings at {path}/vertices")
    for i, a in enumerate(arrows):
        if not (isinstance(a, list) and len(a) == 3 and all(type(x) is str for x in a)):
            raise SchemaError(f"expected an [id, src, dst] list of strings at {path}/arrows/{i}")
    q = make_quiver(vertices, arrows)
    dims = dims_from_json(require(data, "dims", path), q.vertices, f"{path}/dims")
    zeta = require(data, "zeta", path, dict)
    if zeta.keys() != dims.keys():
        raise SchemaError(f"expected an object keyed by exactly the vertices at {path}/zeta")
    return q, dims, {v: scalar_from_json(x, True) for v, x in zeta.items()}


def to_dot(quiver: Quiver, dims: DimVector = None, zeta: ParamVector = None, full: bool = False) -> str:
    """Graphviz DOT text; parallel arrows become parallel edges.

    Vertex labels carry the dimension; parameters only when full=True.
    """
    lines = ["digraph quiver {"]
    for v in quiver.vertices:
        label = str(v)
        if dims is not None:
            label += f"\\nv={dims[v]}"
        if full and zeta is not None:
            label += f"\\nzeta={zeta[v]}"
        lines.append(f'  "{v}" [label="{label}"];')
    for a in quiver.arrows:
        lines.append(f'  "{a.src}" -> "{a.dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
