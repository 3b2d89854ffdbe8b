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
under the vertex projections and all arrow maps.  Float input is
decided by Norton's irreducibility test from the MeatAxe (Holt and
Rees, Testing modules for irreducibility, 1994):

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

from dataclasses import dataclass

import numpy as np

from . import linalg
from .scalars import ONE

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

    def norm(self) -> float:
        total = 0.0
        for a in self.quiver.arrows:
            total += linalg.mat_norm(self.fwd[a.id]) ** 2
            total += linalg.mat_norm(self.rev[a.id]) ** 2
        return total ** 0.5


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
    acc = None
    for a in rep.quiver.arrows:
        t = np.trace(np.dot(dxi1.fwd[a.id], dxi2.rev[a.id])) - np.trace(
            np.dot(dxi2.fwd[a.id], dxi1.rev[a.id])
        )
        acc = t if acc is None else acc + t
    if acc is None:
        from .scalars import GaussianRational

        acc = GaussianRational(0) if rep.exact else 0j
    return acc


def delta(quiver: Quiver, dims: DimVector) -> int:
    """Half-dimension of the moduli space: sum over arrows of
    v_src*v_dst minus sum of v_i^2, plus one."""
    s = sum(dims[a.src] * dims[a.dst] for a in quiver.arrows)
    return s - sum(d * d for d in dims.values()) + 1


def _vertex_offsets(quiver: Quiver, dims: DimVector):
    offsets = {}
    total = 0
    for v in quiver.vertices:
        offsets[v] = total
        total += dims[v]
    return offsets, total


def total_endomorphism_generators(rep: DoubledRep):
    """Vertex projections and arrow maps as endomorphisms of the sum."""
    offsets, total = _vertex_offsets(rep.quiver, rep.dims)
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


@dataclass(frozen=True)
class Stability:
    """A stability verdict and the dimension that certifies it.

    Float input: dim is the dimension of the invariant subspace that
    Norton's spins found, total when both reached the whole space, and
    None when no try found a simple eigenvalue (the verdict is then
    unresolved, and gap is the largest relative eigenvalue gap of theta
    seen in the tries).  Exact input: dim is the dimension of the
    generated algebra and total is n^2.
    """

    stable: bool
    dim: int | None
    total: int
    measure: str  # "invariant_dim" or "algebra_dim"
    gap: float | None = None

    @property
    def detail(self) -> str:
        if self.dim is None:
            return (f"unresolved: no simple eigenvalue in {NORTON_TRIES} tries; largest "
                    f"relative gap {self.gap:.3e} <= NORTON_GAP {NORTON_GAP:g}")
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
    scale = np.linalg.norm(stack[1:], 2, axis=(1, 2)).max(initial=0.0)
    if scale > 0:
        stack[1:] /= scale
    m = len(stack)
    rng = np.random.default_rng(NORTON_SEED)

    def coeffs(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # theta = sum_j g_j sum_k c_jk g_k with g_0 = 1: the identity, the
    # generators and their pairwise products, in one matrix product
    inner = np.einsum("jk,kab->jab", coeffs(m, m), stack)
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


def rep_stability(rep: DoubledRep) -> Stability:
    """Stability of rep as a module of the doubled path algebra, with
    its certificate; see is_stable."""
    if all(d == 0 for d in rep.dims.values()):
        raise ValueError("dimension vector is identically zero")
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


def quiver_to_json(quiver: Quiver, dims: DimVector = None, zeta: ParamVector = None) -> dict:
    from .serialize import scalar_to_json

    out = {
        "vertices": list(quiver.vertices),
        "arrows": [[a.id, a.src, a.dst] for a in quiver.arrows],
    }
    if dims is not None:
        out["dims"] = {v: int(dims[v]) for v in quiver.vertices}
    if zeta is not None:
        out["zeta"] = {v: scalar_to_json(zeta[v]) for v in quiver.vertices}
    return out


def quiver_from_json(data: dict):
    """Inverse of quiver_to_json.  The criterion runs on this payload, so
    dims must be JSON integers and zeta exact scalars (strings or
    integers); floats are rejected, never rounded."""
    from .serialize import scalar_from_json

    q = make_quiver(data["vertices"], [tuple(a) for a in data["arrows"]])
    dims = data.get("dims", {})
    for v, d in dims.items():
        if type(d) is not int:  # rejects bool too, an int subclass
            raise ValueError(f"dimension at vertex {v} must be a JSON integer, got {d!r}")
    zeta = None
    if "zeta" in data:
        zeta = {k: scalar_from_json(v, True) for k, v in data["zeta"].items()}
    return q, dict(dims) or None, zeta


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
