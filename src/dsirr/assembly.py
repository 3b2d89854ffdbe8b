"""Global quiver synthesis, the decision procedure, and realization.

A problem instance fixes the rank n, one irregular type at infinity
(local coordinate w = 1/z), an orbit of exponents per block of that
type, and finitely many simple poles each carrying a residue orbit.

The synthesized quiver glues the core quiver of the irregular type
with one type-A leg per finite pole (attached to every core vertex)
and one leg per block of the type.  Writing l_{x,i} for the marking
scalars, the parameters are

    zeta_p     = -l_{p,1} - sum_t l_{t,1}      (core vertex p),
    zeta_{x,l} = l_{x,l} - l_{x,l+1}           (leg vertices),

and the dimension vector comes from the core multiplicities and the
leg rank sequences.  By telescoping, zeta . v equals minus the total
trace of the prescribed residue exponents, always.

The affine dictionary at infinity: a connection
(sum_i A_i z^i + sum_t R_t/(z - z_t)) dz has w-principal part with
slot j equal to -A_{j-1} (because z^i dz = -w^{-i-2} dw) and residue
-sum_t R_t; the core triangular coordinates see exactly the slots
1..k-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate
from math import sqrt
from operator import add, mul

import numpy as np

from . import linalg
from .irregular import (
    IrregularType,
    OrbitMembershipError,
    core_quiver,
    orbit_to_qp,
    qp_to_orbit,
    qp_to_rep,
    rep_to_qp,
)
from .jets import ConnectionJet, PrincipalPart
from .orbits import (
    OrbitSpec,
    greedy_marking,
    leg_dimensions,
    orbit_membership,
    realize_leg,
)
from .quiver import DoubledRep, delta, is_stable, make_quiver, moment_map, rep_stability, stability
from .roots import CartanData, Verdict, cb_solvable
from .scalars import GaussianRational, as_complex, exact_dot, integerize, require_int, scalar_key


@dataclass(frozen=True)
class FinitePole:
    position: object  # scalar, exact or complex
    orbit: OrbitSpec


@dataclass(frozen=True)
class ProblemInstance:
    n: int
    irregular: IrregularType
    residue_blocks: tuple  # OrbitSpec per canonical block
    poles: tuple  # FinitePole, positions pairwise distinct
    # on the float copy of an exact instance: the source's exact zeta . v
    exact_zeta_v: GaussianRational | None = field(default=None, init=False, compare=False)

    def __post_init__(self):
        require_int(self.n, "the rank", 1)
        if self.irregular.n != self.n:
            raise ValueError("irregular type size differs from the declared rank")
        if len(self.residue_blocks) != self.irregular.block_count:
            raise ValueError("need one exponent orbit per block of the irregular type")
        for b, spec in enumerate(self.residue_blocks):
            if spec.n != self.irregular.blocks[b].mult:
                raise ValueError(
                    f"block {b} has multiplicity {self.irregular.blocks[b].mult}, "
                    f"exponent orbit has size {spec.n}"
                )
        for pole in self.poles:
            if pole.orbit.n != self.n:
                raise ValueError("residue orbits at finite poles live in rank n")
        keys = [scalar_key(p.position) for p in self.poles]
        if len(set(keys)) != len(keys):
            raise ValueError("finite pole positions must be pairwise distinct")

    @property
    def exact(self) -> bool:
        return self.irregular.exact

    def as_float(self) -> "ProblemInstance":
        """The instance with complex scalars.  The copy of an exact one
        keeps its exact zeta . v, minus the trace of every residue
        exponent, as `exact_zeta_v`."""
        if not self.exact:
            return self
        blocks = tuple(s.to_float(f"block {b}") for b, s in enumerate(self.residue_blocks))
        poles = tuple(FinitePole(as_complex(p.position), p.orbit.to_float(f"pole {j}"))
                      for j, p in enumerate(self.poles))
        copy = ProblemInstance(self.n, self.irregular.to_float(), blocks, poles)
        specs = self.residue_blocks + tuple(p.orbit for p in self.poles)
        trace = exact_dot(*zip(*((x, sum(b)) for s in specs for x, b in s.eigenvalues)))
        object.__setattr__(copy, "exact_zeta_v", -trace)
        return copy


@dataclass
class GlobalQuiver:
    """Synthesized (quiver, dims, zeta) plus the bookkeeping to attach
    representation data back to matrices."""

    quiver: object
    dims: dict
    zeta: dict
    instance: ProblemInstance
    markings: dict  # ("p", b) or ("t", j) -> marking tuple
    zeta_v: object = None  # zeta . v, exact when the instance or its source is
    zeta_int: tuple | None = None  # exact mode: c Re(zeta), c Im(zeta) on integers

    @cached_property
    def moment_plan(self) -> "_MomentPlan":
        """The moment map compiled to index arrays; built on first use."""
        return _MomentPlan.build(self)


def build_global_quiver(instance: ProblemInstance) -> GlobalQuiver:
    """Assemble (Q, v, zeta) from the instance.

    Each zeta_x is a signed sum of marking scalars, formed on real and
    imaginary parts: in exact mode, integers over one denominator c that
    also clears the eigenvalues.  On these the identity zeta . v =
    -(trace of all residue exponents) is re-checked, and c * zeta is kept,
    in vertex order, as `zeta_int` for the criterion.

    `zeta_v` is zeta . v: exact on an exact instance, and on the float
    copy of one (`ProblemInstance.as_float`) its source's exact value;
    on other float input, a left fold in vertex order, with rounding.
    """
    T = instance.irregular
    core, core_dims = core_quiver(T)
    vertices = list(core.vertices)
    arrows = [(a.id, a.src, a.dst) for a in core.arrows]
    dims = dict(core_dims)
    legs = [(("p", b), spec) for b, spec in enumerate(instance.residue_blocks)]
    legs += [(("t", j), pole.orbit) for j, pole in enumerate(instance.poles)]
    markings = {key: greedy_marking(spec) for key, spec in legs}
    entries = [x for m in markings.values() for x in m]
    first = dict(zip(markings, accumulate(map(len, markings.values()), initial=0)))
    if instance.exact:  # the eigenvalues follow the marking entries
        traces = [(x, sum(b)) for _, spec in legs for x, b in spec.eigenvalues]
        lcd, re, im = integerize(entries + [x for x, _ in traces])
    else:
        re, im = [as_complex(x).real for x in entries], [as_complex(x).imag for x in entries]

    terms = {}  # vertex -> (Re, Im) of zeta, in the arithmetic of the mode
    for key, spec in legs:
        prefix, ldims = f"{key[0]}{key[1]}.", leg_dimensions(spec)
        for l, d in enumerate(ldims, start=1):
            v, a = f"{prefix}{l}", first[key] + l - 1
            vertices.append(v)
            dims[v] = d
            terms[v] = (re[a] - re[a + 1], im[a] - im[a + 1])
            if l >= 2:
                arrows.append((f"{prefix}{l}>{prefix}{l-1}", v, f"{prefix}{l-1}"))
        if ldims:
            feet = [f"p{b}" for b in range(T.block_count)] if key[0] == "t" else [f"p{key[1]}"]
            arrows += [(f"{prefix}1>{foot}", f"{prefix}1", foot) for foot in feet]
    for b in range(T.block_count):
        a = first[("p", b)]
        zr, zi = -re[a], -im[a]
        for j in range(len(instance.poles)):
            a = first[("t", j)]
            zr, zi = zr - re[a], zi - im[a]
        terms[f"p{b}"] = (zr, zi)

    quiver = make_quiver(vertices, arrows)
    weights = [dims[v] for v in vertices]
    if not instance.exact:
        zeta = {v: complex(r, i) for v, (r, i) in terms.items()}
        zeta_v = instance.exact_zeta_v
        if zeta_v is None:
            zeta_v = reduce(add, map(mul, (zeta[v] for v in vertices), weights))
        return GlobalQuiver(quiver, dims, zeta, instance, markings, zeta_v)
    zeta = {v: GaussianRational(Fraction(r, lcd), Fraction(i, lcd)) for v, (r, i) in terms.items()}
    zr, zi = [terms[v][0] for v in vertices], [terms[v][1] for v in vertices]
    mults, e = [m for _, m in traces], len(entries)
    total_re, total_im = sum(map(mul, zr, weights)), sum(map(mul, zi, weights))
    if total_re != -sum(map(mul, re[e:], mults)) or total_im != -sum(map(mul, im[e:], mults)):
        raise AssertionError("internal: zeta . v failed the trace identity")
    zeta_v = GaussianRational(Fraction(total_re, lcd), Fraction(total_im, lcd))
    return GlobalQuiver(quiver, dims, zeta, instance, markings, zeta_v, (zr, zi))


@dataclass
class DSVerdict:
    verdict: Verdict
    gq: GlobalQuiver

    @property
    def nonempty(self):
        return self.verdict.nonempty


def verdict_to_json(verdict: Verdict, quiver, dims, zeta) -> dict:
    """Report form of a criterion verdict on (quiver, dims, zeta)."""
    from .quiver import quiver_to_json

    out = {
        "verdict": "undecided"
        if verdict.undecided
        else ("nonempty" if verdict.nonempty else "empty"),
        "quiver": quiver_to_json(quiver, dims, zeta),
        "delta": verdict.delta,
        "detail": verdict.detail,
        "stats": {"candidates": verdict.candidates, "search_states": verdict.nodes},
    }
    if verdict.nonempty:
        out["dim"] = verdict.dim
    if verdict.failed_condition is not None:
        out["failed_condition"] = verdict.failed_condition
    if verdict.witness is not None:
        order = list(quiver.vertices)
        out["witness"] = [
            {v: w[i] for i, v in enumerate(order) if w[i]} for w in verdict.witness
        ]
    return out


def decide_ds(instance: ProblemInstance, max_nodes: int = 200_000) -> DSVerdict:
    """Build the quiver and apply the root-system criterion (exact only)."""
    if not instance.exact:
        raise TypeError(
            "the decision procedure needs exact scalars; rationalize the input "
            "or supply exact strings"
        )
    gq = build_global_quiver(instance)
    cartan = CartanData.from_quiver(gq.quiver)
    v = cartan.vec(gq.dims)
    verdict = cb_solvable(cartan, v, gq.zeta_int, max_nodes=max_nodes)
    return DSVerdict(verdict, gq)


@dataclass
class ConnectionData:
    """A = (sum_i poly[i] z^i + sum_t residues[t]/(z - positions[t])) dz,
    with complex matrices."""

    n: int
    poly: tuple
    residues: tuple
    positions: tuple

    def residue_at_infinity(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=complex)
        for r in self.residues:
            out = out - r
        return out

    def infinity_jet(self, k: int, depth: int) -> ConnectionJet:
        """Expansion at infinity in w = 1/z, trusted to the given depth."""
        coeffs = []
        for s in range(depth + 1):
            c = np.zeros((self.n, self.n), dtype=complex)
            i = k - 2 - s
            if 0 <= i < len(self.poly):
                c = c - self.poly[i]
            m = s - (k - 1)  # power of the position in the tail expansion
            if m >= 0:
                for r, z in zip(self.residues, self.positions):
                    c = c - r * (z ** m)
            coeffs.append(c)
        return ConnectionJet(self.n, k, tuple(coeffs))


def _block_slices(T: IrregularType):
    return [T.block_slice(b) for b in range(T.block_count)]


def _fro(a: np.ndarray) -> float:
    """Frobenius norm of a float block: `linalg.mat_norm` without its
    exact-entry conversion, cheap enough to take for every block."""
    return sqrt(np.vdot(a, a).real)


def _core_rep_of(gq: GlobalQuiver, rep: DoubledRep) -> DoubledRep:
    T = gq.instance.irregular
    core, core_dims = core_quiver(T)
    fwd = {a.id: rep.fwd[a.id] for a in core.arrows}
    rev = {a.id: rep.rev[a.id] for a in core.arrows}
    return DoubledRep(core, core_dims, fwd, rev)


def moment_residual(gq: GlobalQuiver, rep: DoubledRep) -> float:
    mu = moment_map(rep)
    total = 0.0
    for v in gq.quiver.vertices:
        total += linalg.mat_norm(mu[v] - gq.zeta[v] * np.eye(gq.dims[v], dtype=complex)) ** 2
    return total ** 0.5


def _leg_condition_failures(gq: GlobalQuiver, rep: DoubledRep, rtol: float) -> list:
    """Injectivity/surjectivity demanded of leg arrows.

    Ordinary leg arrows (chains and block feet) need injective forward
    maps and surjective reverse maps onto the source space; the foot
    family of a finite pole needs joint injectivity and joint
    surjectivity of the stacked maps.
    """
    fails = []
    finite_feet = {}
    for a in gq.quiver.arrows:
        if ":" in a.id:
            continue  # core arrows carry no rank conditions
        if a.id.startswith("t") and ">p" in a.id:
            finite_feet.setdefault(a.src, []).append(a)
            continue
        d_src = rep.dims[a.src]
        if linalg.rank(rep.fwd[a.id], rtol) != d_src:
            fails.append(f"{a.id}: forward map not injective")
        if linalg.rank(rep.rev[a.id], rtol) != d_src:
            fails.append(f"{a.id}: reverse map not surjective")
    for src, aa in finite_feet.items():
        d_src = rep.dims[src]
        stacked_fwd = np.concatenate([rep.fwd[a.id] for a in aa], axis=0)
        stacked_rev = np.concatenate([rep.rev[a.id] for a in aa], axis=1)
        if linalg.rank(stacked_fwd, rtol) != d_src:
            fails.append(f"{src}: joint kernel of the foot maps is non-zero")
        if linalg.rank(stacked_rev, rtol) != d_src:
            fails.append(f"{src}: foot reverse maps do not jointly surject")
    return fails


def assemble_residue(gq: GlobalQuiver, rep: DoubledRep, j: int):
    """R_t from the foot arrows of pole j: block (p,q) is the product of
    the forward map into p with the reverse map out of q, plus the
    first marking scalar.  Returns (R_t, scale), where scale =
    |lambda_1| + ||products||_F sizes the summed terms for
    `orbit_membership`."""
    inst = gq.instance
    T = inst.irregular
    n = inst.n
    lam1 = gq.markings[("t", j)][0]
    out = np.zeros((n, n), dtype=complex)
    src = f"t{j}.1"
    if src in rep.dims:  # else a length-one marking: scalar residue
        slices = _block_slices(T)
        for p in range(T.block_count):
            fwd = rep.fwd[f"{src}>p{p}"]
            for q in range(T.block_count):
                rev = rep.rev[f"{src}>p{q}"]
                out[slices[p], slices[q]] = out[slices[p], slices[q]] + np.dot(fwd, rev)
    scale = abs(lam1) + _fro(out)
    out.flat[:: n + 1] += lam1
    return out, scale


def exponent_blocks(gq: GlobalQuiver, rep: DoubledRep, residues) -> dict:
    """The block exponents forced by the moment equations:
    L_b = -(core bracket)_bb - sum_t (R_t)_bb, given the residues R_t.

    Maps b to (L_b, scale), where scale = ||(core bracket)_bb||_F +
    sum_t ||(R_t)_bb||_F sizes the terms that cancel: a zero exponent
    orbit leaves L_b at round-off of that size, which `orbit_membership`
    must read as 0, not as full rank against ||L_b||."""
    T = gq.instance.irregular
    # block-diagonal of the summed core commutators [Q_i, P_i]
    mu = moment_map(_core_rep_of(gq, rep))
    out = {}
    for b, sl in enumerate(_block_slices(T)):
        acc = -mu[f"p{b}"]
        scale = _fro(acc)
        for r in residues:
            acc = acc - r[sl, sl]
            scale += _fro(r[sl, sl])
        out[b] = acc, scale
    return out


def _conversion(gq: GlobalQuiver, rep: DoubledRep, rtol: float):
    """Run the checks a conversion to a connection rests on, each once and
    in report order: the moment residual, the leg conditions, the residue
    orbits and the exponent orbits.  Build the connection when all hold.

    Returns (checks, connection, error): the report entries {name, ok,
    detail}, and either the connection or the first failure.  That is a
    `ValueError` naming the failed check, or what the orbit
    reconstruction raised.  The polynomial part comes
    from the core coordinates through that reconstruction and the
    affine dictionary, the residues from the finite-pole foot arrows.
    """
    inst, T = gq.instance, gq.instance.irregular
    checks, failures = [], []

    def check(name, ok, detail, failure):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            failures.append(failure)

    resid = moment_residual(gq, rep)
    scale = max(1.0, rep.norm() ** 2)
    check("moment_residual", resid <= rtol * scale, f"{resid:.3e}",
          f"moment residual {resid:.3e} above tolerance")
    fails = "; ".join(_leg_condition_failures(gq, rep, rtol))
    check("leg_conditions", not fails, fails, "leg conditions failed: " + fails)
    residues = []
    for j, pole in enumerate(inst.poles):
        r, scale = assemble_residue(gq, rep, j)
        residues.append(r)
        check(f"residue_orbit_t{j}", orbit_membership(r, pole.orbit, rtol, scale), "",
              f"residue at pole {j} leaves its declared orbit")
    for b, (lb, scale) in exponent_blocks(gq, rep, residues).items():
        check(f"exponent_orbit_p{b}", orbit_membership(lb, inst.residue_blocks[b], rtol, scale),
              "", f"exponent at block {b} leaves its declared orbit")
    conn = error = None
    if failures:
        error = ValueError(failures[0])
    else:
        try:
            B = qp_to_orbit(T, rep_to_qp(T, _core_rep_of(gq, rep)))
        except ValueError as e:  # an OrbitMembershipError too
            error = e
        else:
            poly = tuple(-B.coeffs[i + 1] for i in range(T.k - 1))
            positions = tuple(p.position for p in inst.poles)
            conn = ConnectionData(inst.n, poly, tuple(residues), positions)
    return checks, conn, error


def rep_to_connection(gq: GlobalQuiver, rep: DoubledRep) -> ConnectionData:
    """Convert a moment-map solution with valid leg data to a connection,
    or raise the first failure of `_conversion` (relative tolerance 1e-8).
    gq must be a float quiver, as for `realize_numeric`; an exact one is
    a TypeError."""
    _require_float(gq, "rep_to_connection")
    *_, conn, error = _conversion(gq, rep, 1e-8)
    if error is not None:
        raise error
    return conn


def connection_to_rep(gq: GlobalQuiver, conn: ConnectionData) -> DoubledRep:
    """Inverse of rep_to_connection up to the symmetry group.

    Membership failures (relative tolerance 1e-8) carry the name of the
    offending pole.  The leg realizations are canonical for the greedy
    markings, so the round trip reproduces the connection exactly, not
    only up to conjugation.  gq must be a float quiver, as for
    `rep_to_connection`.
    """
    _require_float(gq, "connection_to_rep")
    inst = gq.instance
    T = inst.irregular
    n, k = inst.n, T.k
    slots = [np.zeros((n, n), dtype=complex) for _ in range(k)]
    for i, c in enumerate(conn.poly[: k - 1]):
        slots[i + 1] = -c
    B = PrincipalPart(n, k, tuple(slots), "polar")
    try:
        qp = orbit_to_qp(T, B)
    except OrbitMembershipError as e:
        raise OrbitMembershipError(
            f"polynomial part not in the orbit at infinity: {e}", e.residual
        ) from None
    core_rep = qp_to_rep(T, qp)
    rep = DoubledRep.zero(gq.quiver, gq.dims)
    for a in core_rep.quiver.arrows:
        rep.fwd[a.id] = core_rep.fwd[a.id]
        rep.rev[a.id] = core_rep.rev[a.id]
    slices = _block_slices(T)
    for j, pole in enumerate(inst.poles):
        r = conn.residues[j]
        if not orbit_membership(r, pole.orbit):
            raise ValueError(f"residue at pole {j} is not in its declared orbit")
        leg = realize_leg(r, gq.markings[("t", j)])
        _install_leg(rep, leg, f"t{j}.", foot_blocks=slices)
    residues = [assemble_residue(gq, rep, j)[0] for j in range(len(inst.poles))]
    for b, (lb, scale) in exponent_blocks(gq, rep, residues).items():
        if not orbit_membership(lb, inst.residue_blocks[b], scale=scale):
            raise ValueError(f"exponent at block {b} is not in its declared orbit")
        leg = realize_leg(lb, gq.markings[("p", b)])
        _install_leg(rep, leg, f"p{b}.", foot_vertex=f"p{b}")
    return rep


def _install_leg(rep: DoubledRep, leg, prefix: str, foot_blocks=None, foot_vertex=None):
    """Copy a leg realization into the global representation.

    The leg's own vertices "1", "2", ... become prefix1, prefix2, ...;
    the arrow into the ambient vertex "0" becomes the foot arrows,
    split over core blocks for finite poles.
    """
    lr = leg.rep
    for a in lr.quiver.arrows:
        src_l = int(a.src)
        if a.dst != "0":
            rep.fwd[f"{prefix}{src_l}>{prefix}{a.dst}"] = lr.fwd[a.id]
            rep.rev[f"{prefix}{src_l}>{prefix}{a.dst}"] = lr.rev[a.id]
            continue
        if foot_vertex is not None:
            rep.fwd[f"{prefix}1>{foot_vertex}"] = lr.fwd[a.id]
            rep.rev[f"{prefix}1>{foot_vertex}"] = lr.rev[a.id]
        else:
            for b, sl in enumerate(foot_blocks):
                rep.fwd[f"{prefix}1>p{b}"] = lr.fwd[a.id][sl, :]
                rep.rev[f"{prefix}1>p{b}"] = lr.rev[a.id][:, sl]


def connection_stability(conn: ConnectionData):
    """Stability of the coefficients' action on C^n, with its certificate.

    A scalar added to a coefficient leaves its invariant subspaces
    alone, so each coefficient is taken with trace 0: shifting a pole's
    residue by c and the exponents by -c then changes nothing, where a
    large scalar part would swamp every eigenvalue gap of Norton's theta.
    """
    gens = list(conn.poly) + list(conn.residues) + [conn.residue_at_infinity()]
    eye = np.eye(conn.n, dtype=complex)
    return stability([g - np.trace(g) / conn.n * eye for g in gens], conn.n)


def is_stable_connection(conn: ConnectionData) -> bool:
    """No proper non-zero subspace preserved by every coefficient."""
    return connection_stability(conn).stable


# ---------------------------------------------------------------------------
# numeric realization


def _pack(gq: GlobalQuiver, rep: DoubledRep) -> np.ndarray:
    parts = []
    for a in gq.quiver.arrows:
        parts.append(np.asarray(rep.fwd[a.id], dtype=complex).reshape(-1))
        parts.append(np.asarray(rep.rev[a.id], dtype=complex).reshape(-1))
    return np.concatenate(parts) if parts else np.zeros(0, dtype=complex)


def _unpack(gq: GlobalQuiver, x: np.ndarray) -> DoubledRep:
    rep = DoubledRep.zero(gq.quiver, gq.dims, exact=False)
    pos = 0
    for a in gq.quiver.arrows:
        ds, dt = gq.dims[a.src], gq.dims[a.dst]
        rep.fwd[a.id] = x[pos : pos + ds * dt].reshape(dt, ds)
        pos += ds * dt
        rep.rev[a.id] = x[pos : pos + ds * dt].reshape(ds, dt)
        pos += ds * dt
    return rep


@dataclass(frozen=True)
class _MomentPlan:
    """mu - zeta on packed coordinates, as fixed index arrays.

    The moment map is bilinear, so entry p of the stacked vertex blocks
    (row-major, vertices in quiver order) is a sum of terms
    sign * x[left] * x[right], one per (row, left, right, sign), minus
    zeta_flat[p].  The Jacobian entry (row, left) gains sign * x[right]
    and (row, right) gains sign * x[left]; jac_index holds those flat
    positions and jac_factor the coordinates they read.
    """

    rows: int
    cols: int
    row: np.ndarray
    left: np.ndarray
    right: np.ndarray
    sign: np.ndarray
    zeta_flat: np.ndarray
    jac_index: np.ndarray
    jac_factor: np.ndarray
    jac_sign: np.ndarray

    @staticmethod
    def build(gq: GlobalQuiver) -> "_MomentPlan":
        row_off, zeta_flat, rows = {}, [], 0
        for v in gq.quiver.vertices:
            row_off[v] = rows
            rows += gq.dims[v] ** 2
            zeta_flat.append((as_complex(gq.zeta[v]) * np.eye(gq.dims[v])).reshape(-1))
        empty = np.zeros(0, dtype=np.intp)
        terms, cols = [(empty, empty, empty, 1.0)], 0
        for a in gq.quiver.arrows:
            ds, dt = gq.dims[a.src], gq.dims[a.dst]
            f = cols + np.arange(dt * ds).reshape(dt, ds)
            r = cols + dt * ds + np.arange(ds * dt).reshape(ds, dt)
            cols += 2 * ds * dt
            # mu[dst][i, k] += f[i, j] r[j, k]
            i, j, k = np.indices((dt, ds, dt))
            terms.append((row_off[a.dst] + i * dt + k, f[i, j], r[j, k], 1.0))
            # mu[src][j, l] -= r[j, i] f[i, l]
            j, i, l = np.indices((ds, dt, ds))
            terms.append((row_off[a.src] + j * ds + l, r[j, i], f[i, l], -1.0))
        row, left, right = (np.concatenate([t[c].reshape(-1) for t in terms]) for c in range(3))
        sign = np.concatenate([np.full(t[0].size, t[3]) for t in terms])
        return _MomentPlan(
            rows, cols, row, left, right, sign, np.concatenate(zeta_flat),
            jac_index=np.concatenate([row * cols + left, row * cols + right]),
            jac_factor=np.concatenate([right, left]),
            jac_sign=np.concatenate([sign, sign]),
        )


def _scatter_add(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sum complex values into a vector of the given size by index;
    repeated indices accumulate."""
    return np.bincount(index, values.real, size) + 1j * np.bincount(index, values.imag, size)


def _residual_vector(gq: GlobalQuiver, x: np.ndarray) -> np.ndarray:
    """mu(x) - zeta stacked over the vertices, x in packed coordinates."""
    plan = gq.moment_plan
    terms = plan.sign * x[plan.left] * x[plan.right]
    return _scatter_add(plan.row, terms, plan.rows) - plan.zeta_flat


def moment_jacobian(gq: GlobalQuiver, x: np.ndarray) -> np.ndarray:
    """Complex Jacobian of _residual_vector at the packed point x.

    Rows follow the stacked vertex blocks, columns the packed arrow
    coordinates; the map is holomorphic, so this one complex matrix is
    the whole derivative.  Assembled by one scatter from the compiled
    moment plan.
    """
    plan = gq.moment_plan
    values = plan.jac_sign * x[plan.jac_factor]
    return _scatter_add(plan.jac_index, values, plan.rows * plan.cols).reshape(
        plan.rows, plan.cols
    )


def _damped_steps(jac: np.ndarray, r: np.ndarray):
    """lam -> the step -(J^H J + lam I)^{-1} J^H r.

    The Gram matrix is formed once, on the smaller side of J: with
    rows <= cols the step is -J^H y for (J J^H + lam I) y = r, otherwise
    it is -y for (J^H J + lam I) y = J^H r.  Each call adds lam to the
    diagonal and does one solve.  The damped matrix is
    Hermitian positive definite for lam > 0; should rounding still make
    it exactly singular, the call raises `np.linalg.LinAlgError`.
    """
    rows, cols = jac.shape
    jh = jac.conj().T
    wide = rows <= cols
    gram = jac @ jh if wide else jh @ jac
    rhs = r if wide else jh @ r
    eye = np.eye(len(gram))

    def step(lam):
        y = np.linalg.solve(gram + lam * eye, rhs)
        return -(jh @ y) if wide else -y

    return step


def _lm_minimize(gq: GlobalQuiver, x0: np.ndarray, max_iter: int = 500):
    """Levenberg-Marquardt (damped Gauss-Newton) on ||mu(x) - zeta||^2.

    x is the packed coordinate vector.  Each iteration builds the
    Jacobian once and first tests first-order stationarity: it stops
    when ||J^H r|| <= 1e-8 * ||J||_F * ||r|| (More's test, compared
    squared), before any factorization.  Otherwise it forms the Gram matrix once
    (`_damped_steps`), and each of up to 25 damping trials costs one
    Hermitian solve and one residual evaluation.  The first trial with a
    lower cost is taken and lam shrinks by 3 (floor 1e-14); a rejected
    trial multiplies lam by 4.

    Returns (x, cost, iterations, trials, stop), where iterations counts
    the iterations that tried a step and stop is "converged" (cost below
    1e-28), "stationary" (the gradient test above), "stalled" (five
    accepted steps in a row each cut the cost by a relative 1e-12 or
    less), "damping-overflow" (no trial lowered the cost before lam
    passed 1e12 or the 25-trial cap) or "iteration-limit".
    """
    x = x0.copy()
    r = _residual_vector(gq, x)
    cost = float(np.vdot(r, r).real)
    lam = 1e-3
    stall = iterations = trials = 0
    for _ in range(max_iter):
        if cost < 1e-28:
            stop = "converged"
            break
        jac = moment_jacobian(gq, x)
        grad = r.conj() @ jac  # the conjugate of J^H r, with the same norm
        if np.vdot(grad, grad).real <= 1e-16 * np.vdot(jac, jac).real * cost:
            stop = "stationary"
            break
        step = _damped_steps(jac, r)
        iterations += 1
        accepted = False
        for _ in range(25):
            trials += 1
            try:
                x_new = x + step(lam)
            except np.linalg.LinAlgError:
                pass  # exactly singular: a rejected trial
            else:
                r_new = _residual_vector(gq, x_new)
                cost_new = float(np.vdot(r_new, r_new).real)
                if cost_new < cost:
                    rel_drop = (cost - cost_new) / max(cost, 1e-300)
                    x, r, cost = x_new, r_new, cost_new
                    lam = max(lam / 3.0, 1e-14)
                    stall = stall + 1 if rel_drop < 1e-12 else 0
                    accepted = True
                    break
            lam *= 4.0
            if lam > 1e12:
                break
        if stall >= 5:
            stop = "stalled"
            break
        if not accepted:
            stop = "damping-overflow"
            break
    else:
        stop = "converged" if cost < 1e-28 else "iteration-limit"
    return x, cost, iterations, trials, stop


@dataclass
class RealizeResult:
    rep: DoubledRep | None
    residual: float
    attempts: int
    seed: int
    records: list = field(default_factory=list)  # one dict per restart
    trace_floor: float = 0.0  # lower bound on every restart's residual
    stop: str = "attempts-exhausted"  # or "converged-stable", "trace-floor"
    stability: object = None  # the quiver.Stability of rep, when rep is set

    @property
    def success(self) -> bool:
        return self.rep is not None

    @property
    def stats(self) -> dict:
        return {
            "restarts": len(self.records),
            "lm_iterations": sum(r["iterations"] for r in self.records),
            "damping_trials": sum(r["trials"] for r in self.records),
            "trace_floor": self.trace_floor,
            "stop": self.stop,
            "attempts": self.records,
        }


def _require_float(gq: GlobalQuiver, name: str):
    if gq.instance.exact:
        raise TypeError(f"{name} needs a float quiver; build it from instance.as_float()")


def realize_numeric(
    gq: GlobalQuiver,
    attempts: int = 50,
    seed: int = 0,
    max_iter: int = 500,
) -> RealizeResult:
    """Search for a stable moment-map solution by restarted damped
    Gauss-Newton from random starts.

    Success requires the residual below 1e-8 * ||Xi||^2 and stability;
    failure of all restarts is reported as such (it is evidence, not a
    proof of emptiness).  Deterministic for a fixed seed: restart r
    draws from a generator seeded with (seed, r).  Each restart leaves a
    record: LM iterations, damping trials, residual, and the stop
    reason, which is "converged-stable", "converged-unstable" or
    "converged-unresolved" (no simple eigenvalue to decide stability by)
    when the residual meets the tolerance (or the LM's 1e-28 cost floor)
    and the LM's own reason otherwise; the witness keeps its `stability`.

    gq must be a float quiver: `build_global_quiver(instance.as_float())`;
    an exact one is a TypeError.  mu - zeta has trace -zeta . v at every
    point, so no residual falls below the trace floor
    |gq.zeta_v| / sqrt(sum v_i), which the result reports.  The float copy
    of an exact instance carries the exact zeta . v, so the floor of a
    feasible one is exactly 0, and a non-zero one proves mu^-1(zeta)
    empty (condition 2 of the criterion): the result comes at once, with
    no restart, residual equal to the floor and stop "trace-floor".  The
    float zeta . v of float input is never taken as proof, so it runs
    every restart.  The result's stop is otherwise "converged-stable"
    with a witness and "attempts-exhausted" without.
    """
    _require_float(gq, "realize_numeric")
    if attempts < 1:
        raise ValueError(f"attempts must be at least 1, got {attempts}")
    floor = abs(as_complex(gq.zeta_v)) / sum(gq.dims.values()) ** 0.5
    if isinstance(gq.zeta_v, GaussianRational) and gq.zeta_v:
        return RealizeResult(None, floor, 0, seed, [], floor, "trace-floor")
    best = float("inf")
    records = []
    size = gq.moment_plan.cols
    for attempt in range(attempts):
        rng = np.random.default_rng((seed, attempt))
        x0 = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        x, cost, iterations, trials, stop = _lm_minimize(gq, x0, max_iter=max_iter)
        resid = cost ** 0.5
        best = min(best, resid)
        if resid <= 1e-8 * np.linalg.norm(x) ** 2:  # ||x|| is the norm of the rep
            rep = _unpack(gq, x)
            cert = rep_stability(rep, gq.zeta)
            stop = "converged-stable" if cert.stable else (
                "converged-unresolved" if cert.dim is None else "converged-unstable")
        elif stop == "converged":
            stop = "converged-unstable"  # at the cost floor, but too close to 0
        records.append({"iterations": iterations, "trials": trials, "residual": resid, "stop": stop})
        if stop == "converged-stable":
            return RealizeResult(rep, resid, attempt + 1, seed, records, floor, stop, cert)
    return RealizeResult(None, best, attempts, seed, records, floor)


def kernel_dimension_check(gq: GlobalQuiver, rep: DoubledRep):
    """dim ker(dmu) - (sum v_i^2 - 1) at the point, to compare with
    2 * delta(v); returns (lhs, rhs).  The rank of dmu counts singular
    values above 1e-6 of the largest."""
    jac = moment_jacobian(gq, _pack(gq, rep))
    rk = linalg.rank(jac, 1e-6)
    dof = jac.shape[1]
    group = sum(d * d for d in gq.dims.values())
    lhs = (dof - rk) - (group - 1)
    rhs = 2 * delta(gq.quiver, gq.dims)
    return lhs, rhs


def _trace_rounding_bound(gq: GlobalQuiver) -> float:
    """A worst-case bound on |zeta . v| of a float instance whose
    declared scalars are within rounding of a trace-zero one.

    S = sum_x v_x (sum of |scalars| that form zeta_x) bounds every term
    and partial sum of the float zeta . v.  To first order its error is
    at most (N + P + 1) eps/2 S for N vertices and P finite poles: one
    rounding of each declared scalar, P in forming a core zeta_p, one
    in the product with v_x and N - 1 in the fold.  The bound returned
    is (N + P) eps S, about twice that.
    """
    poles = len(gq.instance.poles)
    first = sum(abs(gq.markings[("t", j)][0]) for j in range(poles))
    total = 0.0
    for (kind, i), marking in gq.markings.items():
        if kind == "p":  # zeta_p = -l_{p,1} - sum_t l_{t,1}
            total += gq.dims[f"p{i}"] * (abs(marking[0]) + first)
        for l in range(1, len(marking)):  # zeta_{x,l} = l_{x,l} - l_{x,l+1}
            total += gq.dims.get(f"{kind}{i}.{l}", 0) * (abs(marking[l - 1]) + abs(marking[l]))
    return (len(gq.dims) + poles) * np.finfo(float).eps * total


def verify_instance(
    gq: GlobalQuiver, rep: DoubledRep, rtol: float = 1e-8, certificate=None
) -> dict:
    """Pure report aggregating every invariant check on a representation.

    gq must be a float quiver, as for `realize_numeric`; an exact one is
    a TypeError.  trace_identity reads `gq.zeta_v`.  On the float copy of
    an exact instance it is exact: one that is not 0 means no point has
    the prescribed traces, so the check fails and names it, and an exact
    0 passes it.  On float input it is the declared orbits' own float
    trace defect, tested against `_trace_rounding_bound(gq)`.  A given
    `certificate` stands in for `rep_stability(rep, gq.zeta)`.  An
    unresolved one (no simple eigenvalue) fails stability_rep, and the
    checks that use the rep's verdict do not run; an unresolved
    connection verdict fails stability_transport.  Raises ValueError
    unless `rtol` is finite and > 0."""
    _require_float(gq, "verify_instance")
    checks, conn, error = _conversion(gq, rep, linalg.require_rtol(rtol))

    def record(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": str(detail)})

    total = gq.zeta_v
    if not isinstance(total, GaussianRational):
        bound = _trace_rounding_bound(gq)
        record("trace_identity", abs(total) <= bound,
               f"|zeta . v| = {abs(total):.3e}, bound {bound:.3e}")
    elif total:
        record("trace_identity", False, f"exact zeta . v = {total}, not 0")
    else:  # traces assembled from a point cancel at every point
        record("trace_identity", True, "exact zeta . v = 0")

    stable_rep = None
    try:
        if certificate is None:
            certificate = rep_stability(rep, gq.zeta)
        if certificate.dim is None:
            record("stability_rep", False, certificate.detail)
        else:
            stable_rep = certificate.stable
            record("stability_rep", True, certificate.detail)
    except ValueError as e:
        record("stability_rep", False, e)

    record("connection_conversion", conn is not None, error or "")
    if conn is not None and stable_rep is not None:
        conn_cert = connection_stability(conn)
        if conn_cert.dim is None:
            record("stability_transport", False,
                   f"rep={stable_rep} connection {conn_cert.detail}")
        else:
            record(
                "stability_transport",
                conn_cert.stable == stable_rep,
                f"rep={stable_rep} connection={conn_cert.stable}",
            )
        if stable_rep:
            lhs, rhs = kernel_dimension_check(gq, rep)
            record("dimension_formula", lhs == rhs, f"lhs={lhs} rhs={rhs}")
    ok = all(c["ok"] for c in checks)
    return {"all_ok": ok, "checks": checks}


# ---------------------------------------------------------------------------
# JSON schemas


def instance_to_json(instance: ProblemInstance) -> dict:
    from .irregular import irregular_type_to_json
    from .orbits import orbit_spec_to_json
    from .serialize import scalar_to_json

    return {
        "schema_version": 1,
        "rank": instance.n,
        "infinity": {
            "irregular_type": irregular_type_to_json(instance.irregular),
            "residue_blocks": [orbit_spec_to_json(s) for s in instance.residue_blocks],
        },
        "finite_poles": [
            {"position": scalar_to_json(p.position), "orbit": orbit_spec_to_json(p.orbit)}
            for p in instance.poles
        ],
    }


def instance_from_json(data: dict, exact: bool) -> ProblemInstance:
    from .irregular import irregular_type_from_json
    from .orbits import orbit_spec_from_json
    from .serialize import scalar_from_json

    n = data["rank"]
    T = irregular_type_from_json(data["infinity"]["irregular_type"], exact)
    blocks_json = data["infinity"]["residue_blocks"]
    if len(blocks_json) != T.block_count:
        raise ValueError("need one residue_blocks entry per irregular block")
    # residue_blocks are written in the same order as the input blocks;
    # the type canonicalizes block order, so route through the recorded
    # permutation
    residue_blocks = tuple(
        orbit_spec_from_json(blocks_json[T.source_indices[b]], T.blocks[b].mult, exact)
        for b in range(T.block_count)
    )
    poles = tuple(
        FinitePole(
            scalar_from_json(p["position"], exact),
            orbit_spec_from_json(p["orbit"], n, exact),
        )
        for p in data.get("finite_poles", [])
    )
    return ProblemInstance(n, T, residue_blocks, poles)


def rep_to_json(gq: GlobalQuiver, rep: DoubledRep) -> dict:
    from .serialize import matrix_to_json

    return {
        "schema_version": 1,
        "dims": {v: int(d) for v, d in rep.dims.items()},
        "maps": {
            a.id: {"fwd": matrix_to_json(rep.fwd[a.id]), "rev": matrix_to_json(rep.rev[a.id])}
            for a in gq.quiver.arrows
        },
    }


def rep_from_json(gq: GlobalQuiver, data: dict) -> DoubledRep:
    """A float representation from its JSON form (see rep_to_json)."""
    from .serialize import matrix_from_json

    for v, d in data.get("dims", {}).items():
        if type(d) is not int:  # rejects bool too, an int subclass
            raise ValueError(f"dimension at vertex {v} must be a JSON integer, got {d!r}")
        if gq.dims.get(v) != d:
            raise ValueError(f"dimension mismatch at vertex {v}")
    rep = DoubledRep.zero(gq.quiver, gq.dims)
    for a in gq.quiver.arrows:
        entry = data["maps"][a.id]
        ds, dt = gq.dims[a.src], gq.dims[a.dst]
        rep.fwd[a.id] = matrix_from_json(entry["fwd"], dt, ds, False)
        rep.rev[a.id] = matrix_from_json(entry["rev"], ds, dt, False)
    return rep
