"""Norton's stability test against the density closure and on ladder points.

The corpus is seeded; each case is a quiver with a dimension vector that
admits simple modules of the doubled quiver, with total dimension at most
12 (the isotypic S + S included).  Maps have unit spectral norm and every
point is moved by a random GL of condition number at most 2, so a
coupling of norm eps stays within a factor 4 of eps in the moved frame.
``coupled`` builds a point with a proper invariant subspace and couples
it back by blocks of norm eps: eps = 0 is exactly reducible, and any
eps > 0 is irreducible in exact arithmetic.  Both tests read a coupling
below the cutoff 1e-8 as zero, so at 1e-12 and 1e-10 they must say
unstable.  At 1e-6 and 1e-4 Norton's spin picks the coupling up and
says stable.  The density closure is not reliable there: its cutoff is
relative to the largest singular value of all N^2 stacked words, and at
1e-6 it says unstable on 2 of these 24 points (both star2) and on 15 of
216 more seeded points.  Those couplings are therefore asserted against
the expected verdict, not against the oracle.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import rand_complex
from dsirr import assembly
from dsirr.assembly import (
    FinitePole,
    ProblemInstance,
    build_global_quiver,
    instance_from_json,
    realize_numeric,
    verify_instance,
)
from dsirr.irregular import make_irregular_type
from dsirr.orbits import make_orbit_spec
from dsirr.quiver import (
    DoubledRep,
    Stability,
    is_stable,
    make_quiver,
    rep_stability,
    total_endomorphism_generators,
)
from dsirr.scalars import GaussianRational as G
from oracles import density_is_dense
from test_assembly import star_instance

DATA = Path(__file__).parent / "data"

# quiver, dimension vector, and the sub-dimension vector `coupled` splits
# off: the sub- and quotient modules are simple and not isomorphic
CASES = {
    "a2": (make_quiver(["1", "2"], [("a", "1", "2")]), {"1": 1, "2": 1}, {"1": 1, "2": 0}),
    "kronecker22": (
        make_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]),
        {"1": 2, "2": 2},
        {"1": 1, "2": 1},
    ),
    "kronecker21": (
        make_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]),
        {"1": 2, "2": 1},
        {"1": 1, "2": 0},
    ),
    "loop3": (make_quiver(["1"], [("a", "1", "1")]), {"1": 3}, {"1": 1}),
    "star": (
        make_quiver(["c", "x", "y", "z"], [("a", "x", "c"), ("b", "y", "c"), ("d", "z", "c")]),
        {"c": 2, "x": 1, "y": 1, "z": 1},
        {"c": 1, "x": 1, "y": 0, "z": 0},
    ),
    "star2": (
        make_quiver(["c", "x", "y"], [("a", "x", "c"), ("b", "y", "c")]),
        {"c": 2, "x": 2, "y": 1},
        {"c": 1, "x": 1, "y": 1},
    ),
}
SEEDS = range(4)


def random_rep(rng, quiver, dims):
    """Gaussian maps scaled to unit spectral norm."""

    def unit(rows, cols):
        m = rand_complex(rng, rows, cols)
        return m / max(np.linalg.norm(m, 2), 1e-300)

    fwd = {a.id: unit(dims[a.dst], dims[a.src]) for a in quiver.arrows}
    rev = {a.id: unit(dims[a.src], dims[a.dst]) for a in quiver.arrows}
    return DoubledRep(quiver, dict(dims), fwd, rev)


def conjugate(rng, rep):
    """Move rep by a random g in GL at every vertex, of condition number <= 2."""
    g = {}
    for v, d in rep.dims.items():
        q, _ = np.linalg.qr(rand_complex(rng, d, d))
        g[v] = q * rng.uniform(1.0, 2.0, d)
    fwd = {a.id: g[a.dst] @ rep.fwd[a.id] @ np.linalg.inv(g[a.src]) for a in rep.quiver.arrows}
    rev = {a.id: g[a.src] @ rep.rev[a.id] @ np.linalg.inv(g[a.dst]) for a in rep.quiver.arrows}
    return DoubledRep(rep.quiver, rep.dims, fwd, rev)


def coupled(rng, quiver, dims, sub, eps):
    """A point whose first sub[v] coordinates at each vertex v span an
    invariant subspace, coupled back by blocks of norm eps, then moved by
    a random GL."""
    rep = random_rep(rng, quiver, dims)
    for a in quiver.arrows:
        s, t = sub[a.src], sub[a.dst]
        for m in (rep.fwd[a.id][t:, :s], rep.rev[a.id][s:, :t]):
            if m.size:
                m *= eps / np.linalg.norm(m, 2)
    return conjugate(rng, rep)


def isotypic(rng, quiver, dims):
    """S + S for a random S, moved by a random GL."""
    s = random_rep(rng, quiver, dims)
    fwd = {k: np.kron(np.eye(2), m) for k, m in s.fwd.items()}
    rev = {k: np.kron(np.eye(2), m) for k, m in s.rev.items()}
    return conjugate(rng, DoubledRep(quiver, {v: 2 * d for v, d in dims.items()}, fwd, rev))


def oracle(rep):
    return density_is_dense(*total_endomorphism_generators(rep))


def corpus(kind):
    for name, (quiver, dims, sub) in CASES.items():
        for seed in SEEDS:
            rng = np.random.default_rng((seed, len(name), sum(map(ord, name))))
            if kind == "random":
                yield name, random_rep(rng, quiver, dims)
            elif kind == "isotypic":
                yield name, isotypic(rng, quiver, dims)
            else:
                yield name, coupled(rng, quiver, dims, sub, kind)


@pytest.mark.parametrize("kind, expected", [
    ("random", True),
    (0.0, False),
    (1e-12, False),
    (1e-10, False),
    ("isotypic", False),
])
def test_norton_agrees_with_density_oracle(kind, expected):
    points = list(corpus(kind))
    assert len(points) == len(CASES) * len(SEEDS)
    for name, rep in points:
        assert sum(rep.dims.values()) <= 12
        certificate = rep_stability(rep)
        assert certificate.stable is expected, (name, certificate.detail)
        assert oracle(rep) is expected, name
        assert rep_stability(rep) == certificate  # deterministic
        if kind == "isotypic":
            assert certificate.dim is None  # every eigenvalue of theta is double
        elif not expected:
            assert 0 < certificate.dim < certificate.total


@pytest.mark.parametrize("eps", [1e-6, 1e-4])
def test_norton_sees_small_couplings(eps):
    # expected value, not the oracle: see the module docstring
    for name, rep in corpus(eps):
        certificate = rep_stability(rep)
        assert certificate.stable, (name, certificate.detail)
        assert certificate.dim == certificate.total


def _realize(name, seed, attempts=50):
    with open(DATA / name, encoding="utf-8") as f:
        inst = instance_from_json(json.load(f), exact=True)
    gq = build_global_quiver(inst.as_float())
    return gq, realize_numeric(gq, attempts=attempts, seed=seed)


@pytest.mark.parametrize("seed", [16, 41])
def test_split_ladder_point_passes_verification(seed):
    # the density closure spans only 15 of the 16 dimensions of the 4x4
    # connection algebra here, so stability_transport used to fail
    gq, res = _realize(f"ladder_s4x2k2_seed{seed}.json", seed)
    assert res.success
    report = verify_instance(gq, res.rep)
    assert report["all_ok"], report
    details = {c["name"]: c["detail"] for c in report["checks"]}
    bound = res.stability.bound
    assert res.stability.measure == "trace_gap" and 0 < bound < 1e-10
    assert details["stability_rep"] == (
        f"stable=True trace_gap: |zeta . w| > B = {bound:.3e} for all 0 < w < v")
    assert rep_stability(res.rep).detail == "stable=True invariant_dim=10/10"


def test_near_resonant_point_is_realized_early():
    # min |zeta . w| = 1.25e-3: the density test rejected the first 19
    # moment solutions the realizer found
    gq, res = _realize("ladder_g4x1k2_seed206.json", 206, attempts=2)
    assert res.success
    assert verify_instance(gq, res.rep)["all_ok"]
    assert is_stable(res.rep)


def test_verify_reports_the_certifying_dimension():
    gq = build_global_quiver(star_instance(G(1), G(2), G(-1), G(-2)).as_float())
    rep = DoubledRep.zero(gq.quiver, gq.dims)
    rep.fwd["t0.1>p0"] = np.array([[1.0]], dtype=complex)
    rep.rev["t0.1>p0"] = np.array([[1.0]], dtype=complex)
    checks = {c["name"]: c for c in verify_instance(gq, rep)["checks"]}
    # the p1 factor decouples: a one-dimensional invariant subspace, or the
    # two-dimensional one of the rest
    assert checks["stability_rep"]["detail"] in ("stable=False invariant_dim=1/3",
                                                 "stable=False invariant_dim=2/3")
    assert checks["stability_transport"]["ok"]


def test_verify_reports_an_isotypic_point_as_unresolved():
    # S + S for a stable point S of a rank-2 star, on the same star with
    # every multiplicity doubled: a moment-map solution on which every
    # eigenvalue of theta is double, so Norton's test decides nothing
    lam1, lam2, mu1 = G(-1, 2), G(-1, 3), G(1, 5)
    mu2 = -(lam1 + lam2 + mu1)
    gq = build_global_quiver(star_instance(lam1, lam2, mu1, mu2).as_float())
    res = realize_numeric(gq, attempts=10, seed=11)
    assert res.success
    T = make_irregular_type(2, [((G(3),), 2), ((G(1),), 2)])
    doubled = ProblemInstance(
        4, T, (make_orbit_spec(2, [(lam1, [1, 1])]), make_orbit_spec(2, [(lam2, [1, 1])])),
        (FinitePole(G(1), make_orbit_spec(4, [(mu1, [1, 1]), (mu2, [1, 1])])),))
    gq2 = build_global_quiver(doubled.as_float())
    assert gq2.quiver == gq.quiver and gq2.dims == {v: 2 * d for v, d in gq.dims.items()}
    rep = DoubledRep(gq.quiver, gq2.dims,
                     {k: np.kron(np.eye(2), m) for k, m in res.rep.fwd.items()},
                     {k: np.kron(np.eye(2), m) for k, m in res.rep.rev.items()})
    report = verify_instance(gq2, rep)
    checks = {c["name"]: c for c in report["checks"]}
    assert not report["all_ok"]
    assert [c["name"] for c in report["checks"] if not c["ok"]] == ["stability_rep"]
    assert checks["stability_rep"]["detail"].startswith(
        "unresolved: no simple eigenvalue in 4 tries; largest relative gap ")
    assert checks["stability_rep"]["detail"].endswith(" <= NORTON_GAP 0.001")
    assert "stability_transport" not in checks and "dimension_formula" not in checks


def test_verify_reports_an_unresolved_connection_verdict(monkeypatch):
    # the rep's own test decides (quiver.stability); the connection's is
    # made to find no simple eigenvalue
    gq, res = _realize("ladder_g4x1k2_seed206.json", 206, attempts=2)
    assert res.success
    monkeypatch.setattr(assembly, "stability",
                        lambda gens, n: Stability(False, None, n, "invariant_dim", 2e-4))
    report = verify_instance(gq, res.rep)
    checks = {c["name"]: c for c in report["checks"]}
    assert [c["name"] for c in report["checks"] if not c["ok"]] == ["stability_transport"]
    assert checks["stability_rep"]["detail"].startswith("stable=True ")
    assert checks["stability_transport"]["detail"] == (
        "rep=True connection unresolved: no simple eigenvalue in 4 tries; "
        "largest relative gap 2.000e-04 <= NORTON_GAP 0.001")
    assert checks["dimension_formula"]["ok"]
