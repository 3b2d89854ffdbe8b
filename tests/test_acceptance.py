"""Acceptance gate: one test per criterion, at the stated tolerances.

The curated instance families live at the bottom; criteria 7, 8 and 11
share their realizations.
"""

import time
from fractions import Fraction as F

import numpy as np

from conftest import rand_complex
from dsirr import linalg
from dsirr.assembly import (
    FinitePole,
    ProblemInstance,
    build_global_quiver,
    decide_ds,
    is_stable_connection,
    kernel_dimension_check,
    moment_residual,
    realize_numeric,
    rep_to_connection,
)
from dsirr.irregular import (
    QPPair,
    core_quiver,
    factorize,
    make_irregular_type,
    orbit_to_qp,
    qp_to_orbit,
)
from dsirr.jets import ConnectionJet, JetMatrix, coadjoint, gauge, jet_exp, jet_mul, pairing
from dsirr.orbits import greedy_marking, make_orbit_spec, minimal_marking, realize_leg
from dsirr.quiver import DoubledRep, is_stable, moment_map
from dsirr.reduction import bv_chain, normalize
from dsirr.scalars import GaussianRational as G
from dsirr.scalars import scalar_key


def rng():
    return np.random.default_rng(271828)


def g(num, den=1):
    return G(F(num, den))


# --------------------------------------------------------------------------
# criterion 1: the k=4 double-arrow core quiver, exactly, in under 0.1 s


def test_criterion_01_double_arrow_core():
    start = time.perf_counter()
    T = make_irregular_type(4, [((G(0), G(0), G(2)), 1), ((G(0), G(0), G(-3)), 1)])
    quiver, dims = core_quiver(T)
    elapsed = time.perf_counter() - start
    assert len(quiver.vertices) == 2
    assert len(quiver.arrows) == 2
    assert all((a.src, a.dst) == ("p0", "p1") for a in quiver.arrows)
    assert dims == {"p0": 1, "p1": 1}
    assert elapsed < 0.1


# --------------------------------------------------------------------------
# criterion 2: the k=5 four-vertex pattern with multiplicities 3,3,3 / 2,2 / 1


def test_criterion_02_triple_arrow_core():
    start = time.perf_counter()
    T = make_irregular_type(
        5,
        [
            ((G(0), G(0), G(0), G(1)), 1),
            ((G(0), G(0), G(1), G(0)), 1),
            ((G(0), G(1), G(0), G(0)), 1),
            ((G(0), G(0), G(0), G(0)), 1),
        ],
    )
    quiver, _ = core_quiver(T)
    elapsed = time.perf_counter() - start
    counts = {}
    for a in quiver.arrows:
        counts[(a.src, a.dst)] = counts.get((a.src, a.dst), 0) + 1
    assert len(quiver.vertices) == 4
    assert counts == {
        ("p0", "p1"): 3,
        ("p0", "p2"): 3,
        ("p0", "p3"): 3,
        ("p1", "p2"): 2,
        ("p1", "p3"): 2,
        ("p2", "p3"): 1,
    }
    assert elapsed < 0.1


# --------------------------------------------------------------------------
# criterion 3: 200 random types with k <= 3 never have parallel arrows


def _random_type(r, n_max=4, k_min=2, k_max=5):
    k = int(r.integers(k_min, k_max + 1))
    pool = [-2, -1, 0, 1, 2]
    blocks, n = [], 0
    want = int(r.integers(1, 4))
    while len(blocks) < want and n < n_max:
        mult = int(r.integers(1, max(2, n_max - n + 1)))
        coeffs = tuple(
            complex(pool[r.integers(0, 5)], pool[r.integers(0, 5)]) for _ in range(k - 1)
        )
        if any(all(x == y for x, y in zip(coeffs, b[0])) for b in blocks):
            continue
        blocks.append((coeffs, mult))
        n += mult
    return make_irregular_type(k, blocks)


def test_criterion_03_low_pole_order_simply_laced():
    r = rng()
    for _ in range(200):
        T = _random_type(r, k_min=2, k_max=3)
        quiver, _ = core_quiver(T)
        pairs = set()
        for a in quiver.arrows:
            assert (a.src, a.dst) not in pairs, "parallel arrows at pole order <= 3"
            pairs.add((a.src, a.dst))


# --------------------------------------------------------------------------
# criterion 4: triangular decomposition round trips on 100 random instances


def _random_qp(r, T):
    q = [linalg.zeros(T.n, T.n, False) for _ in range(T.k)]
    p = [linalg.zeros(T.n, T.n, False) for _ in range(T.k)]
    for s in range(1, T.k):
        q[s] = T.project(rand_complex(r, T.n, T.n), s, "lower")
        p[s] = T.project(rand_complex(r, T.n, T.n), s, "upper")
    return QPPair(T.n, T.k, tuple(q), tuple(p))


def test_criterion_04_round_trip_and_factorize():
    r = rng()
    start = time.perf_counter()
    for _ in range(100):
        T = _random_type(r, n_max=4, k_min=2, k_max=5)
        qp = _random_qp(r, T)
        orbit = qp_to_orbit(T, qp)
        back = orbit_to_qp(T, orbit)
        scale = max(1.0, qp.norm())
        for s in range(1, T.k):
            assert linalg.mat_norm(back.q[s] - qp.q[s]) <= 1e-10 * scale
            assert linalg.mat_norm(back.p[s] - qp.p[s]) <= 1e-10 * scale
        coeffs = [np.eye(T.n, dtype=complex)] + [
            rand_complex(r, T.n, T.n) for _ in range(T.k - 1)
        ]
        b = JetMatrix(T.n, T.k, tuple(coeffs))
        minus, plus = factorize(T, b)
        prod = jet_mul(minus, plus)
        bscale = max(1.0, max(linalg.mat_norm(c) for c in b.coeffs))
        assert max(
            linalg.mat_norm(x - y) for x, y in zip(prod.coeffs, b.coeffs)
        ) <= 1e-12 * bscale
    assert time.perf_counter() - start < 2.0


# --------------------------------------------------------------------------
# criterion 5: the triangular chart is symplectic (Kirillov pairing against
# the coordinate form, finite-difference pushforward)


def _nilpotent_jet(r, T):
    coeffs = [np.zeros((T.n, T.n), dtype=complex)] + [
        rand_complex(r, T.n, T.n) for _ in range(T.k - 1)
    ]
    return JetMatrix(T.n, T.k, tuple(coeffs))


def _exp_curve(x, h):
    out = JetMatrix.identity(x.n, x.k)
    for i in range(1, x.k):
        out = jet_mul(jet_exp(h * x.coeffs[i], i, x.k), out)
    return out


def _pushforward(T, b, x, h=1e-5):
    plus = orbit_to_qp(T, coadjoint(_exp_curve(x, h), b))
    minus = orbit_to_qp(T, coadjoint(_exp_curve(x, -h), b))
    dq = [(u - v) / (2 * h) for u, v in zip(plus.q, minus.q)]
    dp = [(u - v) / (2 * h) for u, v in zip(plus.p, minus.p)]
    return dq, dp


def test_criterion_05_symplectomorphism():
    r = rng()
    checked = 0
    while checked < 50:
        T = _random_type(r, n_max=3, k_min=3, k_max=4)
        if T.block_count == 1:
            continue
        b = qp_to_orbit(T, _random_qp(r, T))
        x1, x2 = _nilpotent_jet(r, T), _nilpotent_jet(r, T)
        bracket = JetMatrix(
            T.n,
            T.k,
            tuple(u - v for u, v in zip(jet_mul(x1, x2).coeffs, jet_mul(x2, x1).coeffs)),
        )
        kirillov = pairing(bracket, b)
        dq1, dp1 = _pushforward(T, b, x1)
        dq2, dp2 = _pushforward(T, b, x2)
        value = 0j
        for s in range(1, T.k):
            value += np.trace(dq1[s] @ dp2[s]) - np.trace(dq2[s] @ dp1[s])
        assert abs(kirillov - value) <= 1e-6 * max(1.0, abs(kirillov))
        checked += 1


# --------------------------------------------------------------------------
# criterion 6: zeta . v = -(total exponent trace), exactly, on 100 instances


def _random_exact_scalar(r):
    return G(F(int(r.integers(-6, 7)), int(r.integers(1, 5))),
             F(int(r.integers(-6, 7)), int(r.integers(1, 5))))


def _random_exact_orbit(r, n):
    """Random exact Jordan data of size n."""
    values = []
    while True:
        sizes = []
        left = n
        while left:
            s = int(r.integers(1, left + 1))
            sizes.append(s)
            left -= s
        values = [_random_exact_scalar(r) for _ in sizes]
        if len({scalar_key(v) for v in values}) == len(values):
            break
    return make_orbit_spec(n, list(zip(values, [[s] for s in sizes])))


def _random_exact_type(r, n_max=4, k_min=2, k_max=4):
    k = int(r.integers(k_min, k_max + 1))
    blocks, n = [], 0
    want = int(r.integers(1, 4))
    while len(blocks) < want and n < n_max:
        mult = int(r.integers(1, max(2, n_max - n + 1)))
        coeffs = tuple(G(int(r.integers(-2, 3)), int(r.integers(-2, 3))) for _ in range(k - 1))
        if any(all(x == y for x, y in zip(coeffs, b[0])) for b in blocks):
            continue
        blocks.append((coeffs, mult))
        n += mult
    return make_irregular_type(k, blocks)


def _random_exact_instance(r):
    T = _random_exact_type(r)
    blocks = tuple(_random_exact_orbit(r, b.mult) for b in T.blocks)
    poles = []
    positions = set()
    for _ in range(int(r.integers(0, 3))):
        z = G(int(r.integers(-5, 6)), int(r.integers(-5, 6)))
        if scalar_key(z) in positions:
            continue
        positions.add(scalar_key(z))
        poles.append(FinitePole(z, _random_exact_orbit(r, T.n)))
    return ProblemInstance(T.n, T, blocks, tuple(poles))


def test_criterion_06_exact_trace_identity():
    from dsirr.assembly import total_exponent_trace, zeta_dot_v

    r = rng()
    for _ in range(100):
        inst = _random_exact_instance(r)
        gq = build_global_quiver(inst)
        assert zeta_dot_v(gq) == -total_exponent_trace(inst)  # exact equality


# --------------------------------------------------------------------------
# shared curated families (used by criteria 7, 8, 11)


def _scalar_orbit(v):
    return make_orbit_spec(1, [(v, [1])])


def _star(lam1, lam2, mu1, mu2, t1=G(3), t2=G(1)):
    T = make_irregular_type(2, [((t1,), 1), ((t2,), 1)])
    return ProblemInstance(
        2,
        T,
        (_scalar_orbit(lam1), _scalar_orbit(lam2)),
        (FinitePole(G(1), make_orbit_spec(2, [(mu1, [1]), (mu2, [1])])),),
    )


def _double_arrow(c):
    T = make_irregular_type(4, [((G(0), G(0), G(1)), 1), ((G(0), G(0), G(-1)), 1)])
    return ProblemInstance(2, T, (_scalar_orbit(c), _scalar_orbit(-c)), ())


def _k3_two_block_with_pole(shift=G(0)):
    """n = 2, k = 3 two-block core (one arrow) plus one finite pole."""
    T = make_irregular_type(3, [((G(0), G(1)), 1), ((G(0), G(-1)), 1)])
    lam1, lam2 = g(1, 3), g(-1, 4)
    mu1 = g(1, 7)
    mu2 = -(lam1 + lam2 + mu1) + shift
    return ProblemInstance(
        2,
        T,
        (_scalar_orbit(lam1), _scalar_orbit(lam2)),
        (FinitePole(G(2), make_orbit_spec(2, [(mu1, [1]), (mu2, [1])])),),
    )


def _jordan_pole_star(shift=G(0)):
    """Finite pole with a regular (Jordan 2-block) residue orbit."""
    T = make_irregular_type(2, [((G(2),), 1), ((G(-1),), 1)])
    lam1, lam2 = g(2, 5), g(-1, 5)
    mu = -(lam1 + lam2) / G(2) + shift
    return ProblemInstance(
        2,
        T,
        (_scalar_orbit(lam1), _scalar_orbit(lam2)),
        (FinitePole(G(0), make_orbit_spec(2, [(mu, [2])])),),
    )


def _block2_instance(shift=G(0)):
    """One scalar block of multiplicity 2, no finite poles.

    Always empty: with nothing to balance the residue the exponent
    orbit is unreachable, and v = (2, 1) is not a root (condition 1);
    a nonzero trace shift moves the failure to condition 2.
    """
    T = make_irregular_type(2, [((G(1),), 2)])
    spec = make_orbit_spec(2, [(g(1, 2), [1]), (g(-1, 2) + shift, [1])])
    return ProblemInstance(2, T, (spec,), ())


def _infinity_leg_instance(shift=G(0)):
    """k = 3 with a multiplicity-2 block: the exponent there needs a leg."""
    T = make_irregular_type(3, [((G(0), G(1)), 1), ((G(0), G(-1)), 2)])
    lam = g(1, 2)
    nu1, nu2 = g(1, 3), g(-1, 5)
    mu1 = g(1, 7)
    mu2 = -(lam + nu1 + nu2 + 2 * mu1) + shift
    block0 = _scalar_orbit(lam)
    block1 = make_orbit_spec(2, [(nu1, [1]), (nu2, [1])])
    pole = make_orbit_spec(3, [(mu1, [1, 1]), (mu2, [1])])
    return ProblemInstance(3, T, (block0, block1), (FinitePole(G(1), pole),))


def _rank3_star(shift=G(0)):
    """Rank 3, three regular blocks, one pole with a 2+1 orbit."""
    T = make_irregular_type(2, [((G(4),), 1), ((G(2),), 1), ((G(0),), 1)])
    lams = (g(1, 2), g(1, 3), g(1, 5))
    mu1 = g(-1, 7)
    mu2 = -(sum(lams, G(0)) + 2 * mu1) + shift
    orbit = make_orbit_spec(3, [(mu1, [1, 1]), (mu2, [1])])
    return ProblemInstance(
        3, T, tuple(_scalar_orbit(l) for l in lams), (FinitePole(G(1), orbit),)
    )


def nonempty_family():
    return [
        _star(g(-1, 2), g(-1, 3), g(1, 5), g(19, 30)),
        _star(g(1, 2), g(1, 7), g(-1, 3), -(g(1, 2) + g(1, 7) - g(1, 3))),
        _star(g(2, 3), g(-1, 5), g(1, 2), -(g(2, 3) - g(1, 5) + g(1, 2)), t1=G(5), t2=G(-2)),
        _star(G(0, 1), g(1, 3), g(-1, 2), -(G(0, 1) + g(1, 3) - g(1, 2))),
        _double_arrow(g(3, 7)),
        _double_arrow(g(-2, 5)),
        _double_arrow(G(1, 1)),
        _k3_two_block_with_pole(),
        _jordan_pole_star(),
        _infinity_leg_instance(),
        _rank3_star(),
        _star(g(5, 7), g(-2, 9), g(1, 11), -(g(5, 7) + g(-2, 9) + g(1, 11))),
    ]


def empty_family():
    return [
        _star(g(-1, 2), g(-1, 3), g(1, 5), g(19, 30) + G(1)),  # condition 2
        _star(G(1), G(2), G(-1), G(-2)),  # condition 3
        _k3_two_block_with_pole(shift=g(1, 2)),  # condition 2
        _jordan_pole_star(shift=g(1, 3)),  # condition 2
        _block2_instance(),  # condition 1
        _block2_instance(shift=g(2, 3)),  # condition 2
        _rank3_star(shift=G(1)),  # condition 2
        _double_arrow_sum_violation(),  # condition 3 on the double arrow
        _not_a_root_instance(),  # condition 1
    ]


def _double_arrow_sum_violation():
    # zeta = 0 everywhere: e_1 + e_2 decomposes v with equal deltas...
    # delta(v) = 1 > 0 holds, so use v itself twice instead: take the
    # scalar exponents zero and dims forced (1,1); the decomposition
    # e1 + e2 has sum of deltas 0 < 1, fine; to violate condition 3 use
    # zeta = 0 and v = (2, 2): then v = (1,1) + (1,1) gives 2 > 1 + 1
    # false.  Build it by doubling the block multiplicities.
    T = make_irregular_type(4, [((G(0), G(0), G(1)), 2), ((G(0), G(0), G(-1)), 2)])
    b = make_orbit_spec(2, [(G(0), [1, 1])])
    return ProblemInstance(4, T, (b, b), ())


def _not_a_root_instance():
    T = make_irregular_type(2, [((G(3),), 2), ((G(1),), 1)])
    return ProblemInstance(
        3,
        T,
        (make_orbit_spec(2, [(G(0), [1, 1])]), _scalar_orbit(G(0))),
        (),
    )


# --------------------------------------------------------------------------
# criterion 7: kernel dimension of the moment differential


def test_criterion_07_dimension_formula():
    r = rng()
    seen_deltas = set()
    count = 0
    for inst in nonempty_family():
        verdict = decide_ds(inst)
        assert verdict.nonempty
        gq = build_global_quiver(inst.as_float())
        res = realize_numeric(gq, attempts=25, seed=100 + count)
        assert res.success, "realizer must back every nonempty verdict"
        lhs, rhs = kernel_dimension_check(gq, res.rep)
        assert lhs == rhs == 2 * verdict.verdict.delta
        seen_deltas.add(verdict.verdict.delta)
        count += 1
    assert count >= 10
    assert 0 in seen_deltas and 1 in seen_deltas


# --------------------------------------------------------------------------
# criterion 8: stability transport through the connection dictionary


def _unstable_star_points():
    """Hand-built unstable moment solutions on the condition-3 star."""
    inst = _star(G(1), G(2), G(-1), G(-2)).as_float()
    gq = build_global_quiver(inst)
    points = []
    for val in (1.0, 2.0, 0.5 - 0.25j):
        rep = DoubledRep.zero(gq.quiver, gq.dims)
        rep.fwd["t0.1>p0"] = np.array([[val]], dtype=complex)
        rep.rev["t0.1>p0"] = np.array([[1.0 / val]], dtype=complex)
        points.append((gq, rep))
    return points


def test_criterion_08_stability_transport():
    r = rng()
    count = 0
    disagreements = 0
    for idx, inst in enumerate(nonempty_family()):
        gq = build_global_quiver(inst.as_float())
        for seed in range(4):
            res = realize_numeric(gq, attempts=25, seed=1000 * idx + seed)
            if not res.success:
                continue
            conn = rep_to_connection(gq, res.rep)
            if is_stable(res.rep) != is_stable_connection(conn):
                disagreements += 1
            count += 1
            if count >= 47:
                break
        if count >= 47:
            break
    for gq, rep in _unstable_star_points():
        conn = rep_to_connection(gq, rep)
        if is_stable(rep) != is_stable_connection(conn):
            disagreements += 1
        count += 1
    assert count >= 50
    assert disagreements == 0


# --------------------------------------------------------------------------
# criterion 9: formal reduction residuals and exponent gauge invariance


def test_criterion_09_reduction_and_exponent():
    r = rng()
    # commutation residuals on 50 random chain inputs, depth 2k
    for _ in range(50):
        n = int(r.integers(2, 4))
        k = int(r.integers(2, 4))
        depth = 2 * k
        pool = [-2.0, -1.0, 1.0, 2.0]
        torus = [np.diag(r.choice(pool, size=n)).astype(complex) for _ in range(k - 1)]
        coeffs = torus + [rand_complex(r, n, n) for _ in range(depth - k + 2)]
        a = ConnectionJet(n, k, tuple(coeffs))
        out = bv_chain(a, depth=depth)
        scale = max(linalg.mat_norm(c) for c in a.coeffs)
        for lead in torus:
            for c in out.reduced.coeffs:
                assert linalg.mat_norm(lead @ c - c @ lead) <= 1e-10 * max(1.0, scale)

    # exponent invariance under 50 random framing-preserving gauges
    for trial in range(3):
        T = make_irregular_type(
            3, [((0j, 1.0 + 0j), 1), ((0j, -1.0 + 0j), int(trial % 2) + 1)]
        )
        n, k = T.n, T.k
        depth = 2 * k
        slots = [linalg.to_complex(T.dt_slot(k - 1 - s)) for s in range(k - 1)]
        expo = linalg.to_complex(T.project(rand_complex(r, n, n), 0, "diag"))
        coeffs = slots + [expo] + [np.zeros((n, n), complex) for _ in range(depth - k + 1)]
        base = ConnectionJet(n, k, tuple(coeffs))
        for _ in range(50):
            gc = [np.eye(n, dtype=complex)] + [
                rand_complex(r, n, n) for _ in range(depth)
            ]
            moved = gauge(JetMatrix(n, depth + 1, tuple(gc)), base)
            out = normalize(moved, T)
            assert linalg.mat_norm(out.exponent - expo) <= 1e-8 * max(1.0, linalg.mat_norm(expo))


# --------------------------------------------------------------------------
# criterion 10: leg realization identities on 50 random orbits


def _exact_shear(r, n):
    """Product of integer elementary shears: unimodular, exactly invertible."""
    m = linalg.eye(n, True)
    for _ in range(3):
        i, j = r.integers(0, n, size=2)
        if i != j:
            shear = linalg.eye(n, True)
            shear[int(i), int(j)] = G(int(r.integers(-2, 3)))
            m = np.dot(m, shear)
    return m


def _random_exact_conjugate(r, n):
    spec = _random_exact_orbit(r, n)
    from dsirr.orbits import normal_form_matrix

    nf = normal_form_matrix(spec)
    s = _exact_shear(r, n)
    return np.dot(np.dot(s, nf), linalg.inv(s)), spec


def _rand_orbit_matrix(r, n):
    pool = [-2.0, -1.0, 1.0, 2.5, 4.0]
    sizes = []
    left = n
    while left:
        s = int(r.integers(1, left + 1))
        sizes.append(s)
        left -= s
    m = np.zeros((n, n), dtype=complex)
    pos = 0
    for s in sizes:
        lam = pool[int(r.integers(0, len(pool)))]
        for i in range(s):
            m[pos + i, pos + i] = lam
            if i + 1 < s:
                m[pos + i, pos + i + 1] = 1.0
        pos += s
    gmat = rand_complex(r, n, n) + 3 * np.eye(n)
    return gmat @ m @ np.linalg.inv(gmat)


def _z_conditions(leg):
    mu = moment_map(leg.rep)
    marking = leg.marking
    exact = leg.rep.exact
    for l in range(1, len(marking)):
        v = str(l)
        if v not in leg.rep.dims:
            break
        d = leg.rep.dims[v]
        diff = mu[v] - (marking[l - 1] - marking[l]) * linalg.eye(d, exact)
        if not linalg.is_zero_matrix(diff, rtol=1e-9, scale=1.0 + linalg.mat_norm(mu[v])):
            return False
    for a in leg.rep.quiver.arrows:
        d_src = leg.rep.dims[a.src]
        if linalg.rank(leg.rep.fwd[a.id]) != d_src or linalg.rank(leg.rep.rev[a.id]) != d_src:
            return False
    return True


def test_criterion_10_leg_realization():
    from oracles import leg_reconstruction

    r = rng()
    for trial in range(50):
        n = int(r.integers(2, 6))
        if trial % 2 == 0:
            L, spec = _random_exact_conjugate(r, n)
            marking = greedy_marking(spec)
            leg = realize_leg(L, marking)
            assert linalg.matrices_equal(leg_reconstruction(leg), L)  # exact
        else:
            L = _rand_orbit_matrix(r, n)
            marking = minimal_marking(L)
            leg = realize_leg(L, marking)
            recon = leg_reconstruction(leg)
            assert linalg.mat_norm(recon - L) <= 1e-12 * max(1.0, linalg.mat_norm(L) ** 2)
        assert _z_conditions(leg)


# --------------------------------------------------------------------------
# criterion 11: the criterion against the realizer on >= 20 small instances


def test_criterion_11_criterion_vs_realizer():
    instances = [(inst, True) for inst in nonempty_family()]
    instances += [(inst, False) for inst in empty_family()]
    assert len(instances) >= 20
    failures_logged = []
    for idx, (inst, expect_nonempty) in enumerate(instances):
        verdict = decide_ds(inst)
        assert verdict.nonempty is expect_nonempty, f"instance {idx}"
        gq = build_global_quiver(inst.as_float())
        if expect_nonempty:
            res = realize_numeric(gq, attempts=50, seed=idx)
            assert res.success
            assert moment_residual(gq, res.rep) <= 1e-8 * max(1.0, res.rep.norm() ** 2)
            assert is_stable(res.rep)
        else:
            res = realize_numeric(gq, attempts=50, seed=idx, max_iter=80)
            # soft evidence only: log, never assert emptiness from failures
            failures_logged.append((idx, res.attempts, res.residual))
            assert not res.success
    print("\n[criterion 11] realizer failures on empty instances "
          f"(attempts, best residual): {failures_logged}")
