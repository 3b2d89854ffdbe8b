from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_complex, unit_matrix
from dsirr import jets, linalg, reduction
from dsirr.irregular import (
    OrbitMembershipError,
    QPPair,
    core_quiver,
    factorize,
    irregular_type_from_json,
    irregular_type_to_json,
    level_filtration,
    make_irregular_type,
    orbit_to_qp,
    qp_to_orbit,
    qp_to_rep,
    rep_to_qp,
    validate_qp,
)
from dsirr.jets import JetMatrix, coadjoint, jet_exp, jet_mul, pairing
from dsirr.quiver import symplectic_form
from dsirr.scalars import GaussianRational as G
from oracles import FloatSpan, gauge_triple_sum, invariant_closure, stabilizes_dt


def two_block_k3():
    """n = 2, k = 3, dT = diag(-2, 2) z^{-3} dz: blocks split at every level."""
    return make_irregular_type(3, [((0j, 1.0 + 0j), 1), ((0j, -1.0 + 0j), 1)])


def example_ii():
    """n = 2, k = 4, top coefficient diag(a, b) with a != b."""
    return make_irregular_type(4, [((0j, 0j, 1.0 + 0j), 1), ((0j, 0j, -1.0 + 0j), 1)])


def example_iii():
    """n = 4, k = 5: blocks separate at levels 4, 3, 2 in turn."""
    blocks = [
        ((0j, 0j, 0j, 1 + 0j), 1),
        ((0j, 0j, 1 + 0j, 0j), 1),
        ((0j, 1 + 0j, 0j, 0j), 1),
        ((0j, 0j, 0j, 0j), 1),
    ]
    return make_irregular_type(5, blocks)


def rand_type(rng, n_max=4, k_max=5, k_min=2, exact=False):
    """Random block structure with random shared-tail coefficients."""
    k = int(rng.integers(k_min, k_max + 1))
    blocks = []
    n = 0
    count = int(rng.integers(1, 4))
    pool = [-2, -1, 0, 1, 2]
    while len(blocks) < count and n < n_max:
        mult = int(rng.integers(1, n_max - n + 1)) if n_max - n > 1 else 1
        coeffs = tuple(
            complex(pool[rng.integers(0, len(pool))], pool[rng.integers(0, len(pool))])
            for _ in range(k - 1)
        )
        if exact:
            coeffs = tuple(
                G(int(c.real), int(c.imag)) for c in coeffs
            )
        if any(all(x == y for x, y in zip(coeffs, b[0])) for b in blocks):
            continue
        blocks.append((coeffs, mult))
        n += mult
    return make_irregular_type(k, blocks)


def rand_qp(rng, T):
    """Random coordinates respecting the level constraints."""
    q = [linalg.zeros(T.n, T.n, False) for _ in range(T.k)]
    p = [linalg.zeros(T.n, T.n, False) for _ in range(T.k)]
    for s in range(1, T.k):
        q[s] = T.project(rand_complex(rng, T.n, T.n), s, "lower")
        p[s] = T.project(rand_complex(rng, T.n, T.n), s, "upper")
    return QPPair(T.n, T.k, tuple(q), tuple(p))


# --- level filtration --------------------------------------------------------


def test_single_block_type():
    T = make_irregular_type(3, [((1.0 + 0j, 2.0 + 0j), 3)])
    assert [len(c) for c in level_filtration(T)] == [1, 1, 1]
    for s in range(1, T.k):
        assert linalg.mat_norm(T.project(np.ones((3, 3), complex), s, "lower")) == 0


def test_example_ii_levels():
    T = example_ii()
    # separated at the top coefficient: two classes at every level below k-1
    assert [len(c) for c in level_filtration(T)] == [2, 2, 2, 1]


def test_example_iii_levels():
    T = example_iii()
    assert [len(c) for c in level_filtration(T)] == [4, 4, 3, 2, 1]


def test_block_order_makes_e21_lower():
    # dT = diag(-2, 2) z^{-3} dz means T_2 = diag(1, -1): the block with
    # the larger coefficient comes first, so e21 is strictly lower
    T = two_block_k3()
    d = T.dt_slot(2)
    assert np.allclose(linalg.to_complex(d), np.diag([-2.0, 2.0]))
    e21 = unit_matrix(2, 1, 0)
    assert linalg.mat_norm(T.project(e21, 1, "lower") - e21) == 0
    # level k-1 is the single-class convention: no strict piece there
    assert linalg.mat_norm(T.project(e21, 2, "lower")) == 0


def test_duplicate_blocks_rejected():
    with pytest.raises(ValueError):
        make_irregular_type(2, [((1 + 0j,), 1), ((1 + 0j,), 2)])


# --- core quiver -------------------------------------------------------------


def test_core_quiver_example_ii():
    q, dims = core_quiver(example_ii())
    assert len(q.vertices) == 2
    assert len(q.arrows) == 2
    assert all(a.src == "p0" and a.dst == "p1" for a in q.arrows)
    assert dims == {"p0": 1, "p1": 1}


def test_core_quiver_example_iii():
    q, _ = core_quiver(example_iii())
    assert len(q.vertices) == 4
    counts = {}
    for a in q.arrows:
        counts[(a.src, a.dst)] = counts.get((a.src, a.dst), 0) + 1
    assert counts == {
        ("p0", "p1"): 3,
        ("p0", "p2"): 3,
        ("p0", "p3"): 3,
        ("p1", "p2"): 2,
        ("p1", "p3"): 2,
        ("p2", "p3"): 1,
    }


def test_low_order_types_simply_laced(rng):
    for _ in range(200):
        T = rand_type(rng, k_max=3)
        q, _ = core_quiver(T)
        seen = set()
        for a in q.arrows:
            assert (a.src, a.dst) not in seen
            seen.add((a.src, a.dst))


# --- factorize ---------------------------------------------------------------


def jet(n, k, terms, exact=False):
    coeffs = [linalg.eye(n, exact)] + [linalg.zeros(n, n, exact) for _ in range(k - 1)]
    for deg, m in terms.items():
        coeffs[deg] = coeffs[deg] + m
    return JetMatrix(n, k, tuple(coeffs))


def test_factorize_parabolic_is_identity_times_itself():
    T = two_block_k3()
    e12 = unit_matrix(2, 0, 1)
    b = jet(2, 3, {1: e12, 2: 0.5 * e12})
    minus, plus = factorize(T, b)
    assert linalg.mat_norm(minus.coeffs[1]) == 0 and linalg.mat_norm(minus.coeffs[2]) == 0
    assert max(linalg.mat_norm(x - y) for x, y in zip(plus.coeffs, b.coeffs)) == 0


def test_factorize_hand_example():
    T = two_block_k3()
    e12, e21, e22 = unit_matrix(2, 0, 1), unit_matrix(2, 1, 0), unit_matrix(2, 1, 1)
    b = jet(2, 3, {1: e12 + e21})
    minus, plus = factorize(T, b)
    assert np.allclose(minus.coeffs[1], e21) and linalg.mat_norm(minus.coeffs[2]) < 1e-15
    assert np.allclose(plus.coeffs[1], e12) and np.allclose(plus.coeffs[2], -e22)


def test_factorize_random_multiply_back_and_support(rng):
    for _ in range(30):
        T = rand_type(rng)
        coeffs = [np.eye(T.n, dtype=complex)] + [
            rand_complex(rng, T.n, T.n) for _ in range(T.k - 1)
        ]
        b = JetMatrix(T.n, T.k, tuple(coeffs))
        minus, plus = factorize(T, b)
        back = jet_mul(minus, plus)
        assert max(
            linalg.mat_norm(x - y) for x, y in zip(back.coeffs, b.coeffs)
        ) < 1e-12 * max(1.0, max(linalg.mat_norm(c) for c in b.coeffs))
        for s in range(1, T.k):
            assert T.in_subspace(minus.coeffs[s], s, "lower", 1e-12)
            assert T.in_subspace(plus.coeffs[s], s, "upper_eq", 1e-12)


def test_factorize_requires_unipotent():
    T = two_block_k3()
    b = JetMatrix(2, 3, (2 * np.eye(2, dtype=complex),) + tuple(np.zeros((2, 2), complex) for _ in range(2)))
    with pytest.raises(ValueError):
        factorize(T, b)


def test_factorize_exact():
    T = make_irregular_type(3, [((G(0), G(1)), 1), ((G(0), G(-1)), 1)])
    e12 = unit_matrix(2, 0, 1, exact=True)
    e21 = unit_matrix(2, 1, 0, exact=True)
    b = jet(2, 3, {1: e12 + e21}, exact=True)
    minus, plus = factorize(T, b)
    assert linalg.matrices_equal(jet_mul(minus, plus).coeffs[2], b.coeffs[2])


# --- stabilizer --------------------------------------------------------------


def test_stabilizer_characterization(rng):
    T = example_ii()
    dt = T.dt()
    # coefficients inside the level centralizers fix dT
    b = jet(2, 4, {s: T.project(rand_complex(rng, 2, 2), s, "diag") for s in (1, 2, 3)})
    assert stabilizes_dt(T, b)
    moved = coadjoint(b, dt)
    assert max(linalg.mat_norm(x - y) for x, y in zip(moved.coeffs, dt.coeffs)) < 1e-12
    # an off-centralizer coefficient moves dT
    bad = jet(2, 4, {1: unit_matrix(2, 1, 0)})
    assert not stabilizes_dt(T, bad)
    moved = coadjoint(bad, dt)
    assert max(linalg.mat_norm(x - y) for x, y in zip(moved.coeffs, dt.coeffs)) > 1e-6


# --- qp_to_orbit / orbit_to_qp ----------------------------------------------


def test_qp_zero_gives_dt():
    T = example_ii()
    b = qp_to_orbit(T, QPPair.zero(T, exact=False))
    dt = T.dt()
    assert max(linalg.mat_norm(x - y) for x, y in zip(b.coeffs, dt.coeffs)) == 0


def test_qp_hand_example_k3():
    # Q = q z e21, P = 0 lands on dT - 4 q e21 z^{-2} dz
    T = two_block_k3()
    qv = 0.3 - 0.8j
    qp = QPPair.zero(T, exact=False)
    q = list(qp.q)
    q[1] = qv * unit_matrix(2, 1, 0)
    qp = QPPair(2, 3, tuple(q), qp.p)
    b = qp_to_orbit(T, qp)
    expect = T.dt().with_slot(1, -4 * qv * unit_matrix(2, 1, 0))
    assert max(linalg.mat_norm(x - y) for x, y in zip(b.coeffs, expect.coeffs)) < 1e-14
    # and the inverse recovers (Q, P)
    back = orbit_to_qp(T, b)
    assert linalg.mat_norm(back.q[1] - q[1]) < 1e-12
    assert all(linalg.mat_norm(m) < 1e-12 for m in back.p[1:])


def test_orbit_to_qp_of_dt_is_zero():
    T = example_iii()
    qp = orbit_to_qp(T, T.dt())
    assert qp.norm() < 1e-14


def test_orbit_round_trip_random(rng):
    for _ in range(40):
        T = rand_type(rng)
        qp = rand_qp(rng, T)
        b = qp_to_orbit(T, qp)
        back = orbit_to_qp(T, b)
        scale = max(1.0, qp.norm())
        for s in range(1, T.k):
            assert linalg.mat_norm(back.q[s] - qp.q[s]) < 1e-10 * scale
            assert linalg.mat_norm(back.p[s] - qp.p[s]) < 1e-10 * scale


def test_orbit_round_trip_via_coadjoint(rng):
    # random orbit points made by coadjoint moves reduce and come back
    for _ in range(15):
        T = rand_type(rng, k_min=3)
        coeffs = [np.eye(T.n, dtype=complex)] + [
            rand_complex(rng, T.n, T.n) for _ in range(T.k - 1)
        ]
        b = coadjoint(JetMatrix(T.n, T.k, tuple(coeffs)), T.dt())
        qp = orbit_to_qp(T, b)
        again = qp_to_orbit(T, qp)
        assert max(
            linalg.mat_norm(x - y) for x, y in zip(again.coeffs, b.coeffs)
        ) < 1e-9 * max(1.0, b.norm())


def test_orbit_membership_top_slot_error():
    T = example_ii()
    bad = T.dt().with_slot(3, T.dt_slot(3) + unit_matrix(2, 0, 1))
    with pytest.raises(OrbitMembershipError):
        orbit_to_qp(T, bad)


def test_orbit_membership_residual_error():
    # a diagonal perturbation at a lower slot cannot be reached
    T = example_ii()
    bad = T.dt().with_slot(1, T.dt_slot(1) + np.diag([1.0, 0]).astype(complex))
    with pytest.raises(OrbitMembershipError):
        orbit_to_qp(T, bad)


def rand_exact_type(rng, k, mults=(2, 1, 1)):
    """Distinct blocks whose coefficient tails often agree, so the level
    filtration has proper refinements; the canonical order puts the
    double block anywhere."""
    pool = [G(0), G(1, 1), G(-1, 2)]
    blocks = []
    while len(blocks) < len(mults):
        coeffs = tuple(pool[int(rng.integers(0, len(pool)))] for _ in range(k - 1))
        if all(coeffs != b for b, _ in blocks):
            blocks.append((coeffs, mults[len(blocks)]))
    return make_irregular_type(k, blocks)


def rand_exact_qp(rng, T):
    def rand_matrix():
        m = linalg.zeros(T.n, T.n, True)
        for idx in np.ndindex(T.n, T.n):
            m[idx] = G(Fraction(int(rng.integers(-3, 4)), 2), int(rng.integers(-2, 3)))
        return m

    q = [linalg.zeros(T.n, T.n, True)] + [T.project(rand_matrix(), s, "lower") for s in range(1, T.k)]
    p = [linalg.zeros(T.n, T.n, True)] + [T.project(rand_matrix(), s, "upper") for s in range(1, T.k)]
    return QPPair(T.n, T.k, tuple(q), tuple(p))


def test_orbit_exact_round_trip():
    # exact equality: the stage loop must invert qp_to_orbit with no noise
    T = make_irregular_type(3, [((G(0), G(1)), 1), ((G(0), G(-1)), 1)])
    q = [linalg.zeros(2, 2, True) for _ in range(3)]
    p = [linalg.zeros(2, 2, True) for _ in range(3)]
    q[1][1, 0] = G(2, 3)
    p[1][0, 1] = G(-1, 5)
    cases = [(T, QPPair(2, 3, tuple(q), tuple(p)))]
    for seed in range(6):
        rng = np.random.default_rng(seed)
        T = rand_exact_type(rng, k=3 + seed % 2)
        cases.append((T, rand_exact_qp(rng, T)))
    for T, qp in cases:
        back = orbit_to_qp(T, qp_to_orbit(T, qp))
        for s in range(1, T.k):
            assert linalg.matrices_equal(back.q[s], qp.q[s])
            assert linalg.matrices_equal(back.p[s], qp.p[s])


def test_gauge_matches_triple_sum_with_fewer_products(monkeypatch):
    """On the exact round trips, jets.gauge's (g A) h equals the triple sum
    g_i A_j h_l exactly and takes fewer Gaussian-rational products."""
    orbits = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        T = rand_exact_type(rng, k=3 + seed % 2)
        orbits.append((T, qp_to_orbit(T, rand_exact_qp(rng, T))))

    mul, count, products = G.__mul__, [0], {"two": 0, "triple": 0}

    def counting(self, other):
        count[0] += 1
        return mul(self, other)

    def checked(g, a):
        start = count[0]
        out = jets.gauge(g, a)
        middle = count[0]
        ref = gauge_triple_sum(g, a)
        products["two"] += middle - start
        products["triple"] += count[0] - middle
        assert len(out.coeffs) == len(ref.coeffs)
        assert all(linalg.matrices_equal(x, y) for x, y in zip(out.coeffs, ref.coeffs))
        return out

    monkeypatch.setattr(reduction, "gauge", checked)
    monkeypatch.setattr(G, "__mul__", counting)
    monkeypatch.setattr(G, "__rmul__", counting)
    for T, orbit in orbits:
        orbit_to_qp(T, orbit)
    assert 0 < products["two"] < products["triple"]


# --- rep <-> qp ---------------------------------------------------------------


def test_qp_rep_round_trip_example_ii(rng):
    T = example_ii()
    qp = rand_qp(rng, T)
    rep = qp_to_rep(T, qp)
    assert len(rep.quiver.arrows) == 2
    back = rep_to_qp(T, rep)
    for s in range(1, T.k):
        assert linalg.mat_norm(back.q[s] - qp.q[s]) == 0
        assert linalg.mat_norm(back.p[s] - qp.p[s]) == 0


def test_symplectic_form_matches_residue_pairing(rng):
    for _ in range(10):
        T = rand_type(rng)
        base = qp_to_rep(T, rand_qp(rng, T))
        t1, t2 = rand_qp(rng, T), rand_qp(rng, T)
        r1, r2 = qp_to_rep(T, t1), qp_to_rep(T, t2)
        lhs = symplectic_form(base, r1, r2)
        rhs = 0j
        for s in range(1, T.k):
            rhs += np.trace(t1.q[s] @ t2.p[s]) - np.trace(t2.q[s] @ t1.p[s])
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_validate_qp_rejects_bad_support(rng):
    T = example_ii()
    qp = rand_qp(rng, T)
    q = list(qp.q)
    q[1] = q[1] + unit_matrix(2, 0, 1)  # upper block inside Q
    with pytest.raises(ValueError):
        validate_qp(T, QPPair(2, 4, tuple(q), qp.p))


# --- symplectomorphism (Kirillov pairing vs dQ^dP) ---------------------------


def poly_jet(rng, T):
    """Random element of the nilpotent jet algebra (no constant term)."""
    coeffs = [np.zeros((T.n, T.n), dtype=complex)] + [
        rand_complex(rng, T.n, T.n) for _ in range(T.k - 1)
    ]
    return JetMatrix(T.n, T.k, tuple(coeffs))


def exp_curve(x: JetMatrix, h: float) -> JetMatrix:
    """Product of exp(h z^i X_i): a curve through 1 with derivative X."""
    g = JetMatrix.identity(x.n, x.k)
    for i in range(1, x.k):
        g = jet_mul(jet_exp(h * x.coeffs[i], i, x.k), g)
    return g


def push_tangent(T, b, x, h=1e-5):
    """Finite-difference image of the orbit tangent ad*_X at b in (Q, P)."""
    qp_plus = orbit_to_qp(T, coadjoint(exp_curve(x, h), b))
    qp_minus = orbit_to_qp(T, coadjoint(exp_curve(x, -h), b))
    dq = [(a - c) / (2 * h) for a, c in zip(qp_plus.q, qp_minus.q)]
    dp = [(a - c) / (2 * h) for a, c in zip(qp_plus.p, qp_minus.p)]
    return dq, dp


def test_kirillov_form_matches_qp_form(rng):
    checked = 0
    while checked < 50:
        T = rand_type(rng, n_max=3, k_max=4, k_min=3)
        if T.block_count == 1:
            continue
        b = qp_to_orbit(T, rand_qp(rng, T))
        x1, x2 = poly_jet(rng, T), poly_jet(rng, T)
        bracket = jet_mul(x1, x2)
        bracket = JetMatrix(
            T.n, T.k, tuple(u - v for u, v in zip(bracket.coeffs, jet_mul(x2, x1).coeffs))
        )
        kirillov = pairing(bracket, b)
        dq1, dp1 = push_tangent(T, b, x1)
        dq2, dp2 = push_tangent(T, b, x2)
        value = 0j
        for s in range(1, T.k):
            value += np.trace(dq1[s] @ dp2[s]) - np.trace(dq2[s] @ dp1[s])
        scale = max(1.0, abs(kirillov))
        assert abs(kirillov - value) <= 1e-6 * scale
        checked += 1


# --- invariant subspaces across the identification ----------------------------


def _span_contains(basis_cols, vec, rtol=1e-9):
    if basis_cols.shape[1] == 0:
        return np.linalg.norm(vec) <= rtol
    coef, *_ = np.linalg.lstsq(basis_cols, vec.reshape(-1, 1), rcond=None)
    return np.linalg.norm(basis_cols @ coef - vec.reshape(-1, 1)) <= rtol * max(
        1.0, np.linalg.norm(vec)
    )


def test_graded_invariant_subspace_gives_matrix_invariant_sum(rng):
    # zero one reverse arrow of the two-block type so a proper graded
    # invariant subspace exists; its block sum must be preserved by
    # every coefficient of the orbit element
    T = two_block_k3()
    qp = rand_qp(rng, T)
    p = list(qp.p)
    p[1] = np.zeros((2, 2), dtype=complex)  # kills the arrow back into p0
    qp = QPPair(2, 3, qp.q, tuple(p))
    rep = qp_to_rep(T, qp)
    seed = {"p1": np.array([[1.0 + 0j]])}
    w = invariant_closure(rep, seed)
    assert w["p0"].shape[1] == 0 and w["p1"].shape[1] == 1  # proper and graded
    b = qp_to_orbit(T, qp)
    s = np.array([[0.0], [1.0]], dtype=complex)  # V_p1 inside C^2
    for slot in range(1, T.k):
        img = b.coeffs[slot] @ s
        assert _span_contains(s, img)


def test_matrix_invariant_subspace_is_graded(rng):
    # orbit-element invariant subspaces decompose along the blocks and
    # produce graded invariant subspaces of the representation
    for _ in range(10):
        T = rand_type(rng, n_max=4, k_min=3)
        if T.block_count < 2:
            continue
        qp = rand_qp(rng, T)
        b = qp_to_orbit(T, qp)
        mats = [np.asarray(b.coeffs[s], dtype=complex) for s in range(1, T.k)]
        # invariant subspace generated by a random vector under all slots
        span = FloatSpan(T.n)
        v0 = rand_complex(rng, T.n)
        queue = [v0]
        span.add(v0)
        while queue:
            v = queue.pop()
            for m in mats:
                img = m @ v
                if span.add(img):
                    queue.append(img)
        basis = span.matrix().T  # columns span S
        dim_s = basis.shape[1]
        # homogeneity: dim S = sum over blocks of dim(S cap V_b), with
        # dim(S cap V_b) = dim S + dim V_b - dim(S + V_b)
        from dsirr.linalg import rank

        total = 0
        for blk in range(T.block_count):
            sl = T.block_slice(blk)
            block_basis = np.zeros((T.n, T.blocks[blk].mult), dtype=complex)
            block_basis[sl, :] = np.eye(T.blocks[blk].mult)
            stacked = np.concatenate([basis, block_basis], axis=1)
            total += dim_s + T.blocks[blk].mult - rank(stacked)
        assert total == dim_s


# --- json ---------------------------------------------------------------------


def test_irregular_type_json_round_trip():
    T = make_irregular_type(3, [((G(0), G(1)), 1), ((G(0), G(-1)), 2)])
    data = irregular_type_to_json(T)
    T2 = irregular_type_from_json(data, exact=True)
    assert T2 == T
