import numpy as np
import pytest

from conftest import rand_complex, unit_matrix
from dsirr import linalg
from dsirr.irregular import make_irregular_type
from dsirr.jets import ConnectionJet, JetMatrix, gauge
from dsirr.reduction import bv_chain, bv_split, normalize
from oracles import exact_matrix


def conn(n, k, terms, depth):
    coeffs = [np.zeros((n, n), dtype=complex) for _ in range(depth + 1)]
    for s, m in terms.items():
        coeffs[s] = coeffs[s] + m
    return ConnectionJet(n, k, tuple(coeffs))


def commutation_residual(a0, jet):
    return max(
        linalg.mat_norm(a0 @ c - c @ a0) for c in jet.coeffs
    )


def test_split_preserves_commuting_input(rng):
    d = np.diag([1.0, -1.0]).astype(complex)
    a = conn(2, 2, {0: d, 1: 2 * d, 3: -0.5 * d}, 4)
    out = bv_split(a)
    assert not out.factors
    assert all(np.allclose(x, y) for x, y in zip(out.reduced.coeffs, a.coeffs))


def test_split_first_order_example():
    # A = (diag(1,-1) + z e12) z^{-2} dz: X_1 = e12 / 2 kills the slot
    e12 = unit_matrix(2, 0, 1)
    a = conn(2, 2, {0: np.diag([1.0, -1.0]).astype(complex), 1: e12}, 4)
    out = bv_split(a)
    degrees = [d for d, _ in out.factors]
    assert degrees[0] == 1
    assert np.allclose(out.factors[0][1], e12 / 2)
    assert linalg.mat_norm(out.reduced.coeffs[1]) < 1e-13


def test_split_random_full_diagonalization(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        depth = int(rng.integers(n, 9))
        vals = rng.choice([-2.0, -1.0, 1.0, 2.0, 3.5], size=n, replace=False)
        a0 = np.diag(vals).astype(complex)
        coeffs = [a0] + [rand_complex(rng, n, n) for _ in range(depth)]
        a = ConnectionJet(n, 3, tuple(coeffs))
        out = bv_split(a)
        scale = max(linalg.mat_norm(c) for c in a.coeffs)
        assert commutation_residual(a0, out.reduced) <= 1e-10 * scale
        # gauge factors live in the range of ad(A_0): zero diagonal here
        for _, x in out.factors:
            assert linalg.mat_norm(np.diag(np.diag(x))) <= 1e-12 * max(1.0, linalg.mat_norm(x))
        # preservation: A'_0 = A_0
        assert np.allclose(out.reduced.coeffs[0], a0)


def test_split_preservation_clause(rng):
    # commuting slots up to p stay exactly
    d = np.diag([2.0, -1.0, 1.0]).astype(complex)
    low = np.diag(rng.standard_normal(3)).astype(complex)
    noise = rand_complex(rng, 3, 3)
    a = conn(3, 2, {0: d, 1: low, 2: 2 * low, 3: noise}, 5)
    out = bv_split(a)
    for s in (1, 2):
        assert np.array_equal(out.reduced.coeffs[s], a.coeffs[s])
    assert min(d for d, _ in out.factors) == 3


def test_split_nonsemisimple_rejected():
    a = conn(2, 2, {0: unit_matrix(2, 0, 1)}, 3)
    with pytest.raises(ValueError):
        bv_split(a)


def test_split_conjugated_leading_term(rng):
    # non-diagonal but semisimple leading coefficient
    g = rand_complex(rng, 3, 3) + 3 * np.eye(3)
    a0 = g @ np.diag([1.0, 2.0, 4.0]).astype(complex) @ np.linalg.inv(g)
    coeffs = [a0] + [rand_complex(rng, 3, 3) for _ in range(6)]
    a = ConnectionJet(3, 2, tuple(coeffs))
    out = bv_split(a)
    scale = max(linalg.mat_norm(c) for c in a.coeffs)
    assert commutation_residual(a0, out.reduced) <= 1e-9 * scale


def test_split_keeps_the_coupling_of_clustered_eigenvalues(rng):
    # eigenvalues 1e-10 apart are one class (CLUSTER_RTOL, the rule of
    # bv_chain): their coupling stays, and only the part across the gap
    # to 2 is cleared
    g = rand_complex(rng, 3, 3) + 3 * np.eye(3)
    g_inv = np.linalg.inv(g)
    a0 = g @ np.diag([1.0, 1.0 + 1e-10, 2.0]).astype(complex) @ g_inv
    coeffs = [a0] + [rand_complex(rng, 3, 3) for _ in range(4)]
    out = bv_split(ConnectionJet(3, 2, tuple(coeffs)))
    scale = max(linalg.mat_norm(c) for c in coeffs)
    for c in out.reduced.coeffs[1:]:
        b = g_inv @ c @ g
        assert linalg.mat_norm(b[:2, 2]) + linalg.mat_norm(b[2, :2]) <= 1e-9 * scale
    cluster = (g_inv @ coeffs[1] @ g)[:2, :2]
    assert abs(cluster[0, 1]) > 0.1 and abs(cluster[1, 0]) > 0.1
    kept = (g_inv @ out.reduced.coeffs[1] @ g)[:2, :2]
    assert linalg.mat_norm(kept - cluster) <= 1e-9 * scale


def test_split_exact_mode():
    a0 = exact_matrix([[1, 0], [0, -1]])
    x = exact_matrix([[0, 1], [2, 0]])
    coeffs = (a0, x, linalg.zeros(2, 2, True))
    out = bv_split(ConnectionJet(2, 2, coeffs))
    assert all(
        linalg.is_zero_matrix(np.dot(a0, c) - np.dot(c, a0)) for c in out.reduced.coeffs
    )


def test_chain_single_block_is_plain_split(rng):
    # scalar top part: the centralizer is everything, nothing to do at
    # stage 1; deeper stages do the work
    d1 = np.diag([1.0, 1.0]).astype(complex)
    d2 = np.diag([2.0, -3.0]).astype(complex)
    a = ConnectionJet(2, 3, (d1, d2, rand_complex(rng, 2, 2), rand_complex(rng, 2, 2)))
    out = bv_chain(a)
    for c in out.reduced.coeffs:
        assert abs(c[0, 1]) < 1e-10 and abs(c[1, 0]) < 1e-10


def test_chain_restores_block_structure(rng):
    # torus slots then noise at order >= k-1: the noise off the joint
    # centralizer is removed to the trusted depth
    k, n, depth = 4, 3, 8
    t3 = np.diag([1.0, 1.0, -2.0]).astype(complex)
    t2 = np.diag([5.0, 5.0, 1.0]).astype(complex)
    t1 = np.diag([0.5, -0.5, 2.0]).astype(complex)
    coeffs = [t3, t2, t1] + [rand_complex(rng, n, n) for _ in range(depth - k + 2)]
    a = ConnectionJet(n, k, tuple(coeffs))
    out = bv_chain(a)
    # joint centralizer: block {0,1} x {2} from t3/t2, then t1 splits 0,1
    for s in range(k - 1, depth + 1):
        c = out.reduced.coeffs[s]
        off = c - np.diag(np.diag(c))
        assert linalg.mat_norm(off) < 1e-9 * max(1.0, linalg.mat_norm(c))
    for s in range(k - 1):
        assert np.array_equal(out.reduced.coeffs[s], a.coeffs[s])
    # equal but non-adjacent diagonal entries: coordinates 0 and 2 share
    # every value, so the joint centralizer keeps the (0, 2) and (2, 0)
    # entries and clears everything coupling them to coordinate 1
    k, n, depth = 3, 3, 6
    t2 = np.diag([1.0, -1.0, 1.0]).astype(complex)
    t1 = np.diag([2.0, 2.0, 2.0]).astype(complex)
    coeffs = [t2, t1] + [rand_complex(rng, n, n) for _ in range(depth - k + 2)]
    a = ConnectionJet(n, k, tuple(coeffs))
    out = bv_chain(a)
    for s in range(k - 1, depth + 1):
        c = out.reduced.coeffs[s]
        scale = max(1.0, linalg.mat_norm(c))
        for r, q in [(0, 1), (1, 0), (1, 2), (2, 1)]:
            assert abs(c[r, q]) < 1e-9 * scale
        assert abs(c[0, 2]) > 1e-3 and abs(c[2, 0]) > 1e-3
    for s in range(k - 1):
        assert np.array_equal(out.reduced.coeffs[s], a.coeffs[s])


def test_chain_gauge_factors_in_prescribed_ranges(rng):
    k, n = 3, 2
    t2 = np.diag([1.0, -1.0]).astype(complex)
    t1 = np.diag([2.0, 2.0]).astype(complex)
    coeffs = [t2, t1] + [rand_complex(rng, n, n) for _ in range(4)]
    a = ConnectionJet(n, k, tuple(coeffs))
    out = bv_chain(a)
    for _, x in out.factors:
        assert abs(x[0, 0]) < 1e-14 and abs(x[1, 1]) < 1e-14


def test_chain_hypothesis_violation():
    a = ConnectionJet(2, 3, (unit_matrix(2, 0, 1), np.eye(2, dtype=complex), np.zeros((2, 2), complex)))
    with pytest.raises(ValueError):
        bv_chain(a)


# --- normalize ----------------------------------------------------------------


def example_type():
    # two blocks split at the top level, k = 3
    return make_irregular_type(3, [((0j, 1.0 + 0j), 1), ((0j, -1.0 + 0j), 2)]).to_float()


def dt_jet(T, depth, exponent=None):
    n, k = T.n, T.k
    coeffs = [linalg.to_complex(T.dt_slot(k - 1 - s)) for s in range(k - 1)]
    res = np.zeros((n, n), dtype=complex) if exponent is None else exponent
    coeffs.append(res)
    coeffs += [np.zeros((n, n), dtype=complex) for _ in range(depth - k)]
    return ConnectionJet(n, k, tuple(coeffs))


def block_diag_exponent(rng, T):
    n = T.n
    m = rand_complex(rng, n, n)
    return linalg.to_complex(T.project(m, 0, "diag"))


def test_normalize_trivial(rng):
    T = example_type()
    l0 = block_diag_exponent(rng, T)
    a = dt_jet(T, 2 * T.k, l0)
    out = normalize(a, T)
    assert not out.factors
    assert linalg.mat_norm(out.exponent - l0) < 1e-12


def test_normalize_gauge_invariance(rng):
    T = example_type()
    depth = 2 * T.k
    l0 = block_diag_exponent(rng, T)
    a = dt_jet(T, depth, l0)
    for _ in range(50):
        coeffs = [np.eye(T.n, dtype=complex)] + [
            rand_complex(rng, T.n, T.n) for _ in range(depth)
        ]
        g = JetMatrix(T.n, depth + 1, tuple(coeffs))
        out = normalize(gauge(g, a), T)
        assert linalg.mat_norm(out.exponent - l0) < 1e-8 * max(1.0, linalg.mat_norm(l0))


def test_normalize_absorbs_off_block_residue(rng):
    T = example_type()
    depth = 2 * T.k
    l0 = block_diag_exponent(rng, T)
    a = dt_jet(T, depth, l0)
    off = linalg.to_complex(T.project(rand_complex(rng, T.n, T.n), 0, "lower")) + linalg.to_complex(
        T.project(rand_complex(rng, T.n, T.n), 0, "upper")
    )
    noisy = ConnectionJet(
        T.n, T.k, tuple(c + (off if s == T.k - 1 else 0) for s, c in enumerate(a.coeffs))
    )
    out = normalize(noisy, T)
    assert linalg.mat_norm(out.exponent - l0) < 1e-8


def test_normalize_incompatible_polar_part(rng):
    T = example_type()
    a = dt_jet(T, 2 * T.k)
    bad = ConnectionJet(
        T.n, T.k, (a.coeffs[0] + np.diag([1.0, 0, 0]), *a.coeffs[1:])
    )
    with pytest.raises(ValueError):
        normalize(bad, T)


def test_normalize_reduced_matches_dt_slots(rng):
    T = example_type()
    depth = 2 * T.k
    a = dt_jet(T, depth, block_diag_exponent(rng, T))
    g = JetMatrix(
        T.n, depth + 1,
        tuple([np.eye(T.n, dtype=complex)] + [rand_complex(rng, T.n, T.n) for _ in range(depth)]),
    )
    out = normalize(gauge(g, a), T)
    for s in range(T.k - 1):
        expect = linalg.to_complex(T.dt_slot(T.k - 1 - s))
        assert linalg.mat_norm(out.reduced.coeffs[s] - expect) < 1e-9 * max(
            1.0, linalg.mat_norm(expect)
        )
    # the reduced jet is valued in the centralizer of the type
    for c in out.reduced.coeffs:
        off = c - linalg.to_complex(T.project(c, 0, "diag"))
        assert linalg.mat_norm(off) < 1e-8 * max(1.0, linalg.mat_norm(c))


@pytest.mark.parametrize("rtol", [float("nan"), float("inf"), 0.0, -1e-8])
def test_normalize_rejects_a_meaningless_tolerance(rtol):
    T = example_type()
    with pytest.raises(ValueError, match="tolerance"):
        normalize(dt_jet(T, 2 * T.k), T, rtol=rtol)
