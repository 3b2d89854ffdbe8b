import numpy as np
import pytest

from conftest import rand_complex, unit_matrix
from dsirr import linalg
from dsirr.jets import (
    ConnectionJet,
    JetMatrix,
    PrincipalPart,
    coadjoint,
    gauge,
    jet_exp,
    jet_inv,
    jet_mul,
    pairing,
)
from dsirr.scalars import GaussianRational as G
from oracles import ad_star


def jet(n, k, terms, exact=False):
    """Build a jet from {degree: matrix} with identity constant term."""
    coeffs = [linalg.eye(n, exact)] + [linalg.zeros(n, n, exact) for _ in range(k - 1)]
    for deg, m in terms.items():
        coeffs[deg] = coeffs[deg] + m
    return JetMatrix(n, k, tuple(coeffs))


def rand_jet(rng, n, k, unipotent=True):
    coeffs = [np.eye(n, dtype=complex) if unipotent else rand_complex(rng, n, n) + 3 * np.eye(n)]
    coeffs += [rand_complex(rng, n, n) for _ in range(k - 1)]
    return JetMatrix(n, k, tuple(coeffs))


def rand_pp(rng, n, k, tag="polar"):
    coeffs = [rand_complex(rng, n, n) for _ in range(k)]
    if tag == "polar":
        coeffs[0] = np.zeros((n, n), dtype=complex)
    return PrincipalPart(n, k, tuple(coeffs), tag)


def close(a, b, tol=1e-12):
    return max(linalg.mat_norm(x - y) for x, y in zip(a.coeffs, b.coeffs)) <= tol


# --- jet_mul ---------------------------------------------------------------


def test_mul_truncates_quadratic_term():
    e12, e21 = unit_matrix(2, 0, 1), unit_matrix(2, 1, 0)
    a = jet(2, 2, {1: e12})
    b = jet(2, 2, {1: e21})
    prod = jet_mul(a, b)
    assert close(prod, jet(2, 2, {1: e12 + e21}))


def test_mul_matches_hand_expansion_k3():
    # (1 + z e21)(1 + z e12 - z^2 e22): the z^2 terms cancel exactly
    e12, e21, e22 = unit_matrix(2, 0, 1), unit_matrix(2, 1, 0), unit_matrix(2, 1, 1)
    a = jet(2, 3, {1: e21})
    b = jet(2, 3, {1: e12, 2: -e22})
    assert close(jet_mul(a, b), jet(2, 3, {1: e12 + e21}))


def test_mul_associative_and_identity(rng):
    n, k = 3, 4
    a, b, c = (rand_jet(rng, n, k, unipotent=False) for _ in range(3))
    lhs = jet_mul(jet_mul(a, b), c)
    rhs = jet_mul(a, jet_mul(b, c))
    assert close(lhs, rhs, 1e-10)
    ident = JetMatrix.identity(n, k)
    assert close(jet_mul(ident, a), a)
    assert close(jet_mul(a, ident), a)


def test_mul_exact_mode():
    e12 = unit_matrix(2, 0, 1, exact=True)
    e21 = unit_matrix(2, 1, 0, exact=True)
    prod = jet_mul(jet(2, 2, {1: e12}, exact=True), jet(2, 2, {1: e21}, exact=True))
    expect = jet(2, 2, {1: e12 + e21}, exact=True)
    assert all(
        linalg.matrices_equal(x, y) for x, y in zip(prod.coeffs, expect.coeffs)
    )


def test_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        jet_mul(JetMatrix.identity(2, 2), JetMatrix.identity(3, 2))


# --- jet_inv ---------------------------------------------------------------


def test_inv_identity_and_nilpotent():
    ident = JetMatrix.identity(2, 3)
    assert close(jet_inv(ident), ident)
    nil = unit_matrix(2, 0, 1)
    a = jet(2, 3, {1: nil})
    # geometric series: 1 - zN + z^2 N^2, and N^2 = 0 here
    assert close(jet_inv(a), jet(2, 3, {1: -nil}))


def test_inv_round_trip_random(rng):
    a = rand_jet(rng, 3, 5)
    prod = jet_mul(a, jet_inv(a))
    assert close(prod, JetMatrix.identity(3, 5), 1e-12)


def test_inv_singular_rejected():
    coeffs = (np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex))
    with pytest.raises(np.linalg.LinAlgError):
        jet_inv(JetMatrix(2, 2, coeffs))


# --- jet_exp ---------------------------------------------------------------


def test_exp_zero_and_truncation(rng):
    x = rand_complex(rng, 2, 2)
    assert close(jet_exp(np.zeros((2, 2), complex), 1, 3), JetMatrix.identity(2, 3))
    assert close(jet_exp(x, 1, 2), jet(2, 2, {1: x}))
    expect = jet(2, 3, {1: x, 2: x @ x / 2})
    assert close(jet_exp(x, 1, 3), expect)


def test_exp_exact_factorials():
    x = unit_matrix(2, 0, 1, exact=True) + unit_matrix(2, 1, 0, exact=True)
    e = jet_exp(x, 1, 4)
    sq = np.dot(x, x)
    assert linalg.matrices_equal(e.coeffs[2], sq * G(1, 0) / G(2))
    assert linalg.matrices_equal(e.coeffs[3], np.dot(sq, x) * (G(1) / G(6)))


# --- pairing ---------------------------------------------------------------


def test_pairing_residue_example():
    # X = z e21 against c e12 z^{-2} dz pairs to c
    c = 2.5 - 1j
    x = jet(2, 2, {1: unit_matrix(2, 1, 0)})
    a = PrincipalPart(2, 2, (np.zeros((2, 2), complex), c * unit_matrix(2, 0, 1)), "polar")
    assert abs(pairing(x, a) - c) < 1e-14


def test_pairing_constant_against_polar_is_zero(rng):
    x = JetMatrix(2, 2, (rand_complex(rng, 2, 2), np.zeros((2, 2), complex)))
    a = rand_pp(rng, 2, 2, "polar")
    assert abs(pairing(x, a)) == 0.0


def test_pairing_bilinear(rng):
    n, k = 3, 4
    x, y = rand_jet(rng, n, k), rand_jet(rng, n, k)
    a, b = rand_pp(rng, n, k), rand_pp(rng, n, k)
    s = 1.7 - 0.3j
    xy = JetMatrix(n, k, tuple(p + s * q for p, q in zip(x.coeffs, y.coeffs)))
    ab = PrincipalPart(n, k, tuple(p + s * q for p, q in zip(a.coeffs, b.coeffs)), "polar")
    assert abs(pairing(xy, a) - (pairing(x, a) + s * pairing(y, a))) < 1e-10
    assert abs(pairing(x, ab) - (pairing(x, a) + s * pairing(x, b))) < 1e-10


# --- coadjoint -------------------------------------------------------------


def dt_pp(n, k, top, exact=False):
    """dT with a single top slot k-1."""
    coeffs = [linalg.zeros(n, n, exact) for _ in range(k)]
    coeffs[k - 1] = top
    return PrincipalPart(n, k, tuple(coeffs), "polar")


def test_coadjoint_identity(rng):
    a = rand_pp(rng, 3, 4)
    assert close(coadjoint(JetMatrix.identity(3, 4), a), a)


def test_coadjoint_k2_polar_orbit_is_point(rng):
    a = dt_pp(2, 2, np.diag([3.0, -1.0]).astype(complex))
    g = rand_jet(rng, 2, 2)
    assert close(coadjoint(g, a), a, 1e-12)


def test_coadjoint_two_block_example():
    # dT = diag(-2, 2) z^{-3} dz moved by 1 + q z e21
    q = 0.7 + 0.2j
    d = np.diag([-2.0, 2.0]).astype(complex)
    g = jet(2, 3, {1: q * unit_matrix(2, 1, 0)})
    moved = coadjoint(g, dt_pp(2, 3, d))
    expect = dt_pp(2, 3, d).with_slot(1, -4 * q * unit_matrix(2, 1, 0))
    assert close(moved, expect, 1e-12)


def test_coadjoint_action_law(rng):
    n, k = 3, 4
    a = rand_pp(rng, n, k)
    g, h = rand_jet(rng, n, k), rand_jet(rng, n, k)
    lhs = coadjoint(g, coadjoint(h, a))
    rhs = coadjoint(jet_mul(g, h), a)
    assert close(lhs, rhs, 1e-10)


def test_coadjoint_dual_to_conjugation_full_tag(rng):
    n, k = 2, 3
    a = rand_pp(rng, n, k, "full")
    g = rand_jet(rng, n, k)
    x = rand_jet(rng, n, k, unipotent=False)
    adx = jet_mul(jet_mul(g, x), jet_inv(g))
    lhs = pairing(adx, a)
    rhs = pairing(x, coadjoint(jet_inv(g), a))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_coadjoint_dual_to_conjugation_polar_tag(rng):
    # the polar quotient pairs with jets that vanish at the origin
    n, k = 2, 3
    a = rand_pp(rng, n, k, "polar")
    g = rand_jet(rng, n, k)
    x = JetMatrix(
        n, k, (np.zeros((n, n), complex), rand_complex(rng, n, n), rand_complex(rng, n, n))
    )
    adx = jet_mul(jet_mul(g, x), jet_inv(g))
    lhs = pairing(adx, a)
    rhs = pairing(x, coadjoint(jet_inv(g), a))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_ad_star_is_derivative_of_coadjoint(rng):
    n, k = 2, 4
    a = rand_pp(rng, n, k)
    x = jet(n, k, {1: rand_complex(rng, n, n), 2: rand_complex(rng, n, n)})
    xlie = JetMatrix(n, k, (x.coeffs[0] - np.eye(n), *x.coeffs[1:]))
    h = 1e-6
    gp = jet(n, k, {1: h * xlie.coeffs[1], 2: h * xlie.coeffs[2]})
    gm = jet(n, k, {1: -h * xlie.coeffs[1], 2: -h * xlie.coeffs[2]})
    fd = [
        (p - m) / (2 * h)
        for p, m in zip(coadjoint(gp, a).coeffs, coadjoint(gm, a).coeffs)
    ]
    exact_dir = ad_star(xlie, a)
    assert max(linalg.mat_norm(u - v) for u, v in zip(fd, exact_dir.coeffs)) < 1e-5


# --- gauge -----------------------------------------------------------------


def conn(n, k, terms, depth):
    coeffs = [np.zeros((n, n), dtype=complex) for _ in range(depth + 1)]
    for s, m in terms.items():
        coeffs[s] = coeffs[s] + m
    return ConnectionJet(n, k, tuple(coeffs))


def test_gauge_identity(rng):
    a = conn(2, 2, {0: rand_complex(rng, 2, 2), 1: rand_complex(rng, 2, 2)}, 4)
    g = JetMatrix.identity(2, 6)
    assert close(gauge(g, a), a)


def test_gauge_scalar_adds_derivative():
    # n = 1: exp(z x) shifts the z^0 dz slot by exactly x
    x = 0.8 - 0.4j
    k, depth = 2, 4
    a = conn(1, k, {0: np.array([[2.0 + 0j]])}, depth)
    g = jet_exp(np.array([[x]]), 1, depth + 1)
    out = gauge(g, a)
    assert abs(out.coeffs[k][0, 0] - (a.coeffs[k][0, 0] + x)) < 1e-12
    # slots below z^0 dz are untouched in the abelian case
    assert abs(out.coeffs[0][0, 0] - 2.0) < 1e-14


def test_gauge_first_order_example():
    # A = (diag(1,-1) + z e12) z^{-2} dz, g = exp(z e12 / 2):
    # the residue slot loses its off-diagonal part
    e12 = unit_matrix(2, 0, 1)
    a = conn(2, 2, {0: np.diag([1.0, -1.0]).astype(complex), 1: e12}, 4)
    g = jet_exp(e12 / 2, 1, 5)
    out = gauge(g, a)
    assert linalg.mat_norm(out.coeffs[1]) < 1e-13
    assert np.allclose(out.coeffs[0], a.coeffs[0])


def test_gauge_action_law(rng):
    n, k, depth = 2, 3, 5
    a = conn(n, k, {s: rand_complex(rng, n, n) for s in range(depth + 1)}, depth)
    g = rand_jet(rng, n, depth + 1)
    h = rand_jet(rng, n, depth + 1)
    lhs = gauge(g, gauge(h, a))
    rhs = gauge(jet_mul(g, h), a)
    assert max(
        linalg.mat_norm(x - y) for x, y in zip(lhs.coeffs, rhs.coeffs)
    ) < 1e-10


def test_gauge_depth_underflow():
    a = conn(2, 3, {0: np.eye(2, dtype=complex)}, 3)
    with pytest.raises(ValueError):
        gauge(JetMatrix.identity(2, 2), a)
