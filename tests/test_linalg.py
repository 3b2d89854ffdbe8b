import random

import numpy as np
import pytest

from dsirr import linalg
from dsirr.jets import JetMatrix, jet_inv
from dsirr.scalars import GaussianRational as G
from oracles import FloatSpan, exact_matrix, power_ranks_every_step


def exact(rows):
    return exact_matrix(rows)


def test_rref_rank_exact():
    a = exact([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert linalg.rank(a) == 2
    r, pivots = linalg.rref(a)
    assert pivots == [0, 1]


def test_rank_float_threshold():
    a = np.diag([1.0, 1e-3, 1e-12]).astype(complex)
    assert linalg.rank(a) == 2  # relative threshold 1e-8 * smax


def test_solve_exact_and_inconsistent():
    a = exact([[2, 0], [0, 4]])
    b = exact([[1], [2]])
    x, resid = linalg.solve_linear(a, b)
    assert resid == 0.0
    assert x[0, 0] == G(1, 0) / G(2) and x[1, 0] == G(1) / G(2)
    bad = exact([[1, 1], [2, 2]])
    rhs = exact([[1], [0]])
    with pytest.raises(ValueError):
        linalg.solve_linear(bad, rhs)


def test_inv_round_trip_both_modes():
    a = exact([[1, 2], [3, 5]])
    inv = linalg.inv(a)
    assert linalg.matrices_equal(np.dot(a, inv), linalg.eye(2, True))
    af = linalg.to_complex(a)
    assert np.allclose(af @ linalg.inv(af), np.eye(2))


def test_inv_names_a_singular_exact_matrix():
    # a consistent exact solve of a x = I gives a x = I exactly, so a
    # singular exact matrix shows up as an inconsistent system
    a = exact([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="^singular exact matrix$"):
        linalg.inv(a)
    with pytest.raises(ValueError, match="^singular exact matrix$"):
        jet_inv(JetMatrix(2, 2, (a, linalg.zeros(2, 2, True))))
    with pytest.raises(np.linalg.LinAlgError):
        linalg.inv(linalg.to_complex(a))


def test_column_space_exact_picks_original_columns():
    a = exact([[1, 2, 0], [2, 4, 1]])
    cs = linalg.column_space(a)
    assert cs.shape == (2, 2)
    assert cs[0, 0] == G(1) and cs[1, 0] == G(2)


def test_span_basis_exact_and_float():
    sb = linalg.SpanBasis(3)
    assert sb.add(exact([[1, 0, 1]]).reshape(-1))
    assert not sb.add(exact([[2, 0, 2]]).reshape(-1))
    assert sb.add(exact([[0, 1, 0]]).reshape(-1))
    assert sb.rank == 2

    sf = FloatSpan(3)
    assert sf.add(np.array([1.0, 0, 1], dtype=complex))
    assert not sf.add(np.array([2.0, 0, 2], dtype=complex) + 1e-13)
    assert sf.add(np.array([0, 1j, 0], dtype=complex))
    assert sf.rank == 2


def test_coords_in_basis():
    basis = np.array([[1.0, 0], [0, 1], [1, 1]], dtype=complex)
    vecs = np.array([[2.0], [3], [5]], dtype=complex)
    x = linalg.coords_in_basis(basis, vecs)
    assert np.allclose(basis @ x, vecs)
    outside = np.array([[1.0], [0], [0]], dtype=complex)
    with pytest.raises(ValueError):
        linalg.coords_in_basis(basis, outside)


def random_jordan_matrix(rng, n):
    """An integer matrix P J P^-1 with J in Jordan form over a few small
    integer eigenvalues, and P unit upper times unit lower triangular."""
    diag, pos = [], 0
    while pos < n:
        size = rng.randint(1, n - pos)
        diag += [(rng.randint(-2, 2), size)]
        pos += size
    j = np.zeros((n, n), dtype=np.int64)
    pos = 0
    for lam, size in diag:
        for k in range(size):
            j[pos + k, pos + k] = lam
            if k:
                j[pos + k - 1, pos + k] = 1
        pos += size
    upper = np.triu(np.array([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]), 1)
    lower = np.tril(np.array([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]), -1)
    up, lo = upper + np.eye(n, dtype=np.int64), lower + np.eye(n, dtype=np.int64)
    p = up @ lo
    p_inv = np.rint(np.linalg.inv(lo)).astype(np.int64) @ np.rint(np.linalg.inv(up)).astype(np.int64)
    assert (p @ p_inv == np.eye(n, dtype=np.int64)).all()
    return p @ j @ p_inv, sorted({lam for lam, _ in diag})


def test_power_ranks_stop_early_without_changing_the_sequence():
    rng = random.Random(20261018)
    settled = 0
    for _ in range(30):
        n = rng.randint(1, 5)
        a, values = random_jordan_matrix(rng, n)
        for lam in values + [3]:  # 3 is never an eigenvalue: full rank at once
            shifted = a - lam * np.eye(n, dtype=np.int64)
            ex = exact(shifted.tolist())
            want = power_ranks_every_step(ex, n)
            assert linalg.product_rank_sequence(ex, [0] * n) == want
            fl = shifted.astype(complex)
            scale = np.linalg.norm(a.astype(complex), 2) + abs(lam)
            assert linalg.product_rank_sequence(fl, [0] * n, scale=scale) == want
            assert power_ranks_every_step(fl, n, scale=scale) == want
            settled += want.index(want[-1]) + 1 < n
    assert settled >= 30  # sequences that settle before the last power
