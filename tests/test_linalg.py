import random

import numpy as np
import pytest

from conftest import run_fresh
from dsirr import linalg
from dsirr.assembly import _leg_conditions, build_global_quiver, instance_from_json, realize_numeric
from dsirr.jets import JetMatrix, jet_inv
from dsirr.orbits import greedy_marking, normal_form_matrix
from dsirr.scalars import GaussianRational as G
from oracles import FloatSpan, bench_ladder, exact_matrix, power_ranks_every_step
from test_orbits import _random_spec


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


def test_stacked_ranks_match_rank_on_every_leg_map_of_the_ladder():
    # verify's leg maps at the witness realize finds on each realize-verify
    # rung at seeds 1-3: the stacked SVD of each shape gives every map the
    # singular values of its own SVD, bit for bit, so the ranks are equal
    ladder, maps = bench_ladder(), []
    for rung in ladder.WORKLOADS["realize-verify"][1]:
        for seed in (1, 2, 3):
            problem = instance_from_json(ladder.problem(rung, seed), exact=True)
            gq = build_global_quiver(problem.as_float())
            res = realize_numeric(gq, seed=seed)
            assert res.success
            maps += [m for m, _, _ in _leg_conditions(gq, res.rep)]
    shapes = {m.shape for m in maps}
    assert len(shapes) > 5 and any(1 in shape for shape in shapes)
    for shape in shapes:
        group = [m for m in maps if m.shape == shape]
        stacked = np.linalg.svd(np.array(group), compute_uv=False)
        for m, row in zip(group, stacked, strict=True):
            assert np.array_equal(np.linalg.svd(m, compute_uv=False), row)

    def one_rank(m, rtol):  # one SVD per matrix, its cutoff written out
        s = np.linalg.svd(m, compute_uv=False)
        return int(np.sum(s > rtol * s[0]))

    assert linalg.ranks(maps) == [linalg.rank(m) for m in maps] == [
        one_rank(m, linalg.RANK_RTOL) for m in maps]
    assert linalg.ranks(maps[::-1], 1e-3) == [one_rank(m, 1e-3) for m in maps[::-1]]


def test_stacked_ranks_edge_cases(rng):
    def c(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    mats = [np.zeros((0, 3), complex), np.zeros((3, 0), complex), np.zeros((3, 3), complex),
            c(3, 1) @ c(1, 3), c(4, 2) @ c(2, 3), c(1, 5), c(5, 1), np.zeros((1, 5), complex),
            c(3, 3), c(4, 3), np.diag([1.0, 1e-3, 1e-12]).astype(complex), c(1, 1)]
    got = linalg.ranks(mats)
    assert got == [linalg.rank(m) for m in mats] == [0, 0, 0, 1, 2, 1, 1, 0, 3, 3, 2, 1]
    assert linalg.ranks([]) == []


def test_large_finite_matrices_keep_their_ranks():
    # sigma_1 of these overflows, or the cutoff rtol * (scale + |s|) does;
    # read unscaled, an infinite cutoff makes every rank 0
    assert linalg.ranks([np.full((3, 3), 1e308, complex)]) == [1]
    steps = linalg.product_chain(np.diag([1e308, 0]).astype(complex), [1e308])
    assert [f.shape[1] for f, _ in steps] == [1]
    (f, r), = steps
    assert np.array_equal(f @ r, np.diag([0, -1e308]))  # the pair, in the matrix's units


def test_inv_round_trip_both_modes():
    a = exact([[1, 2], [3, 5]])
    inv = linalg.inv(a)
    assert linalg.matrices_equal(np.dot(a, inv), linalg.eye(2, True))
    af = linalg.to_complex(a)
    assert np.allclose(af @ linalg.inv(af), np.eye(2))


def test_inv_names_a_singular_exact_matrix():
    # the rref of [a | I] has a pivot in its I half just when a is
    # singular
    a = exact([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="^singular exact matrix$"):
        linalg.inv(a)
    with pytest.raises(ValueError, match="^singular exact matrix$"):
        jet_inv(JetMatrix(2, 2, (a, linalg.zeros(2, 2, True))))
    with pytest.raises(np.linalg.LinAlgError):
        linalg.inv(linalg.to_complex(a))


def test_exact_walk_factors_by_pivot_columns_and_rref_rows():
    # a - 0 factors through its pivot columns 0 and 2; a on V_1 is then
    # r f = [[5, 2], [0, 0]], and its shift by 1 is invertible, so the
    # rref gives (r f - 1, I), the pair the repeated shift 1 takes
    # without an rref
    a = exact([[1, 2, 0], [2, 4, 1], [0, 0, 0]])
    pairs = linalg.product_chain(a, [0, 1, 1])
    want = [(a[:, [0, 2]], exact([[1, 2, 0], [0, 0, 1]]))]
    want += 2 * [(exact([[4, 2], [0, -1]]), linalg.eye(2, True))]
    for (f, r), (wf, wr) in zip(pairs, want, strict=True):
        assert linalg.matrices_equal(f, wf) and linalg.matrices_equal(r, wr)


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
            assert widths(ex, [0] * n) == want
            fl = shifted.astype(complex)
            scale = np.linalg.norm(a.astype(complex), 2) + abs(lam)
            assert widths(fl, [0] * n, scale) == want
            assert power_ranks_every_step(fl, n, scale=scale) == want
            settled += want.index(want[-1]) + 1 < n
    assert settled >= 30  # sequences that settle before the last power


def widths(a, shifts, scale=None) -> list:
    return [f.shape[1] for f, _ in linalg.product_chain(a, shifts, scale=scale)]


def _norm2(m) -> float:
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def _walk_by_definition(a, shifts, scale) -> list:
    """The widths of the walk of a over shifts, each step checked against
    its definition: f r = a_{j-1} - s_j (in floats up to the step's
    cutoff), and a_j = r f + s_j is a on V_j in the coordinates
    B_j = f_1 ... f_j, a B_j = B_j a_j (in floats up to the cutoffs so
    far)."""
    is_ex = linalg.is_exact(a)
    basis, a_j, slack, out = linalg.eye(a.shape[0], is_ex), a, 0.0, []
    for s, (f, r) in zip(shifts, linalg.product_chain(a, shifts, scale=scale), strict=True):
        diff = a_j - s * linalg.eye(a_j.shape[0], is_ex)
        a_j = np.dot(r, f) + s * linalg.eye(f.shape[1], is_ex)
        basis = np.dot(basis, f)
        if is_ex:
            assert linalg.is_zero_matrix(np.dot(f, r) - diff)
            assert linalg.is_zero_matrix(np.dot(a, basis) - np.dot(basis, a_j))
        else:
            cutoff = linalg.RANK_RTOL * (scale + abs(s))
            slack += cutoff
            assert _norm2(f @ r - diff) <= cutoff + 1e-12 * (scale + abs(s))
            assert _norm2(a @ basis - basis @ a_j) <= slack + 1e-12 * (scale + abs(s))
        out.append(f.shape[1])
    return out


@pytest.mark.parametrize("is_ex", [True, False], ids=["exact", "float"])
def test_the_walk_factors_each_step_and_ranks_the_powers(is_ex):
    # integer Jordan conjugates walked by the powers at each eigenvalue
    # and at 3, and orbit normal forms (unitary conjugates in floats)
    # walked by the powers at each eigenvalue and by the greedy marking
    # with 7 + 7i appended; a power walk has the widths of
    # power_ranks_every_step at the same cutoff
    r, rng = random.Random(25), np.random.default_rng(25)
    cases = []
    for _ in range(20):
        n = r.randint(1, 5)
        a, values = random_jordan_matrix(r, n)
        cases.append((exact(a.tolist()) if is_ex else a.astype(complex),
                      [[v] * n for v in values + [3]]))
    while len(cases) < 40:
        spec = _random_spec(r, is_ex)
        if spec.n > 5:
            continue
        a = normal_form_matrix(spec)
        if not is_ex:
            q = np.linalg.qr(rng.normal(size=(spec.n,) * 2) + 1j * rng.normal(size=(spec.n,) * 2))[0]
            a = q @ a @ q.conj().T
        marking = list(greedy_marking(spec)) + [G(7, 7) if is_ex else 7 + 7j]
        cases.append((a, [[v] * spec.n for v, _ in spec.eigenvalues] + [marking]))
    for a, chains in cases:
        n, scale = a.shape[0], None if is_ex else float(np.linalg.norm(a, 2))
        for shifts in chains:
            got = _walk_by_definition(a, shifts, scale)
            if len(set(shifts)) == 1:
                s = shifts[0]
                want = power_ranks_every_step(a - s * linalg.eye(n, is_ex), len(shifts),
                                              scale=None if is_ex else scale + abs(s))
                assert got == want


def test_product_chain_refuses_a_non_finite_step():
    # the SVD of a complex 4 x 4 matrix holding an infinity never returned;
    # a shift beyond half the double range overflows a finite matrix
    done = run_fresh("-c", """
import numpy as np
from dsirr import linalg
R = np.ones((4, 4), complex)
R[0, 0] = np.inf
for a, shifts in ((R, [0j, 0j]), (np.diag([1e308, 0, 0, 0]).astype(complex), [-1e308])):
    try:
        linalg.product_chain(a, shifts)
    except ValueError as e:
        print(e)
""")
    assert done.stdout.splitlines() == ["step 1 of the product chain is not finite"] * 2
