import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_complex
from dsirr import linalg
from dsirr.orbits import (
    greedy_marking,
    jordan_from_matrix,
    leg_dimensions,
    make_orbit_spec,
    minimal_marking,
    normal_form_matrix,
    orbit_membership,
    orbit_spec_from_json,
    orbit_spec_to_json,
    rank_sequence,
    realize_leg,
)
from dsirr.quiver import moment_map
from dsirr.scalars import GaussianRational as G
from oracles import (
    exact_matrix,
    keyed_greedy_marking,
    keyed_orbit_membership,
    keyed_rank_sequence,
    leg_reconstruction,
)


def jordan_block(lam, size):
    m = np.zeros((size, size), dtype=complex)
    for i in range(size):
        m[i, i] = lam
        if i + 1 < size:
            m[i, i + 1] = 1.0
    return m


def test_scalar_matrix_marking():
    lam = 2.0 + 1j
    spec = jordan_from_matrix(lam * np.eye(3, dtype=complex))
    assert greedy_marking(spec) == (lam,)
    assert leg_dimensions(spec) == []


def test_two_eigenvalue_marking_and_leg():
    mu, nu = 1.0 + 0j, -2.0 + 0j
    L = np.diag([mu, mu, nu]).astype(complex)
    spec = jordan_from_matrix(L)
    marking = greedy_marking(spec)
    assert marking == (mu, nu)  # mu has the larger rank drop
    assert leg_dimensions(spec, marking) == [1]


def test_nilpotent_jordan_block():
    spec = jordan_from_matrix(jordan_block(0, 2))
    assert greedy_marking(spec) == (0, 0)
    assert leg_dimensions(spec) == [1]
    assert minimal_marking(jordan_block(0, 2)) == (0, 0)


def test_two_nilpotent_blocks():
    L = np.block(
        [[jordan_block(0, 2), np.zeros((2, 2))], [np.zeros((2, 2)), jordan_block(0, 2)]]
    ).astype(complex)
    spec = jordan_from_matrix(L)
    assert spec.eigenvalues[0][1] == (2, 2)
    assert leg_dimensions(spec) == [2]


def test_greedy_tie_breaks_by_re_im():
    spec = make_orbit_spec(2, [(2.0 + 0j, [1]), (-1.0 + 0j, [1])])
    assert greedy_marking(spec) == (-1.0, 2.0)


def test_rank_sequence_exact_combinatorial():
    # eigenvalue a with blocks (3, 1), eigenvalue b with block (2):
    # a wins the first pick (2 active blocks) and every later tie
    spec = make_orbit_spec(6, [(G(0), [3, 1]), (G(5), [2])])
    marking = greedy_marking(spec)
    assert marking == (G(0), G(0), G(0), G(5), G(5))
    assert rank_sequence(spec, marking) == [4, 3, 2, 1]
    assert leg_dimensions(spec, marking) == [4, 3, 2, 1]


def test_marking_override_and_validation():
    spec = make_orbit_spec(2, [(G(0), [2])], marking=(G(0), G(0)))
    assert greedy_marking(spec) == (G(0), G(0))
    with pytest.raises(ValueError):
        make_orbit_spec(2, [(G(0), [2])], marking=(G(0),))


def test_realize_leg_j2():
    L = jordan_block(0, 2)
    leg = realize_leg(L, (0, 0))
    assert leg.rep.dims == {"0": 2, "1": 1}
    recon = leg_reconstruction(leg)
    assert np.allclose(recon, L, atol=1e-12)


def test_realize_leg_scalar_is_empty():
    lam = 3.0 + 0j
    leg = realize_leg(lam * np.eye(2, dtype=complex), (lam,))
    assert list(leg.rep.dims) == ["0"]
    assert np.allclose(leg_reconstruction(leg), lam * np.eye(2))


def test_realize_leg_invalid_marking():
    with pytest.raises(ValueError):
        realize_leg(np.diag([1.0, 2.0]).astype(complex), (1.0,))


def moment_conditions_hold(leg):
    """Z-variety moment values (l_l - l_{l+1}) at every leg vertex."""
    mu = moment_map(leg.rep)
    marking = leg.marking
    d = len(marking)
    for l in range(1, d):
        v = str(l)
        if v not in leg.rep.dims:
            break
        expect = (marking[l - 1] - marking[l]) * np.eye(leg.rep.dims[v], dtype=complex)
        if linalg.mat_norm(mu[v] - expect) > 1e-9 * max(1.0, linalg.mat_norm(expect)):
            return False
    return True


def rand_orbit_matrix(rng, n):
    """Random conjugate of a random Jordan form, eigenvalues well separated."""
    pool = [-2.0, -1.0, 1.0, 2.5, 4.0]
    sizes = []
    left = n
    while left:
        s = int(rng.integers(1, left + 1))
        sizes.append(s)
        left -= s
    vals = rng.choice(len(pool), size=len(sizes))
    m = np.zeros((n, n), dtype=complex)
    pos = 0
    for s, vi in zip(sizes, vals):
        m[pos : pos + s, pos : pos + s] = jordan_block(pool[vi], s)
        pos += s
    g = rand_complex(rng, n, n) + 3 * np.eye(n)
    return g @ m @ np.linalg.inv(g)


def test_realize_leg_random_orbits(rng):
    for _ in range(25):
        n = int(rng.integers(2, 6))
        L = rand_orbit_matrix(rng, n)
        marking = minimal_marking(L)
        leg = realize_leg(L, marking)
        assert np.allclose(leg_reconstruction(leg), L, atol=1e-9 * max(1, np.linalg.norm(L)))
        assert moment_conditions_hold(leg)
        # injectivity of forward maps, surjectivity of reverse maps
        for a in leg.rep.quiver.arrows:
            d_src = leg.rep.dims[a.src]
            assert linalg.rank(leg.rep.fwd[a.id]) == d_src
            assert linalg.rank(leg.rep.rev[a.id]) == d_src


def test_leg_dimensions_non_increasing_for_greedy(rng):
    for _ in range(20):
        n = int(rng.integers(1, 7))
        L = rand_orbit_matrix(rng, n)
        dims = leg_dimensions(jordan_from_matrix(L))
        assert all(a >= b for a, b in zip(dims, dims[1:]))


def test_invariant_subspace_transport(rng):
    # an invariant subspace of L spreads to a graded invariant subspace
    L = np.diag([1.0, 1.0, 3.0]).astype(complex)
    leg = realize_leg(L, minimal_marking(L))
    s = np.array([[1.0], [0], [0]], dtype=complex)  # inside the 1-eigenspace
    w0 = s
    w1 = leg.rep.rev["1>0"] @ w0
    # closure under both directions keeps the grading
    back = leg.rep.fwd["1>0"] @ w1
    assert np.allclose(back, (L - 1.0 * np.eye(3)) @ s, atol=1e-12)


def test_orbit_membership_basic(rng):
    spec = jordan_from_matrix(jordan_block(0, 2))
    assert orbit_membership(jordan_block(0, 2), spec)
    assert not orbit_membership(np.zeros((2, 2), dtype=complex), spec)
    assert not orbit_membership(np.diag([0.0, 1.0]).astype(complex), spec)
    g = rand_complex(rng, 2, 2) + 2 * np.eye(2)
    conj = g @ jordan_block(0, 2) @ np.linalg.inv(g)
    assert orbit_membership(conj, spec)
    assert orbit_membership(conj + 1e-12 * rand_complex(rng, 2, 2), spec)


def test_orbit_membership_exact():
    spec = make_orbit_spec(2, [(G(1), [1]), (G(2), [1])])
    m = exact_matrix([[1, 5], [0, 2]])
    assert orbit_membership(m, spec)
    assert not orbit_membership(exact_matrix([[1, 5], [0, 1]]), spec)


def test_exact_jordan_needs_eigenvalues():
    m = exact_matrix([[1, 0], [0, 2]])
    with pytest.raises(ValueError):
        jordan_from_matrix(m)
    spec = jordan_from_matrix(m, eigenvalues=[G(1), G(2)])
    assert spec.n == 2 and len(spec.eigenvalues) == 2


def test_exact_realize_leg():
    m = exact_matrix([[0, 1, 0], [0, 0, 0], [0, 0, 4]])
    spec = jordan_from_matrix(m, eigenvalues=[G(0), G(4)])
    marking = greedy_marking(spec)
    leg = realize_leg(m, marking)
    assert linalg.matrices_equal(leg_reconstruction(leg), m)


def test_json_round_trips():
    spec = make_orbit_spec(3, [(G(1), [2]), (G(-1), [1])])
    data = orbit_spec_to_json(spec)
    spec2 = orbit_spec_from_json(data, 3, exact=True)
    assert spec2 == spec
    # matrix form
    spec3 = orbit_spec_from_json(
        {"matrix": [[1.0, 0], [0.0, 0], [0.0, 0], [2.0, 0]]}, 2, exact=False
    )
    assert [b for _, b in spec3.eigenvalues] == [(1,), (1,)]
    # marking + ranks form
    spec4 = orbit_spec_from_json({"marking": ["0", "0"], "ranks": [1]}, 2, exact=True)
    assert spec4.eigenvalues == ((G(0), (2,)),)


def test_eigenvalue_clustering(rng):
    L = np.diag([1.0, 1.0 + 1e-12, 5.0]).astype(complex)
    spec = jordan_from_matrix(L)
    assert len(spec.eigenvalues) == 2


def _random_spec(r, exact):
    """1-6 distinct eigenvalues of 1-3 blocks of size 1-3, drawn from few
    real parts so that many differ only in Im; in float mode some sit one
    ulp from a neighbour in Re or Im."""
    values, size = [], r.randint(1, 6)
    while len(values) < size:
        re, im = Fraction(r.randint(-2, 2), r.choice([1, 3])), r.randint(-1, 1)
        if exact:
            v = G(re, im)
        elif values and r.random() < 0.4:
            w = r.choice(values)
            up = r.choice([math.inf, -math.inf])
            v = complex(math.nextafter(w.real, up), w.imag) if r.random() < 0.5 else \
                complex(w.real, math.nextafter(w.imag, up))
        else:
            v = complex(float(re), im)
        if v not in values:
            values.append(v)
    pairs = [(v, [r.randint(1, 3) for _ in range(r.randint(1, 3))]) for v in values]
    r.shuffle(pairs)
    return make_orbit_spec(sum(sum(b) for _, b in pairs), pairs)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_bookkeeping_by_index_matches_the_keyed_oracles(exact):
    r = random.Random(15)
    for _ in range(300):
        spec = _random_spec(r, exact)
        keys = [(v.real, v.imag) if not exact else (v.re, v.im) for v, _ in spec.eigenvalues]
        assert keys == sorted(set(keys))  # the stated invariant
        assert greedy_marking(spec) == keyed_greedy_marking(spec)
        assert rank_sequence(spec) == keyed_rank_sequence(spec)
        # any marking, with repeats, gaps and a scalar outside the spectrum
        values = [v for v, _ in spec.eigenvalues] + [G(7, 7) if exact else 7 + 7j]
        marking = [r.choice(values) for _ in range(r.randint(0, 8))]
        assert rank_sequence(spec, marking) == keyed_rank_sequence(spec, marking)
        # an override is validated and followed alike
        try:
            override = make_orbit_spec(spec.n, spec.eigenvalues, marking)
        except ValueError:
            assert any(marking.count(v) < b[0] for v, b in spec.eigenvalues)
            continue
        assert greedy_marking(override) == keyed_greedy_marking(override) == tuple(marking)
        assert rank_sequence(override) == keyed_rank_sequence(override)


def _conjugates(r, N, exact):
    """Matrices near N's orbit: N plus 1e-9 noise (exact mode: 1/10^9 in
    the corner, which splits a Jordan block), and conjugates g N g^-1
    with cond(g) = 1e3 and 1e5 (exact mode: a product of integer
    elementary matrices, with its exact inverse).  Each as (matrix,
    whether it lies in N's orbit by construction, whether cond(g) =
    1e5)."""
    n = N.shape[0]
    if exact:
        corner = N.copy()
        corner[n - 1, 0] = corner[n - 1, 0] + G(Fraction(1, 10**9))
        g, g_inv = linalg.eye(n, True), linalg.eye(n, True)
        for _ in range(2 * n if n > 1 else 0):
            i, j = r.sample(range(n), 2)
            e, c = linalg.eye(n, True), r.randint(-9, 9)
            e[i, j] = G(c)
            g = np.dot(g, e)
            e[i, j] = G(-c)
            g_inv = np.dot(e, g_inv)
        return [(corner, False, False), (np.dot(np.dot(g, N), g_inv), True, False)]
    rng = np.random.default_rng(r.randrange(2**32))

    def unitary():
        return np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]

    out = [(N + 1e-9 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))), False, False)]
    for cond in (1e3, 1e5):
        g = unitary() @ np.diag(np.logspace(0, -math.log10(cond), n)) @ unitary()
        out.append((g @ N @ np.linalg.inv(g), True, cond == 1e5))
    return out


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_orbit_membership_matches_the_keyed_oracle(exact):
    # the normal form of a spec, matrices near it, and each against the
    # spec and every spec one block move away, at scales 0, 10 ||R|| and
    # 1e3 (eigenvalues one ulp apart make either answer possible; both
    # must agree).  Up to each largest block the oracle must agree on
    # every pair.  Past it, where the lemma in orbit_membership proves
    # the powers redundant, the oracle's own SVD of a power of a
    # cond-1e5 conjugate can drop a rank the matrix has; so there alone,
    # on such a conjugate that is a member by construction, the
    # full-profile oracle may reject what orbit_membership accepts
    r = random.Random(16)
    answers, rejected_members = [], 0
    while len(answers) < (300 if exact else 1500):
        spec = _random_spec(r, exact)
        if spec.n > 5:  # exact powers are slow, float powers of size 18 lose ranks
            continue
        N = normal_form_matrix(spec)
        others = []
        for i, (value, blocks) in enumerate(spec.eigenvalues):
            moved = list(spec.eigenvalues)
            moved[i] = (value, blocks[1:] + (1,) * blocks[0])  # split the largest block
            others.append(make_orbit_spec(spec.n, moved))
        # (R, spec, whether the full-profile oracle may reject R)
        pairs = [(N, s, False) for s in [spec] + others]
        pairs += [(normal_form_matrix(other), spec, False) for other in others]
        pairs += [(R, s, ill and member and s == spec)
                  for R, member, ill in _conjugates(r, N, exact) for s in [spec] + others]
        for R, s, loose in pairs:
            norm = np.linalg.norm(linalg.to_complex(R), 2)
            for scale in (0.0, 10 * norm, 1e3):
                answers.append(orbit_membership(R, s, scale=scale))
                assert answers[-1] == keyed_orbit_membership(R, s, scale=scale, largest_block=True)
                if answers[-1] != keyed_orbit_membership(R, s, scale=scale):
                    assert loose
                    rejected_members += 1
    assert rejected_members <= len(answers) // 100
    assert len(answers) // 5 < sum(answers) < len(answers) - len(answers) // 5


def test_the_scale_sets_the_cutoff_of_every_power():
    # R has the kernel chain of blocks (2, 1) at 0 up to an entry 1e-7,
    # which the cutoff at scale 1e3 reads as 0, at j = 1 and at j = 2,
    # and the unscaled cutoff does not
    R = jordan_block(0, 3)
    R[1, 2] = 1e-7
    spec = make_orbit_spec(3, [(0j, [2, 1])])
    assert orbit_membership(R, spec, scale=1e3) and keyed_orbit_membership(R, spec, scale=1e3)
    assert not orbit_membership(R, spec) and not keyed_orbit_membership(R, spec)


def test_a_semisimple_orbit_costs_one_svd(monkeypatch, rng):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    spec = make_orbit_spec(4, [(1 + 0j, [1, 1]), (2j, [1]), (-3 + 0j, [1])])
    g = rand_complex(rng, 4, 4) + 3 * np.eye(4)
    R = g @ normal_form_matrix(spec) @ np.linalg.inv(g)
    for M, member in ((R, True), (R + 0.1 * np.eye(4), False)):
        calls.clear()
        assert orbit_membership(M, spec) is member
        assert calls == [False]  # one stacked SVD, no singular vectors
    # a block of size 2 adds its profile from power_rank_sequence, one
    # SVD per power
    spec = jordan_from_matrix(jordan_block(0, 2))
    calls.clear()
    assert orbit_membership(jordan_block(0, 2), spec)
    assert calls == [False, True, True]


def test_eigenvalues_that_round_together_have_no_float_orbit():
    close = G(Fraction(10**30 + 1, 5 * 10**30))
    spec = make_orbit_spec(2, [(G(Fraction(1, 5)), [1]), (close, [1])])
    with pytest.raises(ValueError, match=f"^block 1: eigenvalues 1/5 and {close} round to the same"):
        spec.to_float("block 1")
    assert make_orbit_spec(2, [(G(Fraction(1, 5)), [1]), (G(1), [1])]).to_float("block 1").n == 2


@pytest.mark.parametrize("values", [
    [G(1), G(2), G(1)], [G(0, 1), G(0, -1), G(0, 1)], [1 + 0j, 2 + 0j, 1 + 0j]])
def test_a_repeated_eigenvalue_is_rejected_wherever_it_stands(values):
    with pytest.raises(ValueError, match="repeated eigenvalue"):
        make_orbit_spec(len(values), [(v, [1]) for v in values])
