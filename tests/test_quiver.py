import numpy as np
import pytest

from conftest import rand_complex
from dsirr import linalg
from dsirr.quiver import (
    DoubledRep,
    delta,
    is_stable,
    make_quiver,
    moment_map,
    quiver_from_json,
    quiver_to_json,
    symplectic_form,
    to_dot,
)
from dsirr.scalars import GaussianRational as G
from oracles import exact_matrix, invariant_closure


def a2():
    return make_quiver(["1", "2"], [("a", "1", "2")])


def single_arrow_rep(x, y):
    q = a2()
    return DoubledRep(
        q,
        {"1": 1, "2": 1},
        {"a": np.array([[x]], dtype=complex)},
        {"a": np.array([[y]], dtype=complex)},
    )


def rand_rep(rng, quiver, dims):
    rep = DoubledRep.zero(quiver, dims, exact=False)
    for a in quiver.arrows:
        rep.fwd[a.id] = rand_complex(rng, dims[a.dst], dims[a.src])
        rep.rev[a.id] = rand_complex(rng, dims[a.src], dims[a.dst])
    return rep


def test_moment_zero_rep():
    rep = DoubledRep.zero(a2(), {"1": 2, "2": 3})
    mu = moment_map(rep)
    assert all(linalg.mat_norm(m) == 0 for m in mu.values())


def test_moment_single_arrow_scalars():
    x, y = 2.0 + 1j, -0.5j
    mu = moment_map(single_arrow_rep(x, y))
    assert np.allclose(mu["1"], [[-y * x]])
    assert np.allclose(mu["2"], [[x * y]])


def test_moment_trace_identity_random(rng):
    q = make_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")])
    dims = {"1": 2, "2": 3, "3": 2}
    rep = rand_rep(rng, q, dims)
    mu = moment_map(rep)
    total = sum(np.trace(mu[v]) for v in dims)
    assert abs(total) < 1e-12


def test_symplectic_form_values(rng):
    base = single_arrow_rep(0, 0)
    d1 = single_arrow_rep(1, 0)
    d2 = single_arrow_rep(0, 1)
    assert symplectic_form(base, d1, d1) == 0
    assert abs(symplectic_form(base, d1, d2) - 1) < 1e-14
    q = a2()
    dims = {"1": 2, "2": 2}
    t1, t2 = rand_rep(rng, q, dims), rand_rep(rng, q, dims)
    base = DoubledRep.zero(q, dims)
    assert abs(symplectic_form(base, t1, t2) + symplectic_form(base, t2, t1)) < 1e-12


def test_symplectic_form_nondegenerate_random(rng):
    q = make_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    dims = {"1": 2, "2": 1}
    base = DoubledRep.zero(q, dims)
    basis = []
    for a in q.arrows:
        for i in range(dims[a.dst]):
            for j in range(dims[a.src]):
                for side in ("fwd", "rev"):
                    t = DoubledRep.zero(q, dims)
                    if side == "fwd":
                        t.fwd[a.id][i, j] = 1.0
                    else:
                        t.rev[a.id][j, i] = 1.0
                    basis.append(t)
    gram = np.array(
        [[complex(symplectic_form(base, u, v)) for v in basis] for u in basis]
    )
    assert linalg.rank(gram) == len(basis)


def test_delta_examples():
    assert delta(a2(), {"1": 1, "2": 0}) == 0  # simple root
    assert delta(a2(), {"1": 1, "2": 1}) == 0
    double = make_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    assert delta(double, {"1": 1, "2": 1}) == 1


def test_stability_examples():
    point = make_quiver(["1"], [])
    rep = DoubledRep(point, {"1": 1}, {}, {})
    assert is_stable(rep)

    # a2 with x = 1, y = 0: the target vertex spans an invariant subspace
    assert not is_stable(single_arrow_rep(1, 0))
    assert is_stable(single_arrow_rep(1, 1))


def test_stability_density_one_vertex_dim2():
    loopq = make_quiver(["1"], [("a", "1", "1")])
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    e21 = np.array([[0, 0], [1, 0]], dtype=complex)
    rep = DoubledRep(loopq, {"1": 2}, {"a": e12}, {"a": e21})
    assert is_stable(rep)
    rep0 = DoubledRep(loopq, {"1": 2}, {"a": e12}, {"a": np.zeros((2, 2), complex)})
    assert not is_stable(rep0)


def test_stability_exact_mode():
    x = exact_matrix([[1]])
    y0 = exact_matrix([[0]])
    rep = DoubledRep(a2(), {"1": 1, "2": 1}, {"a": x}, {"a": y0})
    assert not is_stable(rep)
    rep2 = DoubledRep(a2(), {"1": 1, "2": 1}, {"a": x}, {"a": x})
    assert is_stable(rep2)


def test_stability_invariant_under_group(rng):
    q = a2()
    dims = {"1": 2, "2": 2}
    rep = rand_rep(rng, q, dims)
    stable = is_stable(rep)
    for _ in range(5):
        g = {v: rand_complex(rng, dims[v], dims[v]) + 2 * np.eye(dims[v]) for v in dims}
        moved = rep.copy()
        for a in q.arrows:
            gi = np.linalg.inv(g[a.src])
            moved.fwd[a.id] = g[a.dst] @ rep.fwd[a.id] @ gi
            moved.rev[a.id] = g[a.src] @ rep.rev[a.id] @ np.linalg.inv(g[a.dst])
        assert is_stable(moved) == stable


def test_invariant_closure_trivial_and_full():
    rep = single_arrow_rep(1, 1)
    w = invariant_closure(rep, {})
    assert all(m.shape[1] == 0 for m in w.values())
    w = invariant_closure(rep, {"1": np.eye(1, dtype=complex), "2": np.eye(1, dtype=complex)})
    assert all(w[v].shape[1] == rep.dims[v] for v in rep.dims)


def test_invariant_closure_a2_seed_target():
    rep = single_arrow_rep(1, 0)
    w = invariant_closure(rep, {"2": np.eye(1, dtype=complex)})
    assert w["1"].shape[1] == 0 and w["2"].shape[1] == 1


def test_invariant_closure_idempotent(rng):
    q = make_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    dims = {"1": 2, "2": 2}
    rep = rand_rep(rng, q, dims)
    rep.rev["a"] = np.zeros((2, 2), dtype=complex)
    rep.rev["b"] = np.zeros((2, 2), dtype=complex)
    w = invariant_closure(rep, {"1": rand_complex(rng, 2, 1)})
    again = invariant_closure(rep, {v: w[v] for v in w if w[v].shape[1]})
    for v in dims:
        assert again[v].shape[1] == w[v].shape[1]


def test_stable_implies_every_seed_generates(rng):
    q = make_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    dims = {"1": 2, "2": 1}
    rep = rand_rep(rng, q, dims)
    assert is_stable(rep)
    for _ in range(100):
        v = rng.choice(["1", "2"])
        seed = rand_complex(rng, dims[v], 1)
        w = invariant_closure(rep, {v: seed})
        assert all(w[u].shape[1] == dims[u] for u in dims)


def test_zero_dim_vertex_kept():
    q = a2()
    rep = DoubledRep(
        q,
        {"1": 1, "2": 0},
        {"a": np.zeros((0, 1), dtype=complex)},
        {"a": np.zeros((1, 0), dtype=complex)},
    )
    assert is_stable(rep)


def test_json_round_trip():
    q = make_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    dims = {"1": 1, "2": 2}
    zeta = {"1": G(1, 2), "2": G(-3)}
    data = quiver_to_json(q, dims, zeta)
    q2, dims2, zeta2 = quiver_from_json(data)
    assert q2 == q and dims2 == dims and zeta2 == zeta


def test_dot_parallel_edges():
    q = make_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    dot = to_dot(q, {"1": 1, "2": 1}, {"1": G(0), "2": G(0)})
    assert dot.count('"1" -> "2"') == 2
    assert "zeta" not in dot
    assert "zeta" in to_dot(q, {"1": 1, "2": 1}, {"1": G(0), "2": G(0)}, full=True)


def test_quiver_validation():
    with pytest.raises(ValueError):
        make_quiver(["1"], [("a", "1", "9")])
    with pytest.raises(ValueError):
        make_quiver(["1", "1"], [])
    with pytest.raises(ValueError):
        make_quiver(["1", "2"], [("a", "1", "2"), ("a", "2", "1")])
