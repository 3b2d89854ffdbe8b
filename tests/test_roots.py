import collections
import copy
import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from dsirr.assembly import build_global_quiver, decide_ds, instance_from_json
from dsirr.quiver import delta, make_quiver
from dsirr.roots import (
    CartanData,
    SearchCapExceeded,
    _violating_decomposition,
    cb_solvable,
    is_positive_root,
    summand_candidates,
)
from dsirr.scalars import GaussianRational as G
from oracles import (
    bench_ladder,
    brute_candidates,
    dfs_solvable,
    indispensable_candidates,
    indispensable_solvable,
    mask_violating_decomposition,
    mixed_zeta_problem,
    reflection_end,
    reflection_is_positive_root,
    support_connected,
    unfiltered_solvable,
)


def a2():
    return CartanData.from_quiver(make_quiver(["1", "2"], [("a", "1", "2")]))


def double():
    return CartanData.from_quiver(
        make_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    )


def star3():
    # p1 <- t -> p2 shape (orientation irrelevant for the form)
    return CartanData.from_quiver(
        make_quiver(["p1", "p2", "t"], [("x", "t", "p1"), ("y", "t", "p2")])
    )


def star4():
    # the affine D4 star: centre "c" and four legs
    return CartanData.from_quiver(make_quiver(
        ["c", "a", "b", "d", "e"],
        [("x", "a", "c"), ("y", "b", "c"), ("z", "d", "c"), ("u", "e", "c")]))


def test_tits_form_values():
    c = a2()
    assert c.tits_form((1, 0)) == 1
    assert c.tits_form((1, 1)) == 1
    assert c.tits_form((2, 1)) == 3
    assert double().tits_form((1, 1)) == 0


def test_delta_equals_one_minus_q():
    quivers = [
        make_quiver(["1", "2"], [("a", "1", "2")]),
        make_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]),
        make_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")]),
    ]
    for q in quivers:
        c = CartanData.from_quiver(q)
        for v in itertools.product(range(4), repeat=len(q.vertices)):
            dims = dict(zip(q.vertices, v))
            assert delta(q, dims) == 1 - c.tits_form(v)


def test_positive_root_examples():
    c = a2()
    assert is_positive_root(c, (1, 0))
    assert is_positive_root(c, (1, 1))
    assert not is_positive_root(c, (2, 1))
    assert not is_positive_root(c, (0, 0))
    assert not is_positive_root(c, (2, 0))
    d = double()
    assert is_positive_root(d, (1, 1))  # imaginary: (v, e_i) = 0, connected
    assert is_positive_root(d, (2, 2))
    assert not is_positive_root(d, (1, 0)) or True  # e_1 is real
    assert is_positive_root(d, (1, 0))


def test_imaginary_needs_connected_support():
    q = make_quiver(["1", "2", "3"], [("a", "1", "2")])
    c = CartanData.from_quiver(q)
    assert not is_positive_root(c, (1, 0, 1))  # disconnected support
    # two Kronecker quivers side by side: (1, 1, 1, 1) is fixed by every
    # reflection and has full support, but the quiver is not connected
    c = CartanData.from_quiver(make_quiver(
        ["1", "2", "3", "4"], [("a", "1", "2"), ("b", "1", "2"), ("c", "3", "4"), ("d", "3", "4")]))
    assert not c.connected((1, 1, 1, 1)) and not is_positive_root(c, (1, 1, 1, 1))
    batch = [(1, 1, 1, 1), (1, 0, 0, 0), (1, 1, 0, 0), (2, 2, 1, 1)]
    assert [is_positive_root(c, w) for w in batch] == [False, True, True, False]


def test_positive_root_invariant_under_relabeling():
    # same path quiver, vertices renamed by phi: 1->"2", 2->"1", 3->"3"
    q1 = make_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    q2 = make_quiver(["3", "1", "2"], [("a", "2", "1"), ("b", "1", "3")])
    c1, c2 = CartanData.from_quiver(q1), CartanData.from_quiver(q2)
    phi = {"1": "2", "2": "1", "3": "3"}
    for v1 in itertools.product(range(3), repeat=3):
        by_new_name = {phi[old]: x for old, x in zip(("1", "2", "3"), v1)}
        v2 = tuple(by_new_name[x] for x in ("3", "1", "2"))
        assert is_positive_root(c1, v1) == is_positive_root(c2, v2)


def test_loops_rejected():
    q = make_quiver(["1"], [("a", "1", "1")])
    with pytest.raises(ValueError):
        CartanData.from_quiver(q)


def test_summand_candidates_generic_and_degenerate():
    c = a2()
    z = 1 + G(0, 7)
    assert summand_candidates(c, (1, 1), {"1": z, "2": -z}) == [(1, 1)]
    assert summand_candidates(c, (1, 1), {"1": G(0), "2": G(0)}) == [
        (0, 1),
        (1, 0),
        (1, 1),
    ]


def test_summand_candidates_reject_float():
    with pytest.raises(TypeError):
        summand_candidates(a2(), (1, 1), {"1": 0.5, "2": -0.5})


def test_cb_single_vertex():
    c = CartanData.from_quiver(make_quiver(["1"], []))
    v = cb_solvable(c, (1,), {"1": G(0)})
    assert v.nonempty and v.dim == 0
    v = cb_solvable(c, (1,), {"1": G(1)})
    assert v.nonempty is False and v.failed_condition == 2


def test_cb_condition1():
    v = cb_solvable(a2(), (2, 1), {"1": G(0), "2": G(0)})
    assert v.failed_condition == 1


def test_cb_condition3_witness():
    v = cb_solvable(a2(), (1, 1), {"1": G(0), "2": G(0)})
    assert v.nonempty is False and v.failed_condition == 3
    assert sorted(tuple(w) for w in v.witness) == [(0, 1), (1, 0)]


def test_cb_imaginary_family():
    # doubled arrow, zeta = (c, -c): only the trivial decomposition
    v = cb_solvable(double(), (1, 1), {"1": G(3, 1), "2": G(-3, -1)})
    assert v.nonempty and v.dim == 2


def test_cb_star_rigid():
    zeta = {
        "p1": G(-7) / G(10),
        "p2": G(-8) / G(15),
        "t": G(37) / G(30),
    }
    v = cb_solvable(star3(), (1, 1, 1), zeta)
    assert v.nonempty and v.dim == 0


def test_cb_star_condition3():
    # zeta = (0, -1, 1): e_{p1} + (0,1,1) decomposes v with equal deltas
    zeta = {"p1": G(0), "p2": G(-1), "t": G(1)}
    v = cb_solvable(star3(), (1, 1, 1), zeta)
    assert v.nonempty is False and v.failed_condition == 3


def test_cb_zeta_v_nonzero_always_empty():
    for zeta1 in (G(1), G(0, 2), G(5) / G(7)):
        v = cb_solvable(a2(), (1, 1), {"1": zeta1, "2": G(0)})
        assert v.nonempty is False and v.failed_condition == 2


def test_cb_search_cap_reports_undecided():
    # at zeta = (1, -1) the half boxes of (6, 6) hold 14 points
    v = cb_solvable(double(), (6, 6), {"1": G(1), "2": G(-1)}, max_nodes=5)
    assert v.undecided and v.detail.startswith("enumeration budget of 5 exhausted")
    # at zeta = 0, (6, 6) is 6 times the isotropic root (1, 1): decided
    # empty in closed form, with no search to charge
    v = cb_solvable(double(), (6, 6), {"1": G(0), "2": G(0)}, max_nodes=1)
    assert v.failed_condition == 3 and v.witness == [[5, 5], [1, 1]]


@pytest.mark.parametrize("max_nodes", [0, -5])
def test_cb_rejects_a_budget_below_one(max_nodes):
    with pytest.raises(ValueError, match="at least 1"):
        cb_solvable(a2(), (1, 1), {"1": G(0), "2": G(0)}, max_nodes=max_nodes)


def star(legs: int, ends: int):
    """Vertices A and B joined to each of `legs` leg vertices, with `ends`
    end vertices hung on A by one arrow each, and v = 3 at every vertex but
    the ends, 1 at those.  Then (v, e_x) is 0 at each leg and -1 at each
    end, v lies in the fundamental set with q(v) < 0, and the closed form
    walks the legs' box, 4^legs points, once per end; no gamma is found,
    so v is nonempty."""
    names = ["A", "B"] + [f"l{i}" for i in range(legs)] + [f"e{i}" for i in range(ends)]
    arrows = [(f"{x}{i}", x, f"l{i}") for i in range(legs) for x in "AB"]
    arrows += [(f"f{i}", f"e{i}", "A") for i in range(ends)]
    cartan = CartanData.from_quiver(make_quiver(names, arrows))
    return cartan, (3,) * (2 + legs) + (1,) * ends, {x: G(0) for x in names}


def test_budget_is_checked_before_allocation():
    # (10^6, 10^6) is an imaginary root of the doubled arrow; at zeta = 0 it
    # is 10^6 times the isotropic root (1, 1), empty with no allocation
    tracemalloc.start()
    try:
        v = cb_solvable(double(), (10**6, 10**6), {"1": G(0), "2": G(0)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.failed_condition == 3 and v.nodes == 0
    assert v.witness == [[10**6 - 1] * 2, [1, 1]]
    assert peak < 100_000
    # at zeta = (1, -1) the criterion reaches the enumeration, whose half
    # boxes exceed the cap
    tracemalloc.start()
    try:
        v = cb_solvable(double(), (10**6, 10**6), {"1": G(1), "2": G(-1)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.undecided and v.nodes == 0
    assert v.detail.startswith("enumeration budget of 200000 exhausted")
    assert peak < 100_000
    # nine legs: the closed form's box holds 4^9 = 262 144 points (19 MB),
    # which must be refused before it is built
    cartan, v, zeta = star(9, 1)
    tracemalloc.start()
    try:
        verdict = cb_solvable(cartan, v, zeta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.undecided and verdict.nodes == 0
    assert verdict.detail == ("enumeration budget of 200000 exhausted: the isotropic-root "
                              "search's boxes reach 262144 points")
    assert peak < 1_000_000
    # the meet-in-the-middle enumeration on its own: both half boxes (1001
    # points each) fit the cap, but at zeta = 0 their one zeta sum pairs
    # every head with every tail, a block of 1001^2 rows that must be
    # refused before it is built
    tracemalloc.start()
    try:
        with pytest.raises(SearchCapExceeded) as refused:
            summand_candidates(double(), (1000, 1000), {"1": G(0), "2": G(0)}, cap=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == "enumeration budget of 200000 exhausted"
    assert peak < 1_000_000
    single = CartanData.from_quiver(make_quiver(["1"], []))
    with pytest.raises(SearchCapExceeded, match="enumeration budget of 2000000"):
        summand_candidates(single, (10**7,), {"1": G(0)})


# --- the colour-class reflection walk against the scalar loop -----------------


def random_quiver(rng):
    """A loop-free quiver on 1-5 vertices with 0-2 arrows between each pair.

    Half of them join no vertex below m // 2 to one above, so that
    vectors fixed by every reflection can have disconnected support.
    """
    m = rng.randint(1, 5)
    cut = rng.choice((0, m // 2))
    names = [str(i) for i in range(m)]
    arrows = [
        (f"a{i}{j}{r}", names[i], names[j])
        for i, j in itertools.combinations(range(m), 2) if (i < cut) == (j < cut)
        for r in range(rng.choice((0, 1, 1, 2, 2)))
    ]
    return CartanData.from_quiver(make_quiver(names, arrows))


def test_is_positive_root_matches_the_reflection_loop():
    # every non-zero box point of 250 quivers: the scalar loop ends at a
    # simple root, a negative coordinate, or a fixed vector whose support
    # is connected or not, and each ending occurs at least 50 times
    rng = random.Random(2)
    ends = collections.Counter()
    double_edges = 0
    for _ in range(250):
        cartan = random_quiver(rng)
        double_edges += any(2 in row for row in cartan.adjacency)
        v = [rng.randint(0, 3) for _ in range(cartan.size)]
        box = [w for w in itertools.product(*(range(x + 1) for x in v)) if any(w)]
        if not box:
            continue
        assert ([is_positive_root(cartan, w) for w in box]
                == [reflection_is_positive_root(cartan, w) for w in box])
        for w in box:
            end, u = reflection_end(cartan, w)
            if end == "fixed":
                end += " connected" if support_connected(cartan, u) else " disconnected"
            ends[end] += 1
    assert double_edges >= 50
    assert min(ends[e] for e in ("simple", "negative", "fixed connected",
                                 "fixed disconnected")) >= 50, ends


def test_positive_root_test_runs_on_python_integers_past_int64():
    d4 = star4()
    k = 10**19
    for cartan, w in [(d4, (2 * k, k, k, k, k)), (a2(), (1, k)), (a2(), (-k, 1)), (d4, (0, k, 0, k, 0))]:
        assert is_positive_root(cartan, w) == reflection_is_positive_root(cartan, w)
    assert is_positive_root(d4, (2 * k, k, k, k, k))
    assert not is_positive_root(d4, (0, 0, 0, 0, 0))


def test_root_test_charges_each_colour_class_step():
    # the two Kronecker vertices are adjacent, so each step reflects at one
    # of them: (50, 51) walks down to a simple root in 50 steps, and
    # (50, 52) goes negative at its 26th
    kronecker = double()
    assert is_positive_root(kronecker, (50, 51), max_steps=50)
    with pytest.raises(SearchCapExceeded, match="root test needs more reflection steps"):
        is_positive_root(kronecker, (50, 51), max_steps=49)
    assert not is_positive_root(kronecker, (50, 52), max_steps=26)
    with pytest.raises(SearchCapExceeded, match="enumeration budget of 25 exhausted"):
        is_positive_root(kronecker, (50, 52), max_steps=25)


# --- the integer engine against the box scan and the multiset DFS -------------


def random_case(rng):
    """A small loop-free quiver, a positive root v and a zeta with zeta.v = 0.

    zeta is generic, zero, split (also orthogonal to some 0 < w < v) or
    mixed, so condition (3) meets one, many and some decompositions.  A
    mixed zeta is integral, and zero at a vertex of the support of v,
    non-zero at another and random elsewhere: its quiver has 3-5
    vertices joined in a path, and v has at least three non-zero
    coordinates.
    """
    kind = rng.choice(("generic", "zero", "split", "mixed"))
    mixed = kind == "mixed"
    m = rng.randint(3, 5) if mixed else rng.randint(1, 4)
    names = [str(i) for i in range(m)]
    arrows = [
        (f"a{i}{j}{r}", names[i], names[j])
        for i, j in itertools.combinations(range(m), 2)
        for r in range(rng.choice((0, 1, 1, 2)) or int(mixed and j == i + 1))
    ]
    cartan = CartanData.from_quiver(make_quiver(names, arrows))
    while True:
        v = tuple(rng.randint(0, 3) for _ in range(m))
        if (math.prod(x + 1 for x in v) <= 120 and sum(map(bool, v)) >= 3 * mixed
                and is_positive_root(cartan, v)):
            break
    zeta = [G(0)] * m
    if mixed:
        # zeta_i = v_p r_i off a pivot p in the support of v, and
        # zeta_p = -sum r_i v_i, so that zeta . v = 0
        p, q, z = rng.sample([i for i, x in enumerate(v) if x], 3)
        r = [rng.choice((0, -2, -1, 1, 3)) for _ in range(m)]
        r[p], r[q], r[z] = 0, rng.choice((-2, -1, 1, 3)), 0
        zeta = [G(v[p] * x) for x in r]
        zeta[p] = G(-sum(x * y for x, y in zip(r, v)))
    elif kind != "zero":
        orth = [v]
        if kind == "split":
            orth.append(tuple(rng.randint(0, x) for x in v))
        zeta = [G(Fraction(rng.randint(-9, 9), rng.randint(1, 5)), rng.randint(-2, 2))
                for _ in range(m)]
        # solve zeta on len(orth) vertices so that zeta . u = 0 for each u in orth
        for pivots in itertools.permutations(range(m), len(orth)):
            det = [[u[i] for i in pivots] for u in orth]
            if len(orth) == 1 and det[0][0] or len(orth) == 2 and (
                    det[0][0] * det[1][1] - det[0][1] * det[1][0]):
                break
        else:
            pivots = ()
        if pivots:
            rest = [sum((zeta[i] * u[i] for i in range(m) if i not in pivots), G(0)) for u in orth]
            if len(pivots) == 1:
                zeta[pivots[0]] = -rest[0] / G(det[0][0])
            else:
                (a, b), (c, d) = det
                den = G(a * d - b * c)
                zeta[pivots[0]] = (-rest[0] * d + rest[1] * b) / den
                zeta[pivots[1]] = (-rest[1] * a + rest[0] * c) / den
        else:
            zeta = [G(0)] * m
    return cartan, v, dict(zip(names, zeta)), kind


def check_witness(cartan, v, zeta, verdict):
    """>= 2 zeta-orthogonal positive roots summing to v, with sum delta >= delta(v)."""
    parts = [tuple(w) for w in verdict.witness]
    assert len(parts) >= 2
    for w in parts:
        assert reflection_is_positive_root(cartan, w)
        assert sum((zeta[x] * c for x, c in zip(cartan.vertices, w)), G(0)) == G(0)
    assert tuple(map(sum, zip(*parts))) == v
    assert sum(cartan.delta(w) for w in parts) >= cartan.delta(v)


def pairings(cartan, w):
    """(w, e_i) at every vertex i, by the scalar pairing."""
    m = cartan.size
    return [cartan.pairing(w, [int(i == j) for j in range(m)]) for i in range(m)]


def fundamental_set(cartan, v):
    """The box points 0 < w <= v with connected support and (w, e_i) <= 0
    at every vertex."""
    return [w for w in itertools.product(*(range(x + 1) for x in v))
            if any(w) and support_connected(cartan, w) and max(pairings(cartan, w)) <= 0]


def test_integer_engine_matches_oracles_on_random_corpus():
    rng = random.Random(20261017)
    seen = collections.Counter()
    outcomes, closed = collections.Counter(), collections.Counter()
    for _ in range(320):
        cartan, v, zeta, kind = random_case(rng)
        seen[kind] += 1
        cands = summand_candidates(cartan, v, zeta)
        assert cands == brute_candidates(cartan, v, zeta)
        dv = cartan.delta(v)
        assert _violating_decomposition(cartan, v, dv, cands, 200_000) == (
            mask_violating_decomposition(cartan, v, dv, cands))
        new = cb_solvable(cartan, v, zeta)
        key = (new.nonempty, new.failed_condition, new.dim)
        assert not new.undecided
        if all(zeta[x] == G(0) for x, y in zip(cartan.vertices, v) if y):
            # the oracle keeps the simple roots and the roots with no
            # positive pairing; Kac: these are the fundamental set,
            # imaginary roots only.  The closed form runs no DP
            kept = indispensable_candidates(cartan, v, zeta)
            simple = [w for w in cands if sum(w) == 1]
            assert kept == [w for w in cands if sum(w) == 1 or max(pairings(cartan, w)) <= 0]
            assert kept == sorted(simple + fundamental_set(cartan, v))
            assert (new.nodes, new.candidates) == (0, 0)
            oracle = indispensable_solvable(cartan, v, zeta)
            assert key == (oracle.nonempty, oracle.failed_condition, oracle.dim), (v, zeta)
            closed[key[:2]] += 1
        else:
            assert new.nodes >= 1 and new.candidates == len(cands)
        full = unfiltered_solvable(cartan, v, zeta)
        assert key == (full.nonempty, full.failed_condition, full.dim), (v, zeta)
        old = dfs_solvable(cartan, v, zeta)
        if not old.undecided:
            assert key == (old.nonempty, old.failed_condition, old.dim), (v, zeta)
            outcomes[key[:2]] += 1
        for verdict in (new, full):
            if verdict.failed_condition == 3:
                check_witness(cartan, v, zeta, verdict)
    assert min(seen[k] for k in ("generic", "zero", "split", "mixed")) >= 50, seen
    assert outcomes[True, None] >= 50 and outcomes[False, 3] >= 50
    assert sum(closed.values()) >= 50 and min(closed[True, None], closed[False, 3]) >= 20, closed


def test_the_fundamental_set_needs_connected_support():
    # two Kronecker pairs joined through c: w = (1, 1, 0, 1, 1) pairs
    # non-positively with every vertex, but its support is disconnected
    # and it is no root
    names = ["a", "b", "c", "d", "e"]
    arrows = [("x", "a", "b"), ("y", "a", "b"), ("z", "b", "c"), ("u", "c", "d"),
              ("s", "d", "e"), ("t", "d", "e")]
    cartan = CartanData.from_quiver(make_quiver(names, arrows))
    v, zeta = (1, 1, 1, 1, 1), {x: G(0) for x in names}
    assert not is_positive_root(cartan, (1, 1, 0, 1, 1))
    kept = indispensable_candidates(cartan, v, zeta)
    simple = [w for w in brute_candidates(cartan, v, zeta) if sum(w) == 1]
    assert kept == sorted(simple + fundamental_set(cartan, v))
    assert (1, 1, 0, 0, 0) in kept and (1, 1, 0, 1, 1) not in kept
    verdict = cb_solvable(cartan, v, zeta)
    assert verdict.failed_condition == 3
    check_witness(cartan, v, zeta, verdict)


LADDER = bench_ladder()
DP_RUNGS = [
    pytest.param(rung, seed, id=f"{rung.name}-{seed}")
    for workload in ("check-generic", "check-degenerate")
    for rung in LADDER.WORKLOADS[workload][1]
    for seed in (1, 2, 3)
] + [
    pytest.param(LADDER.Rung(name, "nilpotent", n, poles, 2, "nonempty"), 1,
                 id=f"{name}-off-ladder")
    for name, n, poles in (("n6x4k2", 6, 4), ("n8x3k2", 8, 3))
]


@pytest.mark.parametrize("rung, seed", DP_RUNGS)
def test_dp_matches_the_mask_dp_on_the_ladder(rung, seed):
    """Same witness and state count as the numpy-mask DP, on the check
    rungs and two larger nilpotent ones."""
    gq = build_global_quiver(instance_from_json(LADDER.problem(rung, seed), exact=True))
    cartan = CartanData.from_quiver(gq.quiver)
    v = cartan.vec(gq.dims)
    cands = summand_candidates(cartan, v, gq.zeta)
    dv = cartan.delta(v)
    new = _violating_decomposition(cartan, v, dv, cands, 200_000)
    assert new == mask_violating_decomposition(cartan, v, dv, cands)
    assert (new[0] is None) == (rung.verdict == "nonempty")


MIXED_RUNGS = [
    pytest.param(LADDER.Rung(name, "nilpotent", n, poles, 2, "nonempty"), seed, count,
                 id=f"{name}-mixed-{seed}")
    for name, n, poles, count in (("n4x6k2", 4, 6, 248), ("n6x4k2", 6, 4, 67),
                                  ("n6x6k2", 6, 6, 1029))
    for seed in (1, 2)
]


@pytest.mark.parametrize("rung, seed, count", MIXED_RUNGS)
def test_mixed_zeta_at_ladder_scale(rung, seed, count):
    """Nilpotent rungs with pole 0 and the residue blocks made generic
    (`mixed_zeta_problem`), the traffic the DP serves: its witness and
    state count are the mask DP's, and `cb_solvable`'s verdict is that of
    `unfiltered_solvable` and of the DFS on the same candidates where it
    decides."""
    gq = build_global_quiver(instance_from_json(mixed_zeta_problem(LADDER, rung, seed), exact=True))
    cartan = CartanData.from_quiver(gq.quiver)
    v = cartan.vec(gq.dims)
    cands = summand_candidates(cartan, v, gq.zeta)
    dv = cartan.delta(v)
    assert len(cands) == count
    dp = _violating_decomposition(cartan, v, dv, cands, 200_000)
    assert dp == mask_violating_decomposition(cartan, v, dv, cands)
    new = cb_solvable(cartan, v, gq.zeta)
    key = (new.nonempty, new.failed_condition, new.dim)
    assert (new.candidates, new.nodes) == (count, dp[1])
    full = unfiltered_solvable(cartan, v, gq.zeta)
    assert key == (full.nonempty, full.failed_condition, full.dim)
    old = dfs_solvable(cartan, v, gq.zeta, cands=cands)
    if not old.undecided:
        assert key == (old.nonempty, old.failed_condition, old.dim)


def test_the_dp_charges_each_states_parts_to_its_budget():
    """The budget counts the parts tried, summed over the states the DP
    evaluates: nilpotent 6x3 at seed 1 tries 8 426 parts."""
    rung = LADDER.Rung("n6x3k2", "nilpotent", 6, 3, 2, "nonempty")
    gq = build_global_quiver(instance_from_json(LADDER.problem(rung, 1), exact=True))
    cartan = CartanData.from_quiver(gq.quiver)
    v = cartan.vec(gq.dims)
    cands = summand_candidates(cartan, v, gq.zeta)
    dv = cartan.delta(v)
    assert _violating_decomposition(cartan, v, dv, cands, budget=8426) == (None, 533)
    with pytest.raises(SearchCapExceeded, match="the condition-3 DP needs more part checks"):
        _violating_decomposition(cartan, v, dv, cands, budget=8425)


def test_zeta_zero_charges_the_isotropic_box_before_walking_it():
    """Where zeta vanishes on the support of v, the closed form's work is
    the box of the legs, 4^5 = 1 024 points, charged before it is walked
    for each of the two ends; v is nonempty with delta 32."""
    cartan, v, zeta = star(5, 2)
    verdict = cb_solvable(cartan, v, zeta, max_nodes=2048)
    assert (verdict.nonempty, verdict.dim, verdict.candidates, verdict.nodes) == (True, 64, 0, 0)
    verdict = cb_solvable(cartan, v, zeta, max_nodes=2047)
    assert verdict.undecided and verdict.detail == (
        "enumeration budget of 2047 exhausted: the isotropic-root search's boxes reach 2048 points")
    verdict = cb_solvable(cartan, v, zeta, max_nodes=1023)
    assert verdict.undecided and verdict.detail.endswith("boxes reach 1024 points")


def test_the_dp_charges_the_oracles_kept_parts():
    """Nilpotent 6x3 at seed 1: no vertex pairs to -1 with v, so the closed
    form walks no box and decides at a budget of 1.  The oracle's DP on
    its 43 kept candidates, the simple roots and the fundamental set in
    the box of v, needs 259 part checks over 88 states."""
    rung = LADDER.Rung("n6x3k2", "nilpotent", 6, 3, 2, "nonempty")
    gq = build_global_quiver(instance_from_json(LADDER.problem(rung, 1), exact=True))
    cartan = CartanData.from_quiver(gq.quiver)
    v = cartan.vec(gq.dims)
    verdict = cb_solvable(cartan, v, gq.zeta, max_nodes=1)
    assert (verdict.nonempty, verdict.dim, verdict.candidates, verdict.nodes) == (True, 20, 0, 0)
    oracle = indispensable_solvable(cartan, v, gq.zeta, max_nodes=1024)
    assert (oracle.nonempty, oracle.dim, oracle.candidates, oracle.nodes) == (True, 20, 43, 88)
    assert indispensable_solvable(cartan, v, gq.zeta, max_nodes=1023).detail == (
        "enumeration budget of 1023 exhausted")
    kept = indispensable_candidates(cartan, v, gq.zeta)
    dv = cartan.delta(v)
    assert _violating_decomposition(cartan, v, dv, kept, budget=259) == (None, 88)
    with pytest.raises(SearchCapExceeded, match="the condition-3 DP needs more part checks"):
        _violating_decomposition(cartan, v, dv, kept, budget=258)


def test_dp_matches_the_mask_dp_on_a_box_past_int64():
    """A 70-vertex path with v all ones: its box holds 2^70 points, more
    than an int64 rank can index, and the DP still matches the oracle."""
    names = [f"x{i}" for i in range(70)]
    cartan = CartanData.from_quiver(
        make_quiver(names, [(f"a{i}", a, b) for i, (a, b) in enumerate(zip(names, names[1:]))]))
    v = (1,) * 70
    # every interval of one or two vertices, and v itself; all real roots
    cands = sorted({tuple(int(i <= k < i + n) for k in range(70))
                    for n in (1, 2) for i in range(71 - n)} | {v}, reverse=True)
    dv = cartan.delta(v)
    witness, states = _violating_decomposition(cartan, v, dv, cands, 200_000)
    assert (witness, states) == mask_violating_decomposition(cartan, v, dv, cands)
    assert len(witness) >= 2 and tuple(map(sum, zip(*witness))) == v


def test_dp_decides_where_the_dfs_runs_out():
    # the null root of E6~ with zeta 1 and -1 at the tips of two arms and 0
    # elsewhere: nonempty, moduli dimension 2
    names = ["c", "a1", "a2", "b1", "b2", "d1", "d2"]
    arrows = [("x", "a1", "c"), ("y", "a2", "a1"), ("z", "b1", "c"),
              ("u", "b2", "b1"), ("s", "d1", "c"), ("t", "d2", "d1")]
    c = CartanData.from_quiver(make_quiver(names, arrows))
    v, zeta = (3, 2, 1, 2, 1, 2, 1), {x: G(0) for x in names}
    mixed = dict(zeta, a2=G(1), b2=G(-1))
    assert dfs_solvable(c, v, mixed, max_nodes=1000).undecided
    verdict = cb_solvable(c, v, mixed, max_nodes=1000)
    assert verdict.nonempty and verdict.dim == 2 and 1 <= verdict.nodes <= 1000
    # at zeta = 0 the closed form reads v as an indivisible isotropic root
    verdict = cb_solvable(c, v, zeta, max_nodes=1)
    assert verdict.nonempty and verdict.dim == 2 and verdict.nodes == 0
    assert verdict.detail.endswith(": v is an indivisible isotropic root")


# --- the closed form at zeta = 0 against the oracle DP -----------------------

# pieces (vertex count, edges), each with v all ones on it: first the
# isotropic ones, the Kronecker quiver, A2~ and A3~, whose null root that
# is; then two with q = -1, three arrows on a pair and a triangle with
# one edge doubled
PIECES = ((2, ((0, 1), (0, 1))), (3, ((0, 1), (1, 2), (2, 0))), (4, ((0, 1), (1, 2), (2, 3), (3, 0))),
          (2, ((0, 1), (0, 1), (0, 1))), (3, ((0, 1), (0, 1), (1, 2), (2, 0))))


def cartan_of(m: int, edges) -> CartanData:
    names = [str(i) for i in range(m)]
    return CartanData.from_quiver(
        make_quiver(names, [(f"a{k}", names[i], names[j]) for k, (i, j) in enumerate(edges)]))


def joined_pieces(pieces, rng=None, centre=True):
    """A centre, vertex 0, with the `PIECES` of the given indices, each
    joined to it by one arrow (to the piece's first vertex, or a random
    one), and the vector 1 at the centre and on every piece.  Without the
    centre, each piece is joined by one arrow to a vertex of the one
    before it instead."""
    m, edges, last = int(centre), [], None
    for k in pieces:
        size, inner = PIECES[k]
        edges += [(m + a, m + b) for a, b in inner]
        end = m + (rng.randrange(size) if rng else 0)
        if centre or last is not None:
            edges.append((0 if centre else last, end))
        m, last = m + size, m + (rng.randrange(size) if rng else size - 1)
    return cartan_of(m, edges), [1] * m


def zero_zeta_case(rng):
    """A quiver and a positive root v with prod(v_i + 1) <= 20 000, for
    zeta = 0.  Half the quivers have 1-6 vertices and 0-3 arrows per pair,
    with v <= 5; the other half are 1-3 `PIECES` joined to a centre or in
    a chain, with v 1 or, a third of the time, 2 on the centre and on each
    piece, some entries moved by 1."""
    planted = rng.random() < 0.5
    if planted:
        pieces = [rng.randrange(len(PIECES)) for _ in range(rng.randint(1, 3))]
        centre = rng.random() < 0.5
        cartan, _ = joined_pieces(pieces, rng, centre)
        base = [rng.choice((1, 1, 2))] * centre
        for k in pieces:
            base += [rng.choice((1, 1, 2))] * PIECES[k][0]
    else:
        m = rng.randint(1, 6)
        cartan = cartan_of(m, [(i, j) for i, j in itertools.combinations(range(m), 2)
                               for _ in range(rng.randint(0, 3))])
    while True:
        if planted:
            v = tuple(max(0, x + rng.randint(-1, 1)) if rng.random() < 0.3 else x for x in base)
        else:
            v = tuple(rng.randint(0, 5) for _ in range(cartan.size))
        if math.prod(x + 1 for x in v) <= 20_000 and is_positive_root(cartan, v):
            return cartan, v, dict.fromkeys(cartan.vertices, G(0))


def test_closed_form_matches_the_dp_oracle_at_zeta_zero():
    """Verdict, failed condition and dimension equal the DP's on the
    simple roots and the fundamental set, and every witness violates
    condition (3), on a seeded corpus of plain and planted quivers."""
    rng = random.Random(20261019)
    branches = collections.Counter()
    for _ in range(800):
        cartan, v, zeta = zero_zeta_case(rng)
        oracle = indispensable_solvable(cartan, v, zeta)
        if oracle.undecided:
            continue
        verdict = cb_solvable(cartan, v, zeta)
        assert (verdict.nonempty, verdict.failed_condition, verdict.dim) == (
            oracle.nonempty, oracle.failed_condition, oracle.dim), (cartan.adjacency, v)
        assert (verdict.candidates, verdict.nodes) == (0, 0)
        if verdict.failed_condition == 3:
            check_witness(cartan, v, zeta, verdict)
            assert len(verdict.witness) == 2
        # the branch: the detail past the condition-3 sentence, less numbers
        branches[re.sub(r"[0-9]+", "#", verdict.detail.split(": ", 1)[1])] += 1
    assert len(branches) == 7 and min(branches.values()) >= 3, branches
    assert branches["v - gamma is a positive root for an isotropic root gamma with "
                    "(v, gamma) = -#"] >= 20, branches
    assert sum(n for b, n in branches.items() if b.startswith("the arrow between vertices")) >= 5, branches


@pytest.mark.parametrize("piece", range(3))
@pytest.mark.parametrize("m", range(1, 6))
def test_multiples_of_an_isotropic_root(piece, m):
    """m gamma, gamma a null root: nonempty of dim 2 for m = 1, and
    otherwise empty with the witness [(m - 1) gamma, gamma]."""
    size, edges = PIECES[piece]
    cartan, gamma = cartan_of(size, edges), [1] * size
    v = tuple(m * x for x in gamma)
    verdict = cb_solvable(cartan, v, dict.fromkeys(cartan.vertices, G(0)))
    if m == 1:
        assert verdict.nonempty and verdict.dim == 2
    else:
        assert verdict.failed_condition == 3
        assert verdict.witness == [[(m - 1) * x for x in gamma], gamma]
        assert verdict.detail.endswith(f": v is {m} times an isotropic root")
    oracle = indispensable_solvable(cartan, v, dict.fromkeys(cartan.vertices, G(0)))
    assert (oracle.nonempty, oracle.dim) == (verdict.nonempty, verdict.dim)


@pytest.mark.parametrize("pieces", [(0,), (1,), (2,), (0, 0), (0, 1), (0, 0, 0), (0, 0, 1)])
@pytest.mark.parametrize("centre", [1, 2])
def test_isotropic_pieces_joined_to_one_vertex(pieces, centre):
    """Pieces joined to a centre by one arrow each, v = centre e_0 plus m
    times every piece's null root gamma.  Where v lies in the fundamental
    set, each gamma has (v, gamma) = -centre: with 1 at the centre, v -
    gamma is a root and v is empty; with 2, no vertex pairs to -1 with v
    and v is nonempty.  The DP oracle agrees on every v."""
    cartan, ones = joined_pieces(pieces)
    zeta = dict.fromkeys(cartan.vertices, G(0))
    for m in (1, 2):
        v = (centre,) + (m,) * (len(ones) - 1)
        verdict = cb_solvable(cartan, v, zeta)
        oracle = indispensable_solvable(cartan, v, zeta)
        assert (verdict.nonempty, verdict.failed_condition, verdict.dim) == (
            oracle.nonempty, oracle.failed_condition, oracle.dim)
        if verdict.failed_condition == 1 or max(cartan.pairings(v)) > 0:
            continue
        if centre == 1:
            assert verdict.failed_condition == 3 and verdict.detail.endswith(
                "for an isotropic root gamma with (v, gamma) = -1")
            check_witness(cartan, v, zeta, verdict)
            gamma = verdict.witness[1]
            assert cartan.tits_form(gamma) == 0 and cartan.pairing(v, gamma) == -1
        else:
            assert verdict.nonempty and verdict.dim == 2 * cartan.delta(v) >= 4


@pytest.mark.parametrize("centre", [True, False])
@pytest.mark.parametrize("pieces", [(3,), (4,), (3, 3), (3, 4), (4, 4), (0, 3), (1, 4), (3, 3, 3),
                                    (0, 3, 4), (4, 2, 3)])
def test_pieces_joined_by_one_arrow(pieces, centre):
    """`PIECES` joined by one arrow each to a centre or in a chain, with v
    all ones, or 2 on one piece.  With v all ones and at least two pieces
    v lies in the fundamental set, and each joining arrow has v = 1 at
    both ends with a positive root on either side, so v is empty; the
    DP oracle agrees on every v."""
    cartan, ones = joined_pieces(pieces, centre=centre)
    zeta = dict.fromkeys(cartan.vertices, G(0))
    vs, start = [tuple(ones)], int(centre)
    for k in pieces:
        size = PIECES[k][0]
        vs.append(tuple(2 if start <= i < start + size else 1 for i in range(len(ones))))
        start += size
    for v in vs:
        verdict = cb_solvable(cartan, v, zeta)
        oracle = indispensable_solvable(cartan, v, zeta)
        assert (verdict.nonempty, verdict.failed_condition, verdict.dim) == (
            oracle.nonempty, oracle.failed_condition, oracle.dim), v
        if verdict.failed_condition == 3:
            check_witness(cartan, v, zeta, verdict)
    if len(pieces) >= 2:
        assert max(cartan.pairings(vs[0])) <= 0 and cartan.delta(vs[0]) >= 2
        assert cb_solvable(cartan, vs[0], zeta).failed_condition == 3


def test_two_imaginary_pieces_joined_by_one_arrow():
    """Three arrows a - b, three arrows c - d and one arrow b - c, v all
    ones: v lies in the fundamental set with delta(v) = 4, and (1, 1, 0, 0)
    and (0, 0, 1, 1) are roots of delta 2 each, so v is empty, though no
    isotropic root lies below v."""
    cartan = cartan_of(4, [(0, 1)] * 3 + [(2, 3)] * 3 + [(1, 2)])
    v, zeta = (1, 1, 1, 1), dict.fromkeys(cartan.vertices, G(0))
    assert cartan.pairings(v) == [-1, -2, -2, -1] and cartan.delta(v) == 4
    verdict = cb_solvable(cartan, v, zeta)
    assert verdict.witness == [[1, 1, 0, 0], [0, 0, 1, 1]]
    assert verdict.detail.endswith(": the arrow between vertices 1 and 2, with v = 1 at both "
                                   "ends, is the only one joining two positive roots")
    oracle = indispensable_solvable(cartan, v, zeta)
    assert oracle.failed_condition == 3 and oracle.witness == verdict.witness


def test_an_isotropic_piece_can_leave_an_imaginary_root():
    """Edges 0-2 twice, 0-3, 1-2 twice and 3-4 twice, v = (1, 2, 3, 4, 4):
    v is empty with the DP's witness, and v - gamma is imaginary, not the
    real root a bound gamma <= v / delta(v) would ask for."""
    cartan = cartan_of(5, [(0, 2), (0, 2), (0, 3), (1, 2), (1, 2), (3, 4), (3, 4)])
    v, zeta = (1, 2, 3, 4, 4), dict.fromkeys(cartan.vertices, G(0))
    verdict = cb_solvable(cartan, v, zeta)
    assert verdict.witness == [[1, 2, 3, 3, 3], [0, 0, 0, 1, 1]]
    assert cartan.delta(v) >= 2 and cartan.tits_form(verdict.witness[0]) < 0
    assert indispensable_solvable(cartan, v, zeta).witness == verdict.witness


NILPOTENT = [(f"n{n}x{poles}k{k}", n, poles, k) for n, poles, k in (
    (4, 2, 2), (4, 3, 2), (4, 4, 2), (6, 2, 2), (6, 3, 2), (8, 2, 2), (4, 2, 3),
    (8, 5, 2), (10, 4, 2), (10, 5, 2), (10, 5, 3), (12, 6, 2), (16, 8, 2))]


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("name, n, poles, k", NILPOTENT, ids=[r[0] for r in NILPOTENT])
def test_nilpotent_rungs_decide_in_closed_form(name, n, poles, k, seed):
    """Every nilpotent rung is decided at the default budget, with no DP:
    the two-pole ones are isotropic multiples, the rest nonempty of
    dimension 2 delta; the DP oracle agrees where its box fits."""
    rung = LADDER.Rung(name, "nilpotent", n, poles, k, "nonempty")
    gq = build_global_quiver(instance_from_json(LADDER.problem(rung, seed), exact=True))
    cartan = CartanData.from_quiver(gq.quiver)
    v = cartan.vec(gq.dims)
    verdict = cb_solvable(cartan, v, gq.zeta_int)
    assert (verdict.candidates, verdict.nodes) == (0, 0)
    if poles == 2 and k == 2:
        assert verdict.failed_condition == 3 and cartan.delta(v) == 1
    else:
        assert verdict.nonempty and verdict.dim == 2 * cartan.delta(v)
    if math.prod(x + 1 for x in v) <= 5_000:
        oracle = indispensable_solvable(cartan, v, gq.zeta)
        assert (oracle.nonempty, oracle.failed_condition, oracle.dim, oracle.witness) == (
            verdict.nonempty, verdict.failed_condition, verdict.dim, verdict.witness)


FRONTIER = [("n8x5k2", 8, 5, 200_000, 98), ("n10x4k2", 10, 4, 200_000, 102),
            ("n10x5k2", 10, 5, 2_000_000, 152)]


@pytest.mark.parametrize("name, n, poles, max_nodes, dim", FRONTIER, ids=[r[0] for r in FRONTIER])
def test_frontier_rungs_agree_with_the_oracle(name, n, poles, max_nodes, dim):
    """Nilpotent rungs past the ladder whose box the oracle's DP still
    walks, at seed 5: `decide_ds` and the oracle give the same verdict and
    dimension.  n10x5k2 needs a budget of 2 000 000 for the oracle's box."""
    rung = LADDER.Rung(name, "nilpotent", n, poles, 2, "nonempty")
    ds = decide_ds(instance_from_json(LADDER.problem(rung, 5), exact=True), max_nodes=max_nodes)
    cartan = CartanData.from_quiver(ds.gq.quiver)
    oracle = indispensable_solvable(cartan, cartan.vec(ds.gq.dims), ds.gq.zeta,
                                    max_nodes=max_nodes)
    assert (ds.verdict.nonempty, ds.verdict.dim) == (oracle.nonempty, oracle.dim) == (True, dim)


# --- metamorphic: the verdict is a property of the local data ----------------


def random_problem(rng):
    """A small problem file with generic, split or nilpotent residues."""
    n, k, poles = rng.randint(2, 4), rng.choice((2, 3)), rng.randint(1, 3)
    mults = [(n + 1) // 2, n // 2]
    family = rng.choice(("generic", "split", "nilpotent"))

    def value():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    def orbit(size):
        if family == "nilpotent":
            return [[Fraction(0), [2] * (size // 2) + [1] * (size % 2)]]
        if family == "split" and size >= 2:
            return [[value(), [1] * (size // 2)], [value(), [1] * (size - size // 2)]]
        return [[value(), [1]] for _ in range(size)]

    orbits = [orbit(m) for m in mults] + [orbit(n) for _ in range(poles)]
    if family != "nilpotent":
        last = orbits[-1][-1]
        rest = sum(x * sum(b) for o in orbits for x, b in o) - last[0] * sum(last[1])
        last[0] = -rest / sum(last[1]) + rng.choice((0, 0, 0, Fraction(1, 2)))
    coeffs = [["0"] * (k - 2) + [top] for top in ("3", "1")]
    return {
        "rank": n,
        "infinity": {
            "irregular_type": {"k": k, "blocks": [
                {"coeffs": c, "mult": m} for c, m in zip(coeffs, mults)]},
            "residue_blocks": [{"eigenvalues": o} for o in orbits[:2]],
        },
        "finite_poles": [
            {"position": str(j), "orbit": {"eigenvalues": o}} for j, o in enumerate(orbits[2:])
        ],
    }


def _format(doc):
    """Exact strings for the Fraction eigenvalues of random_problem."""
    doc = copy.deepcopy(doc)
    for o in [r["eigenvalues"] for r in doc["infinity"]["residue_blocks"]] + [
            p["orbit"]["eigenvalues"] for p in doc["finite_poles"]]:
        o[:] = [{"value": str(x), "blocks": list(b)} for x, b in o]
    return doc


def _outcome(doc):
    try:
        inst = instance_from_json(_format(doc), exact=True)
    except ValueError:
        return None  # two eigenvalues of one orbit collided
    v = decide_ds(inst).verdict
    return v.nonempty, v.failed_condition, v.dim, v.delta


def _permute_poles(doc, rng):
    rng.shuffle(doc["finite_poles"])


def _move_poles(doc, rng):
    for p, x in zip(doc["finite_poles"], rng.sample(range(-50, 50), len(doc["finite_poles"]))):
        p["position"] = f"{x}/7{rng.randint(-3, 3):+d}i"


def _reorder_blocks(doc, rng):
    inf = doc["infinity"]
    order = [1, 0]
    inf["irregular_type"]["blocks"] = [inf["irregular_type"]["blocks"][i] for i in order]
    inf["residue_blocks"] = [inf["residue_blocks"][i] for i in order]
    for o in [r["eigenvalues"] for r in inf["residue_blocks"]] + [
            p["orbit"]["eigenvalues"] for p in doc["finite_poles"]]:
        rng.shuffle(o)
        for entry in o:
            entry[1].reverse()


def _rescale(doc, rng):
    c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    for o in [r["eigenvalues"] for r in doc["infinity"]["residue_blocks"]] + [
            p["orbit"]["eigenvalues"] for p in doc["finite_poles"]]:
        for entry in o:
            entry[0] *= c


@pytest.mark.parametrize("transform", [_permute_poles, _move_poles, _reorder_blocks, _rescale])
def test_check_verdict_is_invariant(transform):
    rng = random.Random(transform.__name__)
    outcomes = set()
    for _ in range(40):
        doc = random_problem(rng)
        base = _outcome(doc)
        if base is None:
            continue
        transform(doc, rng)
        assert _outcome(doc) == base
        outcomes.add(base[:2])
    assert {(True, None), (False, 2), (False, 3)} <= outcomes
