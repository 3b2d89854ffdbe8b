import collections
import copy
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dsirr.assembly import build_global_quiver, decide_ds, instance_from_json
from dsirr.quiver import delta, make_quiver
from dsirr.roots import (
    CartanData,
    SearchCapExceeded,
    _violating_decomposition,
    cb_solvable,
    is_positive_root,
    positive_root_mask,
    summand_candidates,
)
from dsirr.scalars import GaussianRational as G
from oracles import (
    bench_ladder,
    brute_candidates,
    dfs_solvable,
    mask_violating_decomposition,
    reflection_end,
    reflection_is_positive_root,
    support_connected,
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
    assert not c.connected and not is_positive_root(c, (1, 1, 1, 1))
    batch = np.array([(1, 1, 1, 1), (1, 0, 0, 0), (1, 1, 0, 0), (2, 2, 1, 1)])
    assert positive_root_mask(c, batch).tolist() == [False, True, True, False]


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
    d = double()
    v = cb_solvable(d, (6, 6), {"1": G(0), "2": G(0)}, max_nodes=5)
    assert v.undecided


@pytest.mark.parametrize("max_nodes", [0, -5])
def test_cb_rejects_a_budget_below_one(max_nodes):
    with pytest.raises(ValueError, match="at least 1"):
        cb_solvable(a2(), (1, 1), {"1": G(0), "2": G(0)}, max_nodes=max_nodes)


def test_budget_is_checked_before_allocation():
    # (10^6, 10^6) is an imaginary root of the doubled arrow and zeta = 0, so
    # the criterion reaches the enumeration, whose half boxes exceed the cap
    tracemalloc.start()
    try:
        v = cb_solvable(double(), (10**6, 10**6), {"1": G(0), "2": G(0)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.undecided and v.nodes == 0
    assert v.detail.startswith("enumeration budget of 200000 exhausted")
    assert peak < 100_000
    # (1000, 1000): both half boxes (1001 points each) fit the cap, but at
    # zeta = 0 their one zeta sum pairs every head with every tail, a block
    # of 1001^2 rows (16 MB) that must be refused before it is built
    tracemalloc.start()
    try:
        v = cb_solvable(double(), (1000, 1000), {"1": G(0), "2": G(0)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.undecided and v.nodes == 0
    assert v.detail == "enumeration budget of 200000 exhausted"
    assert peak < 1_000_000
    single = CartanData.from_quiver(make_quiver(["1"], []))
    with pytest.raises(SearchCapExceeded, match="enumeration budget of 2000000"):
        summand_candidates(single, (10**7,), {"1": G(0)})


# --- the batched reflection test against the scalar loop ----------------------


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


def test_positive_root_mask_matches_the_reflection_loop():
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
        mask = positive_root_mask(cartan, np.array(box, dtype=np.int64))
        assert mask.tolist() == [reflection_is_positive_root(cartan, w) for w in box]
        assert [is_positive_root(cartan, w) for w in box[:5]] == mask[:5].tolist()
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
    batch = np.array([(2 * k, k, k, k, k), (0, 0, 0, 0, 0)], dtype=object)
    assert positive_root_mask(d4, batch).tolist() == [True, False]


# --- the integer engine against the box scan and the multiset DFS -------------


def random_case(rng):
    """A small loop-free quiver, a positive root v and a zeta with zeta.v = 0.

    zeta is generic, zero, or split (also orthogonal to some 0 < w < v),
    so condition (3) meets one, many and some decompositions.
    """
    m = rng.randint(1, 4)
    names = [str(i) for i in range(m)]
    arrows = [
        (f"a{i}{j}{r}", names[i], names[j])
        for i, j in itertools.combinations(range(m), 2)
        for r in range(rng.choice((0, 1, 1, 2)))
    ]
    cartan = CartanData.from_quiver(make_quiver(names, arrows))
    while True:
        v = tuple(rng.randint(0, 3) for _ in range(m))
        if math.prod(x + 1 for x in v) <= 120 and is_positive_root(cartan, v):
            break
    kind = rng.choice(("generic", "zero", "split"))
    zeta = [G(0)] * m
    if kind != "zero":
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


def test_integer_engine_matches_oracles_on_random_corpus():
    rng = random.Random(20261017)
    seen = {"generic": 0, "zero": 0, "split": 0}
    outcomes = collections.Counter()
    for _ in range(240):
        cartan, v, zeta, kind = random_case(rng)
        seen[kind] += 1
        cands = summand_candidates(cartan, v, zeta)
        assert cands == brute_candidates(cartan, v, zeta)
        dv = cartan.delta(v)
        assert _violating_decomposition(cartan, v, dv, cands) == mask_violating_decomposition(
            cartan, v, dv, cands)
        new, old = cb_solvable(cartan, v, zeta), dfs_solvable(cartan, v, zeta)
        assert not new.undecided and new.nodes >= 1 and new.candidates >= 1
        if not old.undecided:
            key = (new.nonempty, new.failed_condition, new.dim)
            assert key == (old.nonempty, old.failed_condition, old.dim), (v, zeta)
            outcomes[key[:2]] += 1
        if new.failed_condition == 3:
            check_witness(cartan, v, zeta, new)
    assert min(seen.values()) >= 50
    assert outcomes[True, None] >= 50 and outcomes[False, 3] >= 50


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
def test_bitset_dp_matches_the_mask_dp_on_the_ladder(rung, seed):
    """Same witness and state count as the numpy-mask DP, on the check
    rungs and two larger nilpotent ones."""
    gq = build_global_quiver(instance_from_json(LADDER.problem(rung, seed), exact=True))
    cartan = CartanData.from_quiver(gq.quiver)
    v = cartan.vec(gq.dims)
    cands = summand_candidates(cartan, v, gq.zeta)
    dv = cartan.delta(v)
    new = _violating_decomposition(cartan, v, dv, cands)
    assert new == mask_violating_decomposition(cartan, v, dv, cands)
    assert (new[0] is None) == (rung.verdict == "nonempty")


def test_dp_decides_where_the_dfs_runs_out():
    # the null root of E6~ at zeta = 0: nonempty, moduli dimension 2
    names = ["c", "a1", "a2", "b1", "b2", "d1", "d2"]
    arrows = [("x", "a1", "c"), ("y", "a2", "a1"), ("z", "b1", "c"),
              ("u", "b2", "b1"), ("s", "d1", "c"), ("t", "d2", "d1")]
    c = CartanData.from_quiver(make_quiver(names, arrows))
    v, zeta = (3, 2, 1, 2, 1, 2, 1), {x: G(0) for x in names}
    assert dfs_solvable(c, v, zeta, max_nodes=5000).undecided
    verdict = cb_solvable(c, v, zeta, max_nodes=5000)
    assert verdict.nonempty and verdict.dim == 2 and 1 <= verdict.nodes <= 5000


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
