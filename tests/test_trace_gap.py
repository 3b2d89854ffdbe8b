"""Soundness and reach of the trace-gap certificate (quiver.trace_gap).

A subrepresentation S of dimension vector w forces |zeta . w| <= B, so a
point with a planted graded subrepresentation must never be certified,
whatever zeta is: a random one, or one fitted to the point's own vertex
traces, so that mu is as close to zeta as the point allows.  The planted
points are exact: maps are block triangular in coordinates that are then
permuted at each vertex, which rounds nothing.  Scales run from the
subnormal range up, so that the underflow and rounding terms of B are
exercised.  On realized witnesses of feasible files the certificate
holds, and Norton's test agrees; near a wall (zeta = 0, or a condition-3
zeta with zeta . w = 0) it declines and Norton decides.
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsirr import quiver
from dsirr.assembly import (
    _lm_minimize,
    _unpack,
    build_global_quiver,
    instance_from_json,
    realize_numeric,
)
from dsirr.quiver import DoubledRep, make_quiver, moment_map, rep_stability, trace_gap
from dsirr.scalars import GaussianRational as G
from oracles import exponent_trace_fold
from test_assembly import star_instance
from test_stability import corpus

DATA = Path(__file__).parent / "data"
FEASIBLE = ["example_iii.json", "ladder_g4x1k2_seed206.json", "ladder_s4x2k2_seed16.json",
            "ladder_s4x2k2_seed41.json", "star_rigid.json"]


@st.composite
def planted(draw):
    """A float rep with an exact proper subrepresentation, and a zeta."""
    n = draw(st.integers(1, 4))
    verts = [str(i) for i in range(n)]
    ends = draw(st.lists(st.tuples(st.sampled_from(verts), st.sampled_from(verts)),
                         min_size=1, max_size=5))
    arrows = [(f"a{i}", s, t) for i, (s, t) in enumerate(ends)]
    dims = {x: draw(st.integers(1, 3)) for x in verts}
    if sum(dims.values()) == 1:
        dims["0"] = 2
    sub = {x: draw(st.integers(0, d)) for x, d in dims.items()}
    if not any(sub.values()):
        sub["0"] = 1
    elif sub == dims:
        sub["0"] -= 1
    scale = 10.0 ** draw(st.integers(-160, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = {x: rng.permutation(d) for x, d in dims.items()}

    def block_map(rows, cols, s_rows, s_cols):
        # maps the first s_cols coordinates into the first s_rows ones
        m = scale * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
        m[s_rows:, :s_cols] = 0
        return m

    fwd, rev = {}, {}
    for a, s, t in arrows:
        f = block_map(dims[t], dims[s], sub[t], sub[s])
        r = block_map(dims[s], dims[t], sub[s], sub[t])
        fwd[a], rev[a] = f[perm[t]][:, perm[s]], r[perm[s]][:, perm[t]]
    rep = DoubledRep(make_quiver(verts, arrows), dims, fwd, rev)
    if draw(st.booleans()):
        mu = moment_map(rep)
        zeta = {x: complex(np.trace(mu[x])) / dims[x] for x in verts}
    else:
        size = scale * scale * 10.0 ** draw(st.integers(-3, 3))
        zeta = {x: size * complex(*rng.standard_normal(2)) for x in verts}
    return rep, zeta


def test_the_split_search_matches_a_scan_of_the_box():
    # Gaussian-integer zeta: every sum is exact, and thresholds at half
    # integers are never met with equality
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        dims = rng.integers(1, 4, size=n)
        zeta = rng.integers(-4, 5, size=n) + 1j * rng.integers(-4, 5, size=n) * rng.integers(0, 2)
        threshold = float(rng.integers(0, 3)) + 0.5
        box = np.array(list(itertools.product(*(range(d + 1) for d in dims))))[1:-1]
        want = bool(np.any(np.abs(box @ zeta) <= threshold))
        for cut in range(n + 1):
            assert quiver._near_subvector(zeta, dims, cut, threshold) is want, (zeta, dims, cut)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(planted())
def test_a_planted_subrepresentation_is_never_certified(case):
    rep, zeta = case
    assert trace_gap(rep, zeta) is None
    assert rep_stability(rep, zeta).measure == "invariant_dim"


def _realize(name, seed):
    inst = instance_from_json(json.loads((DATA / name).read_text()), exact=True)
    gq = build_global_quiver(inst.as_float())
    assert gq.zeta_v == build_global_quiver(inst).zeta_v == -exponent_trace_fold(inst) == 0
    return gq, realize_numeric(gq, seed=seed)


@pytest.mark.parametrize("name", FEASIBLE)
def test_realized_witnesses_are_certified_and_norton_agrees(name):
    for seed in (1, 2, 3):
        gq, res = _realize(name, seed)
        assert res.success, (name, seed)
        assert res.stability.measure == "trace_gap", (name, seed)
        assert res.stability == rep_stability(res.rep, gq.zeta)
        norton = rep_stability(res.rep)
        assert norton.stable and norton.dim == norton.total, (name, seed, norton.detail)


def test_a_condition_3_point_falls_back_to_norton():
    # zeta . w = 0 for a proper w: every point is reducible
    gq = build_global_quiver(star_instance(G(1), G(2), G(-1), G(-2)).as_float())
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(gq.moment_plan.cols) + 1j * rng.standard_normal(gq.moment_plan.cols)
    x, cost, *_ = _lm_minimize(gq, x0)
    assert cost ** 0.5 <= 1e-8 * np.linalg.norm(x) ** 2
    rep = _unpack(gq, x)
    assert trace_gap(rep, gq.zeta) is None
    certificate = rep_stability(rep, gq.zeta)
    assert certificate.measure == "invariant_dim" and not certificate.stable
    assert certificate == rep_stability(rep)


def test_zero_zeta_falls_back_to_norton():
    for name, rep in corpus("random"):
        zero = dict.fromkeys(rep.quiver.vertices, 0j)
        assert trace_gap(rep, zero) is None, name
        certificate = rep_stability(rep, zero)
        assert certificate.measure == "invariant_dim", name
        assert certificate == rep_stability(rep)


def test_large_boxes_and_exact_reps_fall_back(monkeypatch):
    gq, res = _realize("star_rigid.json", 1)
    assert res.stability.measure == "trace_gap"
    monkeypatch.setattr(quiver, "TRACE_GAP_HALF_BOX", 1)
    assert trace_gap(res.rep, gq.zeta) is None
    assert rep_stability(res.rep, gq.zeta).measure == "invariant_dim"
    exact = DoubledRep.zero(gq.quiver, gq.dims, exact=True)
    assert rep_stability(exact, gq.zeta).measure == "algebra_dim"
