import json
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from conftest import rand_complex
from dsirr import linalg
from dsirr.assembly import (
    ConnectionData,
    FinitePole,
    ProblemInstance,
    build_global_quiver,
    connection_to_rep,
    decide_ds,
    exponent_blocks,
    instance_from_json,
    instance_to_json,
    is_stable_connection,
    kernel_dimension_check,
    moment_jacobian,
    moment_residual,
    realize_numeric,
    rep_from_json,
    rep_to_connection,
    rep_to_json,
    verdict_to_json,
    verify_instance,
)
from dsirr.irregular import make_irregular_type, rep_to_qp
from dsirr.orbits import make_orbit_spec
from dsirr.quiver import DoubledRep, is_stable
from dsirr.reduction import normalize
from dsirr.roots import CartanData, cb_solvable
from dsirr.scalars import GaussianRational as G
from oracles import bench_ladder, core_bracket_by_arrows, exponent_trace_fold, zeta_dot_v_fold

ROOT = Path(__file__).resolve().parent.parent


def g(a, b=0):
    if isinstance(a, tuple):
        return G(F(*a), F(*b) if isinstance(b, tuple) else b)
    return G(F(a), F(b) if not isinstance(b, tuple) else F(*b))


def scalar_orbit(value):
    return make_orbit_spec(1, [(value, [1])])


def star_instance(lam1, lam2, mu1, mu2, position=G(1)):
    """Rank 2, k = 2, regular top coefficient, one finite simple pole."""
    T = make_irregular_type(2, [((G(3),), 1), ((G(1),), 1)])
    return ProblemInstance(
        2,
        T,
        (scalar_orbit(lam1), scalar_orbit(lam2)),
        (FinitePole(position, make_orbit_spec(2, [(mu1, [1]), (mu2, [1])])),),
    )


def rigid_star():
    lam1, lam2, mu1 = g((-1, 2)), g((-1, 3)), g((1, 5))
    mu2 = -(lam1 + lam2 + mu1)
    return star_instance(lam1, lam2, mu1, mu2)


def double_arrow_instance(c):
    """Paper-style k = 4 type with a double arrow, no finite poles."""
    T = make_irregular_type(4, [((G(0), G(0), G(1)), 1), ((G(0), G(0), G(-1)), 1)])
    return ProblemInstance(2, T, (scalar_orbit(c), scalar_orbit(-c)), ())


def test_star_quiver_shape_and_zeta():
    inst = rigid_star()
    gq = build_global_quiver(inst)
    assert set(gq.quiver.vertices) == {"p0", "p1", "t0.1"}
    assert sorted(a.id for a in gq.quiver.arrows) == ["t0.1>p0", "t0.1>p1"]
    assert gq.dims == {"p0": 1, "p1": 1, "t0.1": 1}
    # greedy marking picks mu1 = 1/5 first (smaller than mu2 = 19/30)
    assert gq.zeta["p0"] == g((1, 2)) - g((1, 5))
    assert gq.zeta["p1"] == g((1, 3)) - g((1, 5))
    assert gq.zeta["t0.1"] == g((1, 5)) - g((19, 30))


def test_zeta_v_equals_minus_total_trace():
    inst = rigid_star()
    exact, copy = build_global_quiver(inst), build_global_quiver(inst.as_float())
    assert isinstance(exact.zeta_v, G) and isinstance(copy.zeta_v, G)
    assert exact.zeta_v == copy.zeta_v == -exponent_trace_fold(inst) == 0


def _trace_problems():
    """Every problem file in tests/data, and every rung of the benchmark
    ladder at seeds 1 and 2, the shifted (zeta . v != 0) rungs included."""
    out = []
    for path in sorted((ROOT / "tests" / "data").glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if "rank" in data:
            out.append(pytest.param(data, id=path.stem))
    ladder = bench_ladder()
    for workload, (_, rungs) in sorted(ladder.WORKLOADS.items()):
        for rung in rungs:
            for seed in (1, 2):
                out.append(pytest.param(
                    ladder.problem(rung, seed), id=f"{workload}-{rung.name}-{seed}"))
    return out


@pytest.mark.parametrize("data", _trace_problems())
def test_integer_trace_identity_matches_the_fraction_folds(data):
    inst = instance_from_json(data, exact=True)
    gq, copy = build_global_quiver(inst), build_global_quiver(inst.as_float())
    trace = exponent_trace_fold(inst)
    # the exact quiver and the float copy of its instance carry it exactly
    for total in (gq.zeta_v, copy.zeta_v):
        assert isinstance(total, G)
        assert total == zeta_dot_v_fold(gq)
        assert total == -trace
    # a float file of the same numbers carries the float fold, in vertex order
    floats = json.loads(json.dumps(instance_to_json(inst.as_float())))
    float_gq = build_global_quiver(instance_from_json(floats, exact=False))
    assert isinstance(float_gq.zeta_v, complex)
    assert float_gq.zeta_v == zeta_dot_v_fold(float_gq)


@pytest.mark.parametrize("data", _trace_problems())
def test_integer_zeta_is_one_positive_multiple_of_zeta(data):
    gq = build_global_quiver(instance_from_json(data, exact=True))
    zeta = [gq.zeta[v] for v in gq.quiver.vertices]
    parts = [*zip(gq.zeta_int[0], (z.re for z in zeta)), *zip(gq.zeta_int[1], (z.im for z in zeta))]
    assert all(isinstance(a, int) and (a == 0) == (x == 0) for a, x in parts)
    scales = {F(a) / x for a, x in parts if x}
    assert len(scales) <= 1 and all(c > 0 for c in scales)


@pytest.mark.parametrize("data", [p for p in _trace_problems() if "degenerate" not in p.id])
def test_the_criterion_reads_the_integer_zeta_as_the_exact_one(data):
    gq = build_global_quiver(instance_from_json(data, exact=True))
    cartan = CartanData.from_quiver(gq.quiver)
    v = cartan.vec(gq.dims)
    assert cb_solvable(cartan, v, gq.zeta_int) == cb_solvable(cartan, v, gq.zeta)


def test_scalar_residue_pole_has_no_leg():
    lam1, lam2 = g((1, 2)), g((1, 3))
    mu = -(lam1 + lam2) / G(2)
    T = make_irregular_type(2, [((G(3),), 1), ((G(1),), 1)])
    inst = ProblemInstance(
        2, T, (scalar_orbit(lam1), scalar_orbit(lam2)),
        (FinitePole(G(0), make_orbit_spec(2, [(mu, [1, 1])])),),
    )
    gq = build_global_quiver(inst)
    assert set(gq.quiver.vertices) == {"p0", "p1"}
    assert gq.zeta["p0"] == -lam1 - mu


def test_double_arrow_core_no_legs():
    inst = double_arrow_instance(g((3, 7)))
    gq = build_global_quiver(inst)
    assert set(gq.quiver.vertices) == {"p0", "p1"}
    assert len(gq.quiver.arrows) == 2
    assert gq.zeta["p0"] == -g((3, 7))


def test_infinity_block_leg():
    # one block of multiplicity 2 whose exponent is a J_2 orbit
    T = make_irregular_type(2, [((G(1),), 2)])
    spec = make_orbit_spec(2, [(G(0), [2])])
    inst = ProblemInstance(2, T, (spec,), ())
    gq = build_global_quiver(inst)
    assert set(gq.quiver.vertices) == {"p0", "p0.1"}
    assert [a.id for a in gq.quiver.arrows] == ["p0.1>p0"]
    assert gq.dims == {"p0": 2, "p0.1": 1}
    assert gq.zeta["p0.1"] == G(0)


def test_decide_rigid_star_nonempty():
    v = decide_ds(rigid_star())
    assert v.nonempty and v.verdict.dim == 0


def test_decide_trace_obstruction():
    lam1, lam2, mu1 = g((-1, 2)), g((-1, 3)), g((1, 5))
    mu2 = -(lam1 + lam2 + mu1) + G(1)  # break the trace balance
    v = decide_ds(star_instance(lam1, lam2, mu1, mu2))
    assert v.nonempty is False and v.verdict.failed_condition == 2


def test_decide_condition3_star():
    # zeta = (0, -1, 1) up to ordering: a unit sub-root with zero pairing
    lam1, lam2 = G(1), G(2)
    mu1, mu2 = G(-1), G(-2)
    v = decide_ds(star_instance(lam1, lam2, mu1, mu2))
    assert v.nonempty is False and v.verdict.failed_condition == 3


def test_decide_condition1_not_a_root():
    # inflate a leg dimension beyond rank via a marking override: instead
    # build a direct instance whose dimension vector is not a root:
    # two blocks with multiplicities (2, 1) and deg-1 separation gives
    # core dims (2, 1) and no arrows: not a root (disconnected support
    # with a 2 somewhere fails the reflection algorithm)
    T = make_irregular_type(2, [((G(3),), 2), ((G(1),), 1)])
    inst = ProblemInstance(
        3,
        T,
        (make_orbit_spec(2, [(G(0), [1, 1])]), scalar_orbit(G(0))),
        (),
    )
    v = decide_ds(inst)
    assert v.nonempty is False and v.verdict.failed_condition == 1


def test_decide_requires_exact():
    inst = rigid_star().as_float()
    with pytest.raises(TypeError):
        decide_ds(inst)


def test_decide_invariance_under_pole_relabeling_and_translation():
    lam1, lam2 = g((-1, 2)), g((-1, 3))
    mu1 = g((1, 7))
    nu1 = g((2, 9))
    mu2 = G(1) - mu1
    nu2 = -(lam1 + lam2) - G(1) - nu1
    T = make_irregular_type(2, [((G(3),), 1), ((G(1),), 1)])
    o1 = make_orbit_spec(2, [(mu1, [1]), (mu2, [1])])
    o2 = make_orbit_spec(2, [(nu1, [1]), (nu2, [1])])
    inst_a = ProblemInstance(2, T, (scalar_orbit(lam1), scalar_orbit(lam2)),
                             (FinitePole(G(0), o1), FinitePole(G(1), o2)))
    inst_b = ProblemInstance(2, T, (scalar_orbit(lam1), scalar_orbit(lam2)),
                             (FinitePole(G(5), o2), FinitePole(G(7), o1)))
    va, vb = decide_ds(inst_a), decide_ds(inst_b)
    assert va.nonempty == vb.nonempty
    assert va.verdict.delta == vb.verdict.delta


def test_realize_rigid_star_and_verify():
    inst = rigid_star()
    gq = build_global_quiver(inst.as_float())
    res = realize_numeric(gq, attempts=10, seed=11)
    assert res.success
    report = verify_instance(gq, res.rep)
    assert report["all_ok"], report


def test_realize_fails_on_trace_obstruction():
    lam1, lam2, mu1 = g((-1, 2)), g((-1, 3)), g((1, 5))
    mu2 = -(lam1 + lam2 + mu1) + G(1)
    inst = star_instance(lam1, lam2, mu1, mu2)
    gq = build_global_quiver(inst.as_float())
    res = realize_numeric(gq, attempts=5, seed=3)
    assert not res.success


def test_realize_deterministic_given_seed():
    gq = build_global_quiver(rigid_star().as_float())
    r1 = realize_numeric(gq, attempts=3, seed=42)
    r2 = realize_numeric(gq, attempts=3, seed=42)
    assert r1.success and r2.success
    for a in gq.quiver.arrows:
        assert np.array_equal(r1.rep.fwd[a.id], r2.rep.fwd[a.id])


def test_double_arrow_family_dimension():
    inst = double_arrow_instance(g((3, 7)))
    v = decide_ds(inst)
    assert v.nonempty and v.verdict.dim == 2
    gq = build_global_quiver(inst.as_float())
    res = realize_numeric(gq, attempts=10, seed=5)
    assert res.success
    lhs, rhs = kernel_dimension_check(gq, res.rep)
    assert lhs == rhs == 2


def test_exponent_blocks_match_normalize():
    # the algebraic exponent (from moment equations) agrees with the
    # analytic one (formal reduction of the realized connection)
    inst = rigid_star()
    gq = build_global_quiver(inst.as_float())
    res = realize_numeric(gq, attempts=10, seed=2)
    assert res.success
    conn = rep_to_connection(gq, res.rep)
    T = gq.instance.irregular
    jet = conn.infinity_jet(T.k, 2 * T.k)
    out = normalize(jet, T)
    lbs = exponent_blocks(T, rep_to_qp(T, res.rep), conn.residues)
    for b in range(T.block_count):
        sl = T.block_slice(b)
        assert linalg.mat_norm(out.exponent[sl, sl] - lbs[b][0]) < 1e-8


def _bracket_problems():
    """Every problem file in tests/data, and the realize-verify rungs of
    the benchmark ladder at seeds 1 and 2."""
    out = []
    for path in sorted((ROOT / "tests" / "data").glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if "rank" in data:
            out.append(pytest.param(data, id=path.stem))
    ladder = bench_ladder()
    for rung in ladder.WORKLOADS["realize-verify"][1]:
        for seed in (1, 2):
            out.append(pytest.param(ladder.problem(rung, seed), id=f"{rung.name}-{seed}"))
    return out


@pytest.mark.parametrize("data", _bracket_problems())
def test_core_bracket_is_the_core_moment_map(data, rng):
    # block b of sum_i [Q_i, P_i] is the core moment map at p{b} on any
    # float rep, so exponent_blocks reads it through the QP pair.  Only
    # example_iii (k = 5) and the k = 3 rung have core arrows; at k = 2
    # both sides vanish
    gq = build_global_quiver(instance_from_json(data, exact=True).as_float())
    rep = DoubledRep.zero(gq.quiver, gq.dims)
    for a in gq.quiver.arrows:
        rep.fwd[a.id] = rand_complex(rng, *rep.fwd[a.id].shape)
        rep.rev[a.id] = rand_complex(rng, *rep.rev[a.id].shape)
    T = gq.instance.irregular
    blocks = exponent_blocks(T, rep_to_qp(T, rep), [])
    for b, mu in core_bracket_by_arrows(gq, rep).items():
        lb, scale = blocks[b]
        assert linalg.mat_norm(lb + mu) <= 1e-12 * max(1.0, linalg.mat_norm(mu))
        assert abs(scale - linalg.mat_norm(mu)) <= 1e-12 * max(1.0, scale)


def _nonempty_problems():
    """rigid_star, and every problem file in tests/data whose verdict is
    nonempty: ladder_g4x1k2_seed206.json has chain arrows, block-leg
    feet and the feet of two poles."""
    out = [pytest.param(rigid_star, id="rigid_star")]
    for path in sorted((ROOT / "tests" / "data").glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if "rank" in data and decide_ds(instance_from_json(data, exact=True)).nonempty:
            out.append(pytest.param(lambda d=data: instance_from_json(d, exact=True),
                                    id=path.name))
    return out


@pytest.mark.parametrize("make", _nonempty_problems())
def test_connection_round_trip(make):
    gq = build_global_quiver(make().as_float())
    res = realize_numeric(gq, attempts=10, seed=13)
    conn = rep_to_connection(gq, res.rep)
    rep2 = connection_to_rep(gq, conn)
    assert moment_residual(gq, rep2)[0] < 1e-9
    conn2 = rep_to_connection(gq, rep2)
    for a, b in zip(conn.residues, conn2.residues):
        assert linalg.mat_norm(a - b) < 1e-9
    for a, b in zip(conn.poly, conn2.poly):
        assert linalg.mat_norm(a - b) < 1e-9


def test_failing_leg_conditions_are_named_in_arrow_order():
    # one-by-one failures (chain arrows, block-leg feet) in quiver arrow
    # order come first, then the joint failures of a pole's feet
    data = json.loads((ROOT / "tests" / "data" / "ladder_g4x1k2_seed206.json").read_text())
    gq = build_global_quiver(instance_from_json(data, exact=True).as_float())
    rep = realize_numeric(gq, seed=1).rep
    for a in ("t0.2>t0.1", "t0.1>p0", "t0.1>p1"):
        rep.fwd[a] = np.zeros_like(rep.fwd[a])
    for a in ("t0.1>p0", "t0.1>p1", "p0.1>p0"):
        rep.rev[a] = np.zeros_like(rep.rev[a])
    checks = {c["name"]: c for c in verify_instance(gq, rep)["checks"]}
    assert not checks["leg_conditions"]["ok"]
    assert checks["leg_conditions"]["detail"] == (
        "p0.1>p0: reverse map not surjective; t0.2>t0.1: forward map not injective; "
        "t0.1: joint kernel of the foot maps is non-zero; "
        "t0.1: foot reverse maps do not jointly surject")


def test_connection_membership_error_names_pole():
    inst = rigid_star()
    gq = build_global_quiver(inst.as_float())
    res = realize_numeric(gq, attempts=10, seed=13)
    conn = rep_to_connection(gq, res.rep)
    bad = ConnectionData(
        conn.n, conn.poly, (conn.residues[0] + np.diag([1.0, 0]),), conn.positions
    )
    with pytest.raises(ValueError, match="pole 0"):
        connection_to_rep(gq, bad)


def test_stability_transport_on_unstable_point():
    # hand-built moment solution with a decoupled block: unstable on
    # both sides of the dictionary
    lam1, lam2 = G(1), G(2)
    mu1, mu2 = G(-1), G(-2)
    inst = star_instance(lam1, lam2, mu1, mu2).as_float()
    gq = build_global_quiver(inst)
    rep = DoubledRep.zero(gq.quiver, gq.dims)
    # greedy marking starts at mu2 = -2, so zeta = (1, 0, -1): the p1
    # factor decouples and the p0 arrows carry the product 1
    assert gq.zeta["p1"] == 0 and gq.zeta["p0"] == 1
    rep.fwd["t0.1>p0"] = np.array([[1.0]], dtype=complex)
    rep.rev["t0.1>p0"] = np.array([[1.0]], dtype=complex)
    assert moment_residual(gq, rep)[0] < 1e-12
    assert not is_stable(rep)
    conn = rep_to_connection(gq, rep)
    assert not is_stable_connection(conn)


def test_is_stable_connection_basics():
    assert is_stable_connection(ConnectionData(1, (np.array([[2.0 + 0j]]),), (), ()))
    block = ConnectionData(
        2,
        (np.diag([1.0, 2.0]).astype(complex),),
        (np.diag([3.0, 4.0]).astype(complex),),
        (0j,),
    )
    assert not is_stable_connection(block)


def test_verify_flags_perturbed_point():
    inst = rigid_star()
    gq = build_global_quiver(inst.as_float())
    res = realize_numeric(gq, attempts=10, seed=21)
    assert res.success
    bad = res.rep.copy()
    bad.fwd["t0.1>p0"] = bad.fwd["t0.1>p0"] + 0.05
    report = verify_instance(gq, bad)
    assert not report["all_ok"]
    failed = {c["name"] for c in report["checks"] if not c["ok"]}
    assert "moment_residual" in failed
    assert_conversion_fails_with(
        gq, bad, report, f"moment residual {moment_residual(gq, bad)[0]:.3e} above tolerance")


def test_verify_flags_wrong_residue_orbit():
    # declare a different residue orbit (same trace): flagged
    lam1, lam2, mu1 = g((-1, 2)), g((-1, 3)), g((1, 5))
    mu2 = -(lam1 + lam2 + mu1)
    inst = star_instance(lam1, lam2, mu1, mu2)
    gq = build_global_quiver(inst.as_float())
    res = realize_numeric(gq, attempts=10, seed=23)
    assert res.success
    wrong = star_instance(lam1, lam2, mu1 + G(1), mu2 - G(1))
    gq_wrong = build_global_quiver(wrong.as_float())
    report = verify_instance(gq_wrong, res.rep)
    assert not report["all_ok"]
    failed = {c["name"] for c in report["checks"] if not c["ok"]}
    assert "residue_orbit_t0" in failed
    # the declared orbits move zeta too, so the moment residual fails first
    assert_conversion_fails_with(
        gq_wrong, res.rep, report,
        f"moment residual {moment_residual(gq_wrong, res.rep)[0]:.3e} above tolerance")


def assert_conversion_fails_with(gq, rep, report, message):
    """rep_to_connection raises `message`, and verify reports it."""
    with pytest.raises(ValueError) as err:
        rep_to_connection(gq, rep)
    assert str(err.value) == message
    (entry,) = [c for c in report["checks"] if c["name"] == "connection_conversion"]
    assert entry == {"name": "connection_conversion", "ok": False, "detail": message}


def test_verify_checks_each_orbit_once(monkeypatch):
    # one batched orbit_membership call holding each pole's orbit, then
    # each block's, once and in report order: the conversion reuses the
    # checks verify records instead of running them again
    import dsirr.assembly as assembly

    calls = []
    real = assembly.orbit_membership

    def counted(*args, **kwargs):
        calls.append(list(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(assembly, "orbit_membership", counted)
    for inst, seed in ((rigid_star(), 11), (double_arrow_instance(g((3, 7))), 5)):
        inst = inst.as_float()
        gq = build_global_quiver(inst)
        res = realize_numeric(gq, attempts=10, seed=seed)
        assert res.success
        calls.clear()
        report = verify_instance(gq, res.rep)
        assert report["all_ok"], report
        assert calls == [[p.orbit for p in inst.poles] + list(inst.residue_blocks)]


def test_moment_jacobian_matches_finite_differences(rng):
    inst = rigid_star()
    gq = build_global_quiver(inst.as_float())
    rep = DoubledRep.zero(gq.quiver, gq.dims)
    for a in gq.quiver.arrows:
        rep.fwd[a.id] = rand_complex(rng, gq.dims[a.dst], gq.dims[a.src])
        rep.rev[a.id] = rand_complex(rng, gq.dims[a.src], gq.dims[a.dst])
    from dsirr.assembly import _pack, _residual_vector

    x0 = _pack(gq, rep)
    jac = moment_jacobian(gq, x0)
    h = 1e-7
    for col in range(x0.size):
        dx = np.zeros_like(x0)
        dx[col] = h
        rp = _residual_vector(gq, x0 + dx)
        rm = _residual_vector(gq, x0 - dx)
        fd = (rp - rm) / (2 * h)
        assert np.allclose(fd, jac[:, col], atol=1e-6)


def test_instance_json_round_trip():
    inst = rigid_star()
    data = instance_to_json(inst)
    inst2 = instance_from_json(data, exact=True)
    assert inst2.n == inst.n
    assert inst2.irregular == inst.irregular
    assert inst2.residue_blocks == inst.residue_blocks
    assert inst2.poles == inst.poles
    v1, v2 = decide_ds(inst), decide_ds(inst2)
    assert (verdict_to_json(v1.verdict, v1.gq.quiver, v1.gq.dims, v1.gq.zeta)
            == verdict_to_json(v2.verdict, v2.gq.quiver, v2.gq.dims, v2.gq.zeta))


def test_rep_and_connection_json_round_trip():
    inst = rigid_star()
    gq = build_global_quiver(inst.as_float())
    res = realize_numeric(gq, attempts=10, seed=1)
    data = rep_to_json(res.rep)
    rep2 = rep_from_json(gq, data)
    for a in gq.quiver.arrows:
        assert np.allclose(rep2.fwd[a.id], res.rep.fwd[a.id])


def test_residue_blocks_follow_input_block_order():
    # blocks written in non-canonical order: residue_blocks stay attached
    data = {
        "rank": 2,
        "infinity": {
            "irregular_type": {"k": 2, "blocks": [{"coeffs": ["1"], "mult": 1}, {"coeffs": ["3"], "mult": 1}]},
            "residue_blocks": [
                {"eigenvalues": [{"value": "7", "blocks": [1]}]},
                {"eigenvalues": [{"value": "9", "blocks": [1]}]},
            ],
        },
        "finite_poles": [],
    }
    inst = instance_from_json(data, exact=True)
    # canonical order puts the coefficient-3 block first; its exponent
    # is the one written next to the coefficient-3 input block (9)
    assert inst.irregular.blocks[0].coeffs == (G(3),)
    assert inst.residue_blocks[0].eigenvalues[0][0] == G(9)
