"""The realizer's compiled moment map, its complex step, and its reports.

`_residual_vector` and `moment_jacobian` read the moment map from index
arrays compiled once per quiver; they are checked against the dict form
`quiver.moment_map` and against central differences on a quiver with
loops and a double arrow, which synthesis never builds.  The complex Gram
step is checked against the real-doubled normal equations on both sides
of the Gram choice.  On instances with zeta . v != 0 the trace of mu - zeta
is -zeta . v whatever the point, so the residual is at least
|zeta . v| / sqrt(sum v_i).  On float input the realizer reaches that
floor and stops there on its gradient test, and feasible instances never
stop on it; on exact input a non-zero zeta . v is a proof of emptiness,
which `realize` answers at once, in agreement with `check`.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import rand_complex
from dsirr.assembly import (
    GlobalQuiver,
    _damped_steps,
    _residual_vector,
    _unpack,
    build_global_quiver,
    connection_to_rep,
    decide_ds,
    instance_from_json,
    instance_to_json,
    moment_jacobian,
    realize_numeric,
    rep_to_connection,
    verify_instance,
)
from dsirr.cli import main
from dsirr.quiver import Stability, make_quiver, moment_map
from dsirr.scalars import GaussianRational, format_exact, parse_exact
from dsirr.serialize import payload_is_float
from oracles import bench_ladder, lm_step_real_doubled
from test_assembly import rigid_star, star_instance

DATA = Path(__file__).parent / "data"
CONVERGED = {"converged-stable", "converged-unstable", "converged-unresolved"}
STOPS = CONVERGED | {
    "stationary",
    "stalled",
    "damping-overflow",
    "iteration-limit",
}


def loop_and_double_arrow(rng):
    quiver = make_quiver(
        ["1", "2"], [("a", "1", "2"), ("b", "1", "2"), ("l", "2", "2"), ("m", "1", "1")]
    )
    dims = {"1": 2, "2": 3}
    zeta = {"1": complex(rng.standard_normal()), "2": complex(rng.standard_normal(), 1.0)}
    return GlobalQuiver(quiver, dims, zeta, None, {})


def test_plan_matches_moment_map_on_loops_and_double_arrows(rng):
    gq = loop_and_double_arrow(rng)
    cols = sum(2 * gq.dims[a.src] * gq.dims[a.dst] for a in gq.quiver.arrows)
    assert gq.moment_plan.cols == cols
    x = rand_complex(rng, cols)
    mu = moment_map(_unpack(gq, x))
    want = np.concatenate(
        [(mu[v] - gq.zeta[v] * np.eye(gq.dims[v])).reshape(-1) for v in gq.quiver.vertices]
    )
    assert np.allclose(_residual_vector(gq, x), want, rtol=0, atol=1e-12)

    jac = moment_jacobian(gq, x)
    assert jac.shape == (want.size, cols)
    h = 1e-6
    for col in range(cols):
        dx = np.zeros(cols, dtype=complex)
        dx[col] = h
        fd = (_residual_vector(gq, x + dx) - _residual_vector(gq, x - dx)) / (2 * h)
        assert np.allclose(fd, jac[:, col], rtol=0, atol=1e-8), col
        # holomorphic: an imaginary move is i times the real one
        fd_i = (_residual_vector(gq, x + 1j * dx) - _residual_vector(gq, x - 1j * dx)) / (2 * h)
        assert np.allclose(fd_i, 1j * jac[:, col], rtol=0, atol=1e-8), col


def test_plan_is_built_once_per_quiver(rng):
    gq = loop_and_double_arrow(rng)
    assert "moment_plan" not in vars(gq)
    plan = gq.moment_plan
    assert gq.moment_plan is plan
    assert loop_and_double_arrow(rng).moment_plan is not plan


@pytest.mark.parametrize("shape", [(8, 20), (20, 8), (10, 10)], ids=["wide", "tall", "square"])
@pytest.mark.parametrize("lam", [1e-14, 1e-3, 1e6])
def test_gram_step_matches_real_doubled_normal_equations(shape, lam):
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(shape)
    jac = rand_complex(rng, *shape)
    r = rand_complex(rng, shape[0])
    got = _damped_steps(jac, r)(lam)
    want = lm_step_real_doubled(jac, r, lam)
    assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


def _problem(name):
    return json.loads((DATA / name).read_text(encoding="utf-8"))


def _load(name):
    return instance_from_json(_problem(name), exact=True)


def _float_payload(name):
    """The float file form of a problem file: its JSON written from the
    float copy.  Read back, it keeps no exact zeta . v."""
    return json.loads(json.dumps(instance_to_json(_load(name).as_float())))


def _floor_and_result(name, attempts, seed):
    """The exact floor, and the restarts on the float file form of the
    problem, whose inexact zeta . v proves nothing, so every restart runs."""
    gq = build_global_quiver(_load(name))
    floor = abs(gq.zeta_v.to_complex()) / math.sqrt(sum(gq.dims.values()))
    floats = build_global_quiver(instance_from_json(_float_payload(name), exact=False))
    assert isinstance(floats.zeta_v, complex)
    res = realize_numeric(floats, attempts=attempts, seed=seed)
    assert res.attempts == len(res.records) == attempts and res.stop == "attempts-exhausted"
    return floor, res


def _float_copy(name, tmp_path):
    path = tmp_path / f"float-{name}"
    path.write_text(json.dumps(_float_payload(name)))
    return path


@pytest.mark.parametrize(
    "name, floor",
    [("star_empty_cond2.json", 0.57735), ("ladder_g3x2k2-shift_seed5.json", 0.15811)],
)
def test_infeasible_residual_meets_the_trace_floor(name, floor):
    bound, res = _floor_and_result(name, attempts=5, seed=3)
    assert bound == pytest.approx(floor, abs=1e-5)
    assert not res.success
    assert res.residual == pytest.approx(bound, rel=1e-9)
    assert all(r["residual"] >= bound * (1 - 1e-12) for r in res.records)


def test_attempt_records_are_deterministic_and_add_up():
    gq = build_global_quiver(rigid_star().as_float())
    first = realize_numeric(gq, attempts=4, seed=42)
    again = realize_numeric(build_global_quiver(rigid_star().as_float()), attempts=4, seed=42)
    assert first.success
    assert first.records == again.records
    assert first.records[-1]["stop"] == "converged-stable"
    assert len(first.records) == first.attempts
    for rec in first.records:
        assert set(rec) == {"iterations", "trials", "residual", "stop"}
        assert rec["stop"] in STOPS
        assert rec["trials"] >= rec["iterations"]
    stats = first.stats
    assert stats["restarts"] == first.attempts
    assert stats["lm_iterations"] == sum(r["iterations"] for r in first.records)
    assert stats["damping_trials"] == sum(r["trials"] for r in first.records)


def test_infeasible_restarts_end_without_converging():
    _, res = _floor_and_result("star_empty_cond2.json", attempts=4, seed=0)
    assert res.attempts == len(res.records) == 4
    assert {r["stop"] for r in res.records} == {"stationary"}


def test_infeasible_restarts_stop_at_the_floor_within_a_trial_budget():
    # the gradient stop needs 26 trials here; grinding on the floor until
    # lam overflows takes 182
    bound, res = _floor_and_result("ladder_g3x2k2-shift_seed5.json", attempts=5, seed=3)
    assert res.stats["damping_trials"] <= 60
    assert res.residual == pytest.approx(bound, rel=1e-9)


@pytest.mark.parametrize(
    "name",
    [
        "star_rigid.json",
        "ladder_g4x1k2_seed206.json",
        "ladder_s4x2k2_seed16.json",
        "ladder_s4x2k2_seed41.json",
    ],
)
def test_feasible_instances_never_stop_stationary(name):
    with open(DATA / name, encoding="utf-8") as f:
        inst = instance_from_json(json.load(f), exact=True)
    gq = build_global_quiver(inst.as_float())
    res = realize_numeric(gq, attempts=5, seed=3)
    assert res.success and res.attempts == 1
    assert all(r["stop"] != "stationary" for r in res.records)
    assert res.trace_floor == 0
    assert verify_instance(gq, res.rep)["all_ok"]


def test_the_numeric_paths_refuse_an_exact_quiver():
    gq = build_global_quiver(rigid_star().as_float())
    res = realize_numeric(gq, attempts=3, seed=1)
    exact = build_global_quiver(rigid_star())
    with pytest.raises(TypeError, match="realize_numeric needs a float quiver"):
        realize_numeric(exact)
    with pytest.raises(TypeError, match="verify_instance needs a float quiver"):
        verify_instance(exact, res.rep)
    conn = rep_to_connection(gq, res.rep)
    with pytest.raises(TypeError, match="rep_to_connection needs a float quiver"):
        rep_to_connection(exact, res.rep)
    with pytest.raises(TypeError, match="connection_to_rep needs a float quiver"):
        connection_to_rep(exact, conn)


def _no_constants(name):
    raise ValueError(f"not JSON: {name}")


@pytest.mark.parametrize(
    "name, attempts",
    [
        pytest.param("star_rigid.json", "0", id="0"),
        pytest.param("star_rigid.json", "-3", id="-3"),
        # zeta . v != 0 answers before any restart, but not before the check
        pytest.param("star_empty_cond2.json", "0", id="empty-0"),
    ],
)
def test_realize_rejects_fewer_than_one_attempt(name, attempts, capsys):
    code = main(["realize", str(DATA / name), "--attempts", attempts])
    report = json.loads(capsys.readouterr().out, parse_constant=_no_constants)
    assert code == 2
    assert "attempts" in report["error"]


def test_realize_report_is_strict_json_with_stats(tmp_path, capsys):
    floats = _float_copy("star_empty_cond2.json", tmp_path)
    argv = ["realize", str(floats), "--attempts", "3", "--seed", "1"]
    code = main(argv)
    report = json.loads(capsys.readouterr().out, parse_constant=_no_constants)
    assert code == 1
    assert report["residual"] == pytest.approx(1 / math.sqrt(3), rel=1e-9)
    stats = report["stats"]
    assert stats["restarts"] == report["attempts"] == len(stats["attempts"]) == 3
    assert stats["lm_iterations"] == sum(a["iterations"] for a in stats["attempts"])
    assert stats["damping_trials"] == sum(a["trials"] for a in stats["attempts"])
    main(argv)
    assert json.loads(capsys.readouterr().out)["stats"] == stats


@pytest.mark.parametrize("name, floor", [
    ("star_empty_cond2.json", 0.57735),
    ("star_rigid.json", 0.0),
    ("ladder_s4x2k2_seed16.json", 0.0),
    ("ladder_g4x1k2_seed206.json", 0.0),
])
def test_realize_report_carries_the_trace_floor(name, floor, capsys):
    main(["realize", str(DATA / name), "--attempts", "2", "--seed", "0"])
    report = json.loads(capsys.readouterr().out, parse_constant=_no_constants)
    # the files are exact: a feasible one has zeta . v = 0 with no rounding
    assert report["stats"]["trace_floor"] == (pytest.approx(floor, abs=1e-5) if floor else 0.0)
    assert report["residual"] >= report["stats"]["trace_floor"] * (1 - 1e-12)


def _run(argv, capsys):
    code = main([str(a) for a in argv])
    return code, json.loads(capsys.readouterr().out, parse_constant=_no_constants)


@pytest.mark.parametrize("name", ["star_empty_cond2.json", "ladder_g3x2k2-shift_seed5.json"])
def test_exact_nonzero_zeta_v_answers_at_the_trace_floor(name, capsys):
    code, report = _run(["realize", DATA / name], capsys)
    stats = report["stats"]
    assert code == 1 and not report["success"] and "rep" not in report
    assert report["attempts"] == stats["restarts"] == 0 and stats["attempts"] == []
    assert stats["stop"] == "trace-floor"
    assert report["residual"] == stats["trace_floor"] > 0


def _shifted(data, delta, tmp_path, name):
    """A copy of a problem payload with the first eigenvalue of its last
    pole moved by the exact `delta`, as the benchmark ladder shifts its
    infeasible rungs; zeta . v moves by -delta times its multiplicity."""
    data = json.loads(json.dumps(data))
    eig = data["finite_poles"][-1]["orbit"]["eigenvalues"][0]
    eig["value"] = format_exact(parse_exact(eig["value"]) + GaussianRational(delta))
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def _is_exact_problem(name):
    data = _problem(name)
    return "rank" in data and not payload_is_float(data)


EXACT_PROBLEMS = sorted(p.name for p in DATA.glob("*.json") if _is_exact_problem(p.name))
SHIFTED = [
    (name, delta)
    for name in [
        "ladder_g3x2k2-shift_seed5.json",
        "ladder_s4x2k2_seed16.json",
        "ladder_g4x1k2_seed206.json",
    ]
    for delta in [Fraction(1, 10**3), Fraction(1, 10**6), Fraction(1, 10**10)]
]


@pytest.mark.parametrize(
    "name, delta",
    [(name, 0) for name in EXACT_PROBLEMS] + SHIFTED,
    ids=lambda x: str(x) if isinstance(x, Fraction) else None,
)
def test_check_and_realize_agree_on_condition_two(name, delta, tmp_path, capsys):
    path = _shifted(_problem(name), delta, tmp_path, name) if delta else DATA / name
    _, verdict = _run(["check", path], capsys)
    code, report = _run(["realize", path], capsys)
    floor_answer = report["stats"]["stop"] == "trace-floor" and "rep" not in report and code == 1
    assert (verdict.get("failed_condition") == 2) == floor_answer
    if delta:  # every shifted copy has zeta . v != 0
        assert floor_answer


def test_verify_rejects_a_witness_when_the_exact_zeta_v_is_not_zero(tmp_path, capsys):
    # undo the ladder's shift of 1/2: a feasible instance and its witness
    shifted = _problem("ladder_g3x2k2-shift_seed5.json")
    unshifted = _shifted(shifted, Fraction(-1, 2), tmp_path, "g3x2k2.json")
    code, report = _run(["realize", unshifted, "--seed", "1"], capsys)
    assert code == 0 and report["verification"]["all_ok"]
    rep = report["rep"]
    near = _shifted(json.loads(unshifted.read_text()), Fraction(1, 10**10), tmp_path, "near.json")
    for instance, ok in [(unshifted, True), (near, False)]:
        payload = tmp_path / "verify.json"
        payload.write_text(json.dumps({"instance": json.loads(instance.read_text()), "rep": rep}))
        code, checks = _run(["verify", payload], capsys)
        assert (code, checks["all_ok"]) == ((0, True) if ok else (1, False))
        trace = next(c for c in checks["checks"] if c["name"] == "trace_identity")
        # the witness is within 1e-10 of the near instance: only the
        # exact trace tells them apart
        failed = [c["name"] for c in checks["checks"] if not c["ok"]]
        assert failed == ([] if ok else ["trace_identity"])
        assert ("-1/10000000000" in trace["detail"]) is not ok


@pytest.mark.parametrize("name", EXACT_PROBLEMS)
def test_embedded_verification_equals_a_fresh_one(name, capsys):
    # the library path, the float copy of the exact instance, answers as
    # the CLI does: the same restarts, and the same verification
    code, report = _run(["realize", DATA / name, "--seed", "1"], capsys)
    gq = build_global_quiver(_load(name).as_float())
    res = realize_numeric(gq, seed=1)
    assert report["stats"] == json.loads(json.dumps(res.stats))
    if decide_ds(_load(name)).verdict.failed_condition == 2:  # star_empty_cond2 among them
        assert res.stop == "trace-floor" and res.attempts == 0 and res.residual > 0
        assert code == 1 and "verification" not in report
        return
    assert name != "star_empty_cond2.json"  # so it cannot skip the branch above
    assert code == 0 and report["verification"]["all_ok"]
    fresh = verify_instance(gq, res.rep)
    (trace,) = [c for c in fresh["checks"] if c["name"] == "trace_identity"]
    assert trace == {"name": "trace_identity", "ok": True, "detail": "exact zeta . v = 0"}
    embedded = report["verification"]["checks"]
    assert [c["name"] for c in embedded] == [c["name"] for c in fresh["checks"]]
    for got, want in zip(embedded, fresh["checks"]):
        assert got == want


@pytest.fixture
def stability_calls(monkeypatch):
    """Count the rep_stability(rep, zeta) calls made through
    dsirr.assembly, and how many of them come from the CLI's embedded
    verification."""
    import dsirr.assembly as assembly
    import dsirr.cli as cli

    calls = {"all": 0, "verify": 0}
    rep_stability, verify = assembly.rep_stability, cli.verify_instance

    def counted(rep, zeta):
        calls["all"] += 1
        return rep_stability(rep, zeta)

    def counted_verify(*args, **kwargs):
        before = calls["all"]
        report = verify(*args, **kwargs)
        calls["verify"] += calls["all"] - before
        return report

    monkeypatch.setattr(assembly, "rep_stability", counted)
    monkeypatch.setattr(cli, "verify_instance", counted_verify)
    return calls


def test_realize_tests_stability_once_per_converged_restart(stability_calls, tmp_path, capsys):
    # a condition-3 instance: zeta . v = 0, but every point is reducible
    reducible = tmp_path / "reducible.json"
    reducible.write_text(json.dumps(instance_to_json(star_instance(
        GaussianRational(1), GaussianRational(2), GaussianRational(-1), GaussianRational(-2)))))
    for path, success in [(DATA / "star_rigid.json", True),
                          (DATA / "ladder_s4x2k2_seed41.json", True),
                          (reducible, False)]:
        stability_calls.update(all=0, verify=0)
        code, report = _run(["realize", path, "--seed", "1", "--attempts", "4"], capsys)
        assert (code, report["success"]) == ((0, True) if success else (1, False))
        converged = [a for a in report["stats"]["attempts"] if a["stop"] in CONVERGED]
        assert converged
        assert stability_calls == {"all": len(converged), "verify": 0}
    # the counter is on verify's path: without a certificate, verify tests once
    gq = build_global_quiver(rigid_star().as_float())
    res = realize_numeric(gq, seed=1)
    stability_calls.update(all=0, verify=0)
    verify_instance(gq, res.rep)
    assert stability_calls["all"] == 1


def test_unresolved_stability_is_not_reported_unstable(monkeypatch):
    import dsirr.assembly as assembly

    monkeypatch.setattr(
        assembly, "rep_stability", lambda rep, zeta: Stability(False, None, 4, "invariant_dim"))
    res = realize_numeric(build_global_quiver(rigid_star().as_float()), attempts=3, seed=1)
    assert not res.success and res.stop == "attempts-exhausted"
    assert [r["stop"] for r in res.records] == ["converged-unresolved"] * 3


def test_realize_fails_when_its_witness_fails_verification(tmp_path, capsys):
    # the float form of a feasible instance, one eigenvalue moved by 1e-6:
    # its float zeta . v proves nothing, the realizer finds a stable point
    # of the rounded parameters, and that point leaves the declared orbits
    unshifted = _shifted(_problem("ladder_g3x2k2-shift_seed5.json"), Fraction(-1, 2),
                         tmp_path, "g3x2k2.json")
    data = instance_to_json(instance_from_json(json.loads(unshifted.read_text()), exact=True)
                            .as_float())
    data["finite_poles"][-1]["orbit"]["eigenvalues"][0]["value"][0] += 1e-6
    near = tmp_path / "near-float.json"
    near.write_text(json.dumps(data))
    code, report = _run(["realize", near, "--seed", "1"], capsys)
    assert code == 1 and report["success"] is False and "rep" not in report
    assert report["stats"]["stop"] == "verification-failed"
    assert report["stats"]["attempts"][-1]["stop"] == "converged-stable"
    verification = report["verification"]
    assert not verification["all_ok"]
    assert [c["name"] for c in verification["checks"] if not c["ok"]] == [
        "residue_orbit_t0", "residue_orbit_t1", "exponent_orbit_p1", "trace_identity",
        "connection_conversion"]


def test_float_trace_identity_reads_the_declared_orbits(tmp_path, capsys):
    # the float form of a feasible instance and its witness, and a copy
    # with one eigenvalue moved by 1e-10: the traces at the point cancel
    # either way, the declared zeta . v does not
    unshifted = _shifted(_problem("ladder_g3x2k2-shift_seed5.json"), Fraction(-1, 2),
                         tmp_path, "g3x2k2.json")
    code, report = _run(["realize", unshifted, "--seed", "1"], capsys)
    assert code == 0
    data = instance_to_json(instance_from_json(json.loads(unshifted.read_text()), exact=True)
                            .as_float())
    near = json.loads(json.dumps(data))
    near["finite_poles"][-1]["orbit"]["eigenvalues"][0]["value"][0] += 1e-10
    for instance, ok in [(data, True), (near, False)]:
        payload = tmp_path / "verify.json"
        payload.write_text(json.dumps({"instance": instance, "rep": report["rep"]}))
        code, checks = _run(["verify", payload], capsys)
        assert (code, checks["all_ok"]) == ((0, True) if ok else (1, False))
        assert [c["name"] for c in checks["checks"] if not c["ok"]] == (
            [] if ok else ["trace_identity"])
    path = tmp_path / "near-float.json"
    path.write_text(json.dumps(near))
    code, realized = _run(["realize", path, "--seed", "1"], capsys)
    assert code == 1 and "rep" not in realized
    assert realized["stats"]["stop"] == "verification-failed"
    assert [c["name"] for c in realized["verification"]["checks"] if not c["ok"]] == [
        "trace_identity"]


def _residues_shifted(data, c):
    """A float payload with its first pole's eigenvalues moved by c and
    every exponent by -c: zeta is the same, so is every solution, but
    each core zeta_p is formed from scalars of size |c|."""
    data = json.loads(json.dumps(data))
    for eig in data["finite_poles"][0]["orbit"]["eigenvalues"]:
        eig["value"][0] += c
    for block in data["infinity"]["residue_blocks"]:
        for eig in block["eigenvalues"]:
            eig["value"][0] -= c
    return data


@pytest.mark.parametrize("name", [n for n in EXACT_PROBLEMS if decide_ds(_load(n)).nonempty])
def test_float_copy_of_a_feasible_file_passes_verification(name, tmp_path, capsys):
    path = _float_copy(name, tmp_path)
    code, report = _run(["realize", path, "--seed", "1"], capsys)
    assert code == 0 and report["verification"]["all_ok"]
    (trace,) = [c for c in report["verification"]["checks"] if c["name"] == "trace_identity"]
    assert trace["detail"].startswith("|zeta . v| = ")
    data = json.loads(path.read_text())
    if not data["finite_poles"]:
        return
    # the trace bound and the connection's stability test follow the shift
    for c in (1000.1, 1e6):
        payload = tmp_path / "verify.json"
        payload.write_text(json.dumps({"instance": _residues_shifted(data, c), "rep": report["rep"]}))
        code, checks = _run(["verify", payload], capsys)
        assert code == 0 and checks["all_ok"], checks


def _nilpotent_rungs():
    ladder = bench_ladder()
    rungs = {r.name: r for _, rs in ladder.WORKLOADS.values() for r in rs}
    return [pytest.param(ladder.problem(rungs[name], seed), seed, id=f"{name}-{seed}")
            for name in ("n4x3k2", "n4x4k2", "n4x2k3") for seed in (1, 2, 3)]


@pytest.mark.parametrize("data, seed", _nilpotent_rungs())
def test_nilpotent_witnesses_pass_their_zero_exponent_orbits(data, seed, tmp_path, capsys):
    # each exponent orbit is 0, so L_b is round-off of the terms that
    # cancel in it; the orbit test reads it at their scale and passes
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(data))
    code, report = _run(["realize", problem, "--seed", seed], capsys)
    assert code == 0 and report["verification"]["all_ok"], report["stats"]["stop"]
    payload = tmp_path / "witness.json"
    payload.write_text(json.dumps({"instance": data, "rep": report["rep"]}))
    code, checks = _run(["verify", payload], capsys)
    assert code == 0 and checks["all_ok"]
