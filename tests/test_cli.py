import argparse
import copy
import json
import math
import os
import resource
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import dsirr.cli
from conftest import HANG_TIMEOUT, SRC_ENV, run_fresh
from dsirr.cli import COMMANDS, main
from dsirr.orbits import OrbitSpec
from dsirr.quiver import quiver_from_json
from dsirr.roots import CartanData
from dsirr.scalars import GaussianRational as G
from dsirr.scalars import format_exact, parse_exact
from dsirr.serialize import report_text
from oracles import bench_ladder, mixed_zeta_problem, reflection_is_positive_root

TESTS = os.path.dirname(__file__)
DATA = os.path.join(TESTS, "data")
with open(os.path.join(TESTS, "golden", "cli_text.json"), encoding="utf-8") as _f:
    GOLDEN = json.load(_f)
with open(os.path.join(TESTS, "golden", "reports.json"), encoding="utf-8") as _f:
    REPORTS = json.load(_f)
with open(os.path.join(TESTS, "golden", "matrix_reports.json"), encoding="utf-8") as _f:
    MATRIX_REPORTS = json.load(_f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def path(name):
    return os.path.join(DATA, name)


def test_check_rigid_star(capsys):
    code, report = run(capsys, "check", path("star_rigid.json"))
    assert code == 0
    assert report["verdict"] == "nonempty"
    assert report["dim"] == 0
    assert set(report["quiver"]["dims"]) == {"p0", "p1", "t0.1"}
    # generic zeta: v is the only candidate, and the DP evaluates v alone
    assert report["stats"] == {"candidates": 1, "search_states": 1}


def test_check_trace_perturbed(capsys):
    code, report = run(capsys, "check", path("star_empty_cond2.json"))
    assert code == 1
    assert report["verdict"] == "empty"
    assert report["failed_condition"] == 2


def test_check_round_trip_through_build_quiver(tmp_path, capsys):
    qfile = tmp_path / "quiver.json"
    code, quiver_report = run(capsys, "build-quiver", path("star_rigid.json"), "-o", str(qfile))
    assert code == 0
    quiver_payload = json.loads(qfile.read_text())
    code1, direct = run(capsys, "check", path("star_rigid.json"))
    code2, again = run(capsys, "check", str(qfile))
    assert code1 == code2 == 0
    for key in ("verdict", "delta", "dim", "quiver"):
        assert direct[key] == again[key]


def test_build_quiver_example_iii_dot(tmp_path, capsys):
    dot = tmp_path / "q.dot"
    code, report = run(
        capsys, "build-quiver", path("example_iii.json"), "--dot", str(dot)
    )
    assert code == 0
    text = dot.read_text()
    assert text.count('"p0" -> "p1"') == 3
    assert text.count('"p0" -> "p2"') == 3
    assert text.count('"p0" -> "p3"') == 3
    assert text.count('"p1" -> "p2"') == 2
    assert text.count('"p1" -> "p3"') == 2
    assert text.count('"p2" -> "p3"') == 1
    assert "zeta" not in text
    code, _ = run(
        capsys, "build-quiver", path("example_iii.json"), "--dot", str(dot), "--dot-mode", "full"
    )
    assert "zeta" in dot.read_text()


def test_realize_and_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "real.json"
    code, report = run(
        capsys, "realize", path("star_rigid.json"), "--seed", "9", "--attempts", "10",
        "-o", str(out),
    )
    report = json.loads(out.read_text())
    assert code == 0 and report["success"]
    assert report["verification"]["all_ok"]

    instance = json.loads(open(path("star_rigid.json")).read())
    verify_input = tmp_path / "verify.json"
    verify_input.write_text(json.dumps({"instance": instance, "rep": report["rep"]}))
    code, vreport = run(capsys, "verify", str(verify_input))
    assert code == 0 and vreport["all_ok"]


def test_realize_seed_determinism(capsys):
    code1, r1 = run(capsys, "realize", path("star_rigid.json"), "--seed", "4", "--attempts", "5")
    code2, r2 = run(capsys, "realize", path("star_rigid.json"), "--seed", "4", "--attempts", "5")
    assert code1 == code2 == 0
    assert r1["rep"] == r2["rep"]


def test_realize_failure_exit_code(capsys):
    code, report = run(
        capsys, "realize", path("star_empty_cond2.json"), "--seed", "1", "--attempts", "3"
    )
    assert code == 1 and not report["success"]


def test_reduce_command(capsys):
    code, report = run(capsys, "reduce", path("reduce_example.json"))
    assert code == 0 and report["compatible"]
    # exponent of the packaged example: block-diagonal with known values
    expo = report["exponent"]
    # slot (0,0) of the exponent is 0.5 (see the generator script)
    assert abs(expo[0][0] - 0.5) < 1e-7
    n = 3
    off_block = expo[1 * n + 0]  # entry (1, 0) crosses blocks: must vanish
    assert abs(complex(off_block[0], off_block[1])) < 1e-7


def test_reduce_incompatible(tmp_path, capsys):
    data = json.loads(open(path("reduce_example.json")).read())
    # corrupt the leading coefficient
    data["jet"]["coeffs"][0][0] = [9.0, 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, report = run(capsys, "reduce", str(bad))
    assert code == 1 and not report["compatible"]


def test_reduce_rejects_a_jet_of_another_pole_order(tmp_path, capsys):
    # a usage error, not an incompatible jet
    data = json.loads(open(path("reduce_example.json")).read())
    data["jet"]["k"] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, report = run(capsys, "reduce", str(bad))
    assert code == 2 and "/jet/k" in report["error"]


def test_leg_command(capsys):
    code, report = run(capsys, "leg", path("leg_example.json"))
    assert code == 0 and report["ok"]
    # greedy: the nilpotent 2-block wins ties, then the simple eigenvalue
    assert report["marking"] == ["0", "0", "4"]
    assert report["leg_dimensions"] == [2, 1]
    assert "1>0" in report["maps"] and "2>1" in report["maps"]


def test_leg_reads_float_mode_from_payload(tmp_path, capsys):
    data = json.loads(open(path("leg_example.json")).read())
    for entry in data["orbit"]["eigenvalues"]:
        entry["value"] = float(entry["value"])
    src = tmp_path / "leg.json"
    src.write_text(json.dumps(data))
    code, report = run(capsys, "leg", str(src))
    assert code == 0 and report["marking"] == [[0.0, 0.0], [0.0, 0.0], [4.0, 0.0]]
    assert report["leg_dimensions"] == [2, 1]


def test_schema_error_pointer(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rank": 2, "infinity": {}}))
    code, report = run(capsys, "check", str(bad))
    assert code == 2
    assert "/infinity/irregular_type" in report["error"]


def test_error_on_missing_file(capsys):
    code, report = run(capsys, "check", "/nonexistent/xyz.json")
    assert code == 2 and "error" in report


def _star_rigid():
    return json.loads(open(path("star_rigid.json")).read())


def test_check_zero_denominator_is_an_error(tmp_path, capsys):
    data = _star_rigid()
    data["finite_poles"][0]["orbit"]["eigenvalues"][0]["value"] = "1/0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, report = run(capsys, "check", str(bad))
    assert code == 2
    assert "zero denominator" in report["error"]


def test_eigenvalues_that_round_together_are_a_named_error(tmp_path, capsys):
    # 1/5 and 1/5 + 1/(5*10^30) are distinct, so check decides the exact
    # instance; their doubles are equal, so the float commands refuse it
    data = _star_rigid()
    close = f"{10**30 + 1}/{5 * 10**30}"
    data["finite_poles"][0]["orbit"]["eigenvalues"][1]["value"] = close
    bad = tmp_path / "close.json"
    bad.write_text(json.dumps(data))
    code, report = run(capsys, "check", str(bad))
    assert code == 1 and report["verdict"] == "empty"
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps({"instance": data, "rep": {}}))
    for argv in (["realize", str(bad)], ["verify", str(witness)]):
        code, report = run(capsys, *argv)
        assert code == 2
        assert report["error"] == (
            f"ValueError: pole 0: eigenvalues 1/5 and {close} round to the same double, "
            "so the orbit has no float form")


BIG = "1" + "0" * 400


def _beyond_double(data, place):
    pole = data["finite_poles"][0]
    evs = pole["orbit"]["eigenvalues"]
    if place == "eigenvalue":
        evs[0]["value"], evs[1]["value"] = BIG, "-" + BIG
    elif place == "position":
        pole["position"] = BIG
    elif place == "marking":
        pole["orbit"]["marking"] = ["1/5", "19/30", BIG]
    elif place == "coefficient":
        data["infinity"]["irregular_type"]["blocks"][0]["coeffs"] = [BIG]
    else:  # each eigenvalue has a double, their zeta . v does not
        evs[0]["value"], evs[1]["value"] = str(15 * 10**307), str(16 * 10**307)


@pytest.mark.parametrize("place, verdict, error", [
    ("eigenvalue", "empty", f"pole 0: eigenvalue {-10**400}"),
    ("position", "nonempty", f"pole 0: position {10**400}"),
    ("marking", "nonempty", f"pole 0: marking entry {10**400}"),
    ("coefficient", "nonempty", f"irregular type: coefficient {10**400}"),
    ("zeta . v", "empty", f"zeta . v {Fraction(5, 6) - 31 * 10**307}"),
])
def test_exact_scalars_beyond_the_double_range_are_a_named_error(tmp_path, capsys, place,
                                                                  verdict, error):
    # check decides the exact instance, and the float commands refuse it
    # instead of raising OverflowError
    data = _star_rigid()
    _beyond_double(data, place)
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(data))
    code, report = run(capsys, "check", str(huge))
    assert code in (0, 1) and report["verdict"] == verdict
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps({"instance": data, "rep": {}}))
    for argv in (["realize", str(huge)], ["verify", str(witness)]):
        code, report = run(capsys, *argv)
        assert code == 2
        assert report["error"] == f"ValueError: {error} lies beyond the double range"


def _simple(values):
    return {"eigenvalues": [{"value": v, "blocks": [1]} for v in values]}


@pytest.mark.parametrize("data, dims", [
    ({"n": 2, "orbit": _simple(["2", BIG])}, [1]),
    ({"n": 2, "orbit": {"eigenvalues": [{"value": "0", "blocks": [2]}]},
      "matrix": ["0", BIG, "0", "0"]}, [1]),
    ({"n": 4, "orbit": _simple([str(10**100), "2", "3", "4"])}, [3, 2, 1]),
    ({"n": 4, "orbit": _simple([[k * 1e100, 0.0] for k in range(1, 5)])}, [3, 2, 1]),
    ({"n": 5, "orbit": _simple([[k * 1e80, 0.0] for k in range(1, 6)])}, [4, 3, 2, 1]),
], ids=["exact beyond double", "exact matrix beyond double", "exact 1e100", "float 1e100",
        "float 1e80"])
def test_leg_reads_large_eigenvalues(data, dims, tmp_path, capsys):
    # the float norms of exact entries beyond the double range read as
    # inf, and the marking check reads ranks rather than a product
    # tested against a power of the norm, which overflowed
    code, report = _run_on(data, tmp_path, capsys, "leg")
    assert code == 0 and report["ok"] and report["leg_dimensions"] == dims


def test_leg_rejects_a_marking_of_values_within_the_cutoff(tmp_path, capsys):
    # 1 and 1 + 1e-12 read the same kernel of diag(1, 2); the product of
    # the marking, (L - 1)(L - 1 - 1e-12), still has rank 1
    data = {"n": 2, "orbit": _simple([[1.0, 0.0], [1.000000000001, 0.0]]),
            "matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]}
    code, report = _run_on(data, tmp_path, capsys, "leg")
    assert code == 1 and not report["ok"]
    assert report["detail"] == "invalid marking: the shifted product does not annihilate"


def _leg_with_matrix(diagonal, floats):
    """leg_exact_matrix.json's orbit, {0: [2], 4: [1]}, with the matrix
    diag(`diagonal`), exact or in floats."""
    data = json.loads(open(path("leg_exact_matrix.json")).read())
    entries = [str(diagonal[i]) if i == j else "0" for i in range(3) for j in range(3)]
    if floats:
        for e in data["orbit"]["eigenvalues"]:
            e["value"] = [float(e["value"]), 0.0]
        entries = [[float(x), 0.0] for x in entries]
    return dict(data, matrix=entries)


@pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
@pytest.mark.parametrize("diagonal, walked", [((0, 0, 0), []), ((0, 0, 4), [1, 1])],
                         ids=["zero", "diag(0, 0, 4)"])
def test_leg_rejects_a_matrix_outside_its_orbit(diagonal, walked, floats, tmp_path, capsys):
    # the marking (0, 0, 4) annihilates both matrices, but the ranks of
    # its partial products are not the orbit's [2, 1]
    code, report = _run_on(_leg_with_matrix(diagonal, floats), tmp_path, capsys, "leg")
    assert code == 1 and not report["ok"]
    assert report["detail"] == ("the matrix is not in the declared orbit: its leg dimensions "
                                f"are {walked}, the orbit's are [2, 1]")


def test_leg_rejects_an_orbit_of_values_within_the_cutoff(tmp_path, capsys):
    # 0 and 1e-9 lie within the rank cutoff of each other, so the normal
    # form's first partial product already reads as zero
    data = {"n": 2, "orbit": _simple([[0.0, 0.0], [1e-9, 0.0]])}
    code, report = _run_on(data, tmp_path, capsys, "leg")
    assert code == 1 and not report["ok"]
    assert report["detail"] == ("the matrix is not in the declared orbit: its leg dimensions "
                                "are [], the orbit's are [1]")


def test_leg_refuses_a_chain_that_overflows(tmp_path, capsys):
    # the first shift, -1.7e308, takes the normal form's entry 1.7e308 to inf
    data = {"n": 3, "orbit": _simple([[-1.7e308, 0.0], [0.0, 0.0], [1.7e308, 0.0]])}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warning
        code, report = _run_on(data, tmp_path, capsys, "leg")
    assert (code, report) == (1, {"ok": False, "detail": "step 1 of the product chain is not "
                                                         "finite", "schema_version": 1})


@pytest.mark.parametrize("entry", [1e300, 1e308])
def test_leg_rejects_a_large_matrix_outside_its_orbit(entry, tmp_path, capsys):
    # every entry is `entry`, so the matrix has rank 1 and is not the zero
    # matrix of the orbit; at 1e308 its norm overflows, which read every
    # rank as 0 while the ranks were read unscaled
    data = {"n": 2, "orbit": {"eigenvalues": [{"value": [0.0, 0.0], "blocks": [1, 1]}]},
            "matrix": [[entry, 0.0]] * 4}
    code, report = _run_on(data, tmp_path, capsys, "leg")
    assert code == 1 and not report["ok"]


def _reduce_beyond_double(scaled):
    """reduce_exact.json with its type and leading coefficient times
    10^400, or else with its first "-1" (the type's) as -10^400."""
    data = json.loads(open(path("reduce_exact.json")).read())
    blocks, lead = data["irregular_type"]["blocks"], data["jet"]["coeffs"][0]
    if scaled:
        for b in blocks:
            b["coeffs"] = [c if c == "0" else c + BIG[1:] for c in b["coeffs"]]
        data["jet"]["coeffs"][0] = [c if c == "0" else c + BIG[1:] for c in lead]
    else:
        blocks[1]["coeffs"] = ["-" + BIG]
    return data


def test_reduce_reads_exact_scalars_beyond_the_double_range(tmp_path, capsys):
    # exact reduction needs no float norm; its error text prints one
    code, report = _run_on(_reduce_beyond_double(True), tmp_path, capsys, "reduce")
    assert code == 0 and report["compatible"]
    assert report["exponent"] == ["0", "0", "0", "1/2"]
    code, report = _run_on(_reduce_beyond_double(False), tmp_path, capsys, "reduce")
    assert code == 1 and not report["compatible"]
    assert report["detail"] == "slot 0 differs from its expected value (residual inf)"


def test_realize_reports_the_exact_mode_error(tmp_path, capsys):
    # an all-exact file is parsed once, in exact mode: its own error
    # stands and no float-mode parse (with its warning) follows
    data = _star_rigid()
    data["finite_poles"][0]["orbit"]["eigenvalues"][1]["blocks"] = [2]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report = run(capsys, "realize", str(bad), "--attempts", "1")
    assert code == 2
    assert "sum to 3, expected n=2" in report["error"]


def test_float_payload_is_parsed_in_float_mode(tmp_path, capsys):
    data = _star_rigid()
    data["finite_poles"][0]["position"] = [1.0, 0.0]
    floats = tmp_path / "float.json"
    floats.write_text(json.dumps(data))
    with pytest.warns(UserWarning, match="float irregular-type"):
        code, report = run(capsys, "build-quiver", str(floats))
    assert code == 0 and report["dims"] == {"p0": 1, "p1": 1, "t0.1": 1}


def _strict(text):
    """The report, parsed as strict JSON: a NaN or Infinity token fails."""
    def refuse(token):
        raise AssertionError(f"the report holds the non-JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def _run_on(data, tmp_path, capsys, *argv):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(data))  # writes NaN and Infinity as Python's json does
    code = main([*argv, str(src)])
    return code, _strict(capsys.readouterr().out)


def _float_star(first, second):
    """star_rigid.json with float pole eigenvalues `first` and `second`."""
    data = _star_rigid()
    evs = data["finite_poles"][0]["orbit"]["eigenvalues"]
    evs[0]["value"], evs[1]["value"] = [first, 0.0], [second, 0.0]
    return data


@pytest.mark.parametrize("where, command", [
    ("position", ["realize", "--seed", "1"]), ("eigenvalue", ["build-quiver"])],
    ids=["position-realize", "eigenvalue-build-quiver"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_scalar_is_an_input_error(where, command, value, tmp_path, capsys):
    # a NaN pole position used to realize with success; an infinite
    # eigenvalue used to build a quiver with Infinity and NaN in zeta
    data = _star_rigid()
    if where == "position":
        data["finite_poles"][0]["position"] = [value, 0.0]
    else:
        data["finite_poles"][0]["orbit"]["eigenvalues"][0]["value"] = [value, 0.0]
    code, report = _run_on(data, tmp_path, capsys, *command)
    assert code == 2
    assert report["error"] == f"ValueError: scalar [{value}, 0.0] is not a finite float"


def test_an_integer_beyond_the_float_range_is_an_input_error(tmp_path, capsys):
    # one [re, im] pair puts the file in float mode, where an integer of
    # 401 digits has no double; converting it used to raise OverflowError
    data = _star_rigid()
    data["finite_poles"][0]["position"] = [1.0, 0.0]
    data["finite_poles"][0]["orbit"]["eigenvalues"][0]["value"] = 10**400
    code, report = _run_on(data, tmp_path, capsys, "build-quiver")
    assert code == 2
    assert report["error"] == f"ValueError: scalar {10**400} is not a finite float"


@pytest.mark.parametrize("command", [["build-quiver"], ["realize", "--seed", "1"]],
                         ids=["build-quiver", "realize"])
def test_a_zeta_beyond_the_float_range_is_an_input_error(command, tmp_path, capsys):
    # finite eigenvalues +-1e308 make zeta_{t0.1} = 2e308 overflow
    code, report = _run_on(_float_star(1e308, -1e308), tmp_path, capsys, *command)
    assert code == 2
    assert report["error"] == (
        "ValueError: zeta or zeta . v is not finite: the scalars overflow floating point")


def test_a_non_finite_restart_residual_is_written_as_null(tmp_path, capsys):
    # zeta is finite at +-1e200, but every restart's cost overflows
    with np.errstate(all="ignore"):
        code, report = _run_on(_float_star(1e200, -1e200), tmp_path, capsys,
                               "realize", "--seed", "1", "--attempts", "3")
    assert code == 1 and report["residual"] is None
    assert [r["residual"] for r in report["stats"]["attempts"]] == [None] * 3


def _star_witness(entry, capsys):
    """The realize --seed 1 witness of star_rigid.json, with the first
    entry of t0.1>p0's forward map replaced."""
    main(["realize", "--seed", "1", path("star_rigid.json")])
    rep = json.loads(capsys.readouterr().out)["rep"]
    rep["maps"]["t0.1>p0"]["fwd"][0] = entry
    return {"instance": _star_rigid(), "rep": rep}


def test_a_non_finite_witness_entry_is_an_input_error(tmp_path, capsys):
    # it used to die in the SVD with an unnamed LinAlgError
    code, report = _run_on(_star_witness([math.nan, 0.0], capsys), tmp_path, capsys, "verify")
    assert code == 2
    assert report["error"] == "ValueError: scalar [nan, 0.0] is not a finite float"


def test_an_infinite_moment_residual_fails_its_check(tmp_path, capsys):
    # a finite entry of 1e308 makes the residual and its scale both inf,
    # and inf <= rtol * inf used to pass the check
    with np.errstate(all="ignore"):
        code, report = _run_on(_star_witness([1e308, 0.0], capsys), tmp_path, capsys, "verify")
    checks = {c["name"]: c for c in report["checks"]}
    assert code == 1 and not report["all_ok"]
    assert checks["moment_residual"] == {"name": "moment_residual", "ok": False, "detail": "inf"}


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--seed", "1"),
        ("check", "--dot", "{dot}"),
        ("leg", "--dot", "{dot}"),
        ("leg", "--exact"),
        ("realize", "--exact"),
        ("realize", "--tolerance", "1e-3"),
        ("verify", "--float"),
    ],
)
def test_unread_option_is_rejected(argv, tmp_path, capsys):
    dot = tmp_path / "x.dot"
    command, *options = (a.format(dot=dot) for a in argv)
    with pytest.raises(SystemExit) as exc:
        main([command, path("star_rigid.json"), *options])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not dot.exists()


def test_condition_one_honours_the_budget(tmp_path, capsys):
    # real roots of huge height: the reflection walk of condition 1 would take
    # about k steps, so the budget must stop it before the enumeration starts
    k = 10**19
    kronecker = (["1", "2"], [["a", "1", "2"], ["b", "1", "2"]], [k, k + 1])
    d4 = (["c", "a", "b", "d", "e"],
          [["x", "a", "c"], ["y", "b", "c"], ["z", "d", "c"], ["u", "e", "c"]],
          [2 * k, k, k, k, k + 1])
    for vertices, arrows, dims in (kronecker, d4):
        src = tmp_path / "quiver.json"
        src.write_text(json.dumps({
            "vertices": vertices, "arrows": arrows,
            "dims": dict(zip(vertices, dims)), "zeta": {v: "0" for v in vertices}}))
        start = time.perf_counter()
        code, report = run(capsys, "check", str(src), "--max-decompositions", "1000")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and report["verdict"] == "undecided"
        assert report["detail"].startswith("enumeration budget of 1000 exhausted")


def test_the_budget_bounds_the_decomposition_dp(tmp_path, capsys):
    # nilpotent 6x4 at seed 5 with zeta 1 and -1 at two legs and 0 elsewhere:
    # its enumeration fits 10 000, but the DP tries 10 351 parts
    ladder = bench_ladder()
    src = tmp_path / "n6x4.json"
    rung = ladder.Rung("n6x4k2", "nilpotent", 6, 4, 2, "nonempty")
    src.write_text(json.dumps(ladder.problem(rung, 5)))
    code, report = run(capsys, "build-quiver", str(src))
    report["zeta"] |= {"t0.1": "1", "t1.1": "-1"}
    src.write_text(json.dumps(report))
    code, report = run(capsys, "check", str(src), "--max-decompositions", "10000")
    assert code == 2 and report["verdict"] == "undecided"
    assert report["detail"] == (
        "enumeration budget of 10000 exhausted: the condition-3 DP needs more part checks")
    code, report = run(capsys, "check", str(src), "--max-decompositions", "10351")
    assert code == 0 and report["verdict"] == "nonempty" and report["dim"] == 38
    assert report["stats"] == {"candidates": 433, "search_states": 565}


def test_check_reports_a_condition3_witness(tmp_path, capsys):
    # nilpotent 4x2 at seed 1 fails condition 3; the witness is reported by
    # vertex name, and the raw build-quiver payload gives the same one
    ladder = bench_ladder()
    rung = next(r for r in ladder.WORKLOADS["check-degenerate"][1] if r.name == "n4x2k2")
    src = tmp_path / "n4x2.json"
    src.write_text(json.dumps(ladder.problem(rung, 1)))
    code, report = run(capsys, "check", str(src))
    assert code == 1 and report["verdict"] == "empty" and report["failed_condition"] == 3
    assert report["witness"] == [{"p0": 1, "p1": 1, "t0.1": 1, "t1.1": 1}] * 2
    quiver, dims, zeta = quiver_from_json(report["quiver"])
    cartan = CartanData.from_quiver(quiver)
    parts = [cartan.vec(dict.fromkeys(quiver.vertices, 0) | part) for part in report["witness"]]
    assert [sum(col) for col in zip(*parts)] == list(cartan.vec(dims))
    for w in parts:
        assert reflection_is_positive_root(cartan, w)
        assert sum((zeta[u] * x for u, x in zip(cartan.vertices, w)), G(0)) == 0
    assert sum(map(cartan.delta, parts)) >= report["delta"]
    raw = tmp_path / "quiver.json"
    assert run(capsys, "build-quiver", str(src), "-o", str(raw))[0] == 0
    code, again = run(capsys, "check", str(raw))
    assert code == 1 and again["witness"] == report["witness"]


def reflection_problems():
    """(name, problem) of the check rungs at seeds 1 and 2, the realize-
    infeasible rungs (condition 2 fails) at seed 1, and four mixed-zeta
    rungs."""
    ladder = bench_ladder()
    for workload, seeds in (("check-generic", (1, 2)), ("check-degenerate", (1, 2)),
                            ("realize-infeasible", (1,))):
        for rung in ladder.WORKLOADS[workload][1]:
            for seed in seeds:
                yield f"{rung.name}-{seed}", ladder.problem(rung, seed)
    for name, n, poles in (("n4x6k2", 4, 6), ("n6x4k2", 6, 4), ("n4x3k2", 4, 3), ("n6x2k2", 6, 2)):
        rung = ladder.Rung(name, "nilpotent", n, poles, 2, "nonempty")
        yield f"{name}-mixed", mixed_zeta_problem(ladder, rung, 1)


def test_check_is_invariant_under_admissible_reflections(tmp_path, capsys):
    # Crawley-Boevey--Holland (Duke 1998): at a loop-free vertex i with
    # zeta_i != 0, the reflection (v, zeta) -> (s_i v, r_i zeta), with
    # s_i v = v - (v, e_i) e_i and (r_i zeta)_j = zeta_j - (e_i, e_j) zeta_i,
    # maps the points of mu^-1(zeta) to those of mu^-1(r_i zeta) with their
    # moduli dimension; so where s_i v >= 0, check reads the raw payload of
    # either alike.  The criterion's quivers are loop-free.
    src = tmp_path / "problem.json"
    reflected = seen = 0

    def check(payload):
        src.write_text(json.dumps(payload))
        code, report = run(capsys, "check", str(src))
        return code, report["verdict"], report.get("failed_condition"), report.get("dim")

    for name, problem in reflection_problems():
        src.write_text(json.dumps(problem))
        code, payload = run(capsys, "build-quiver", str(src))
        assert code == 0
        want, seen = check(payload), seen + 1
        arrows = [(a[1], a[2]) for a in payload["arrows"]]
        vertices, dims = payload["vertices"], payload["dims"]
        zeta = {j: parse_exact(z) for j, z in payload["zeta"].items()}

        def form(i, j):
            return 2 * (i == j) - sum(a in ((i, j), (j, i)) for a in arrows)

        for i in vertices:
            v_ei = sum(dims[j] * form(i, j) for j in vertices)
            if not zeta[i] or dims[i] < v_ei:
                continue
            payload_i = dict(payload, dims=dims | {i: dims[i] - v_ei},
                             zeta={j: format_exact(zeta[j] - form(i, j) * zeta[i]) for j in vertices})
            assert check(payload_i) == want, (name, i)
            reflected += 1
    assert (seen, reflected) == (43, 218)


def _double_arrow(dims, zeta):
    return {"vertices": ["a", "b"], "arrows": [["x", "a", "b"], ["y", "a", "b"]],
            "dims": dims, "zeta": zeta}


def _int_residue_blocks():
    data = _star_rigid()
    data["infinity"]["residue_blocks"] = [5] * len(data["infinity"]["residue_blocks"])
    return data


@pytest.mark.parametrize(
    "payload",
    [
        # build-quiver writes float zeta as [re, im] pairs; check needs exact zeta
        _double_arrow({"a": 1, "b": 1}, {"a": [0.5, 0.0], "b": [-0.5, 0.0]}),
        # a float or boolean dimension is rejected, not rounded
        _double_arrow({"a": 1.9, "b": 1}, {"a": "0", "b": "0"}),
        _double_arrow({"a": True, "b": 1}, {"a": "0", "b": "0"}),
        _double_arrow([1, 1], {"a": "0", "b": "0"}),
        ["vertices"],
        _int_residue_blocks(),
    ],
    ids=["raw-float-zeta", "raw-float-dims", "raw-bool-dims", "raw-dims-list",
         "top-level-array", "int-residue-block"],
)
def test_malformed_check_payload_is_an_error(payload, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, report = run(capsys, "check", str(bad))
    assert code == 2
    assert "error" in report


@pytest.mark.parametrize("command", ["check", "build-quiver", "realize"])
@pytest.mark.parametrize("where, value", [
    (("finite_poles", 0, "orbit", "eigenvalues", 0, "blocks", 0), 1.9),
    (("finite_poles", 0, "orbit", "eigenvalues", 0, "blocks", 0), "1"),
    (("finite_poles", 0, "orbit", "eigenvalues", 0, "blocks", 0), True),
    (("infinity", "residue_blocks", 1, "eigenvalues", 0, "blocks", 0), True),
    (("infinity", "irregular_type", "blocks", 0, "mult"), True),
    (("finite_poles", 0, "orbit", "eigenvalues"), [{"value": "1/5", "blocks": [1]},
                                                   {"value": "19/30", "blocks": [1]},
                                                   {"value": "7", "blocks": []}]),
], ids=["float-block", "string-block", "bool-block", "bool-residue-block", "bool-mult",
        "eigenvalue-without-blocks"])
def test_a_malformed_integer_field_is_an_error(command, where, value, tmp_path, capsys):
    # a block size or multiplicity that is not a JSON integer is rejected,
    # not coerced (a float one would also switch realize to float mode), and
    # so is an eigenvalue with no block at all
    data = _star_rigid()
    *keys, last = where
    target = data
    for key in keys:
        target = target[key]
    target[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, report = run(capsys, command, str(bad))
    assert code == 2
    assert "error" in report


def test_every_problem_file_has_golden_reports():
    problems = sorted(name for name in os.listdir(DATA)
                      if "rank" in json.loads(open(path(name)).read()))
    assert sorted({case.split()[0] for case in REPORTS}) == problems


@pytest.mark.parametrize("case", sorted(REPORTS))
def test_exact_report_is_unchanged(case, capsys):
    # check and build-quiver reports byte for byte as recorded
    name, command = case.split()
    code = main([command, path(name)])
    assert (capsys.readouterr().out, code) == (REPORTS[case]["stdout"], REPORTS[case]["exit"])


@pytest.mark.parametrize("case", sorted(MATRIX_REPORTS))
def test_exact_matrix_report_is_unchanged(case, capsys):
    # leg and reduce on exact matrix payloads, byte for byte as recorded:
    # the exact branch of matrix_from_json, and the exact stage loop of
    # normalize (leg dimensions [2, 1]; exponent diag(0, 1/2))
    name, command = case.split()
    code = main([command, path(name)])
    want = MATRIX_REPORTS[case]
    assert (capsys.readouterr().out, code) == (want["stdout"], want["exit"])


def test_main_keeps_no_state_between_in_process_calls(capsys):
    # an option value of one call does not carry into the next: a capped
    # check followed by a default one reports what a lone default run does
    f = path("example_iii.json")
    fresh = run(capsys, "check", f)
    code, capped = run(capsys, "check", f, "--max-decompositions", "1")
    assert code == 2 and capped["verdict"] == "undecided"
    after = run(capsys, "check", f)
    assert after == fresh and after[1]["verdict"] != "undecided"


@pytest.fixture(scope="module")
def witness(tmp_path_factory):
    """A verify input holding a realized star_rigid witness that verifies."""
    tmp = tmp_path_factory.mktemp("witness")
    real, ok, verify_input = tmp / "real.json", tmp / "ok.json", tmp / "verify.json"
    assert main(["realize", path("star_rigid.json"), "--seed", "9", "-o", str(real)]) == 0
    instance = json.loads(open(path("star_rigid.json")).read())
    rep = json.loads(real.read_text())["rep"]
    verify_input.write_text(json.dumps({"instance": instance, "rep": rep}))
    assert main(["verify", str(verify_input), "-o", str(ok)]) == 0
    return str(verify_input)


def _rank_n_problem(tmp_path, n):
    """A rank-n problem whose quiver is about 2n vertices on two type-A
    legs: one finite pole with the nilpotent orbit of one block [n], and
    at k = 2 two blocks at infinity of multiplicities n - 1 and 1, the
    exponent orbits nilpotent with the single blocks [n - 1] and [1]."""
    data = {"rank": n, "finite_poles": [{"position": "1", "orbit": {
                "eigenvalues": [{"value": "0", "blocks": [n]}]}}],
            "infinity": {"irregular_type": {"k": 2, "blocks": [
                {"mult": n - 1, "coeffs": ["3"]}, {"mult": 1, "coeffs": ["1"]}]},
                "residue_blocks": [{"eigenvalues": [{"value": "0", "blocks": [n - 1]}]},
                                   {"eigenvalues": [{"value": "0", "blocks": [1]}]}]}}
    f = tmp_path / f"rank{n}.json"
    f.write_text(json.dumps(data))
    return str(f)


def _address_space_2gib():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_check_decides_rank_1000_in_bounded_time_and_memory(tmp_path):
    # 1 999 vertices and 1 998 arrows: the criterion reads each vertex's
    # arrow counts, never an m x m form
    done = run_fresh("-m", "dsirr.cli", "check", _rank_n_problem(tmp_path, 1000),
                     preexec_fn=_address_space_2gib)
    report = _strict(done.stdout)
    assert (done.returncode, report["verdict"], report["failed_condition"], report["delta"]) == (
        1, "empty", 3, 0)
    assert len(report["quiver"]["dims"]) == 1999


def test_a_payload_nested_too_deep_is_an_error(tmp_path, capsys):
    # json.load raises RecursionError, which is no verdict's exit code;
    # stderr keeps where it was raised
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    code = main(["check", str(tmp_path / "deep.json")])
    out, err = capsys.readouterr()
    assert code == 2 and json.loads(out)["error"].startswith("RecursionError: ")
    assert err.startswith("Traceback") and "RecursionError" in err


def test_running_out_of_memory_is_an_error(tmp_path):
    # realize's moment plan for rank 1000 asks for tens of TiB
    done = run_fresh("-m", "dsirr.cli", "realize", "--seed", "1",
                     _rank_n_problem(tmp_path, 1000), preexec_fn=_address_space_2gib)
    assert done.returncode == 2 and "MemoryError" in _strict(done.stdout)["error"]
    assert "Traceback" in done.stderr


def test_verify_answers_a_witness_whose_maps_overflow(tmp_path, capsys):
    # a reverse map of 1e308 makes the residue at t1 infinite; the SVD
    # of its orbit test, a Jordan block of size 2, never returned
    f = path("ladder_n4x3k2_seed1.json")
    code, real = run(capsys, "realize", f, "--seed", "1")
    assert code == 0
    real["rep"]["maps"]["t1.1>p0"]["rev"][0] = [1e308, 1e308]
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps({"instance": json.loads(open(f).read()), "rep": real["rep"]}))
    done = run_fresh("-m", "dsirr.cli", "verify", str(witness))
    report = _strict(done.stdout)
    assert done.returncode == 1 and not report["all_ok"]
    ok = {c["name"]: c["ok"] for c in report["checks"]}
    assert not ok["moment_residual"] and not ok["residue_orbit_t1"]


@pytest.mark.parametrize("coeff", ["1000000000001/1000000000000",
                                   "100000000000000000001/100000000000000000000"])
def test_an_irregular_type_with_no_float_form_is_an_error(coeff, witness, tmp_path, capsys):
    # the other block's coefficient is 1: distinct exactly, equal as float
    # coefficients, so realize and verify have no float type to work on
    # and exit 2, as the float payload of the same doubles does; check
    # reads the exact type
    data = json.loads(open(path("star_rigid.json")).read())
    data["infinity"]["irregular_type"]["blocks"][0]["coeffs"] = [coeff]
    src, pair = tmp_path / "star.json", tmp_path / "witness.json"
    src.write_text(json.dumps(data))
    pair.write_text(json.dumps(dict(json.loads(open(witness).read()), instance=data)))
    error = ("ValueError: irregular type: the largest s with c_s differing between blocks 0 "
             "and 1 is 1, and 0 in floats; the type has no float form")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(capsys, "check", str(src))[0] == 0
        for argv in (["realize", str(src), "--seed", "1"], ["verify", str(pair)]):
            assert run(capsys, *argv) == (2, {"error": error, "schema_version": 1})
    for block in data["infinity"]["irregular_type"]["blocks"]:
        block["coeffs"] = [[float(Fraction(block["coeffs"][0])), 0.0]]
    src.write_text(json.dumps(data))
    with pytest.warns(UserWarning, match="float irregular-type coefficients"):
        assert run(capsys, "realize", str(src), "--seed", "1") == (2, {
            "error": "ValueError: blocks must be pairwise distinct as polynomials",
            "schema_version": 1})


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
def test_verify_rejects_a_meaningless_tolerance(tolerance, witness, capsys):
    # a usage error, not a falsified witness
    code, report = run(capsys, "verify", witness, "--tolerance", tolerance)
    assert code == 2
    assert "tolerance" in report["error"]


@pytest.mark.parametrize("dim", [1.5, True, "1"], ids=["float", "bool", "string"])
def test_verify_rejects_a_witness_dimension_that_is_no_json_integer(dim, witness, tmp_path,
                                                                     capsys):
    # star_rigid has v_p0 = 1: each of these once coerced to 1 and verified
    data = json.loads(open(witness).read())
    assert data["rep"]["dims"]["p0"] == 1
    data["rep"]["dims"]["p0"] = dim
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, report = run(capsys, "verify", str(bad))
    assert code == 2
    assert report["error"] == (
        f"ValueError: dimension at vertex p0 must be a JSON integer, got {dim!r}")


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
def test_reduce_rejects_a_meaningless_tolerance(tolerance, capsys):
    code, report = run(capsys, "reduce", path("reduce_example.json"), "--tolerance", tolerance)
    assert code == 2
    assert "tolerance" in report["error"]


@pytest.mark.parametrize("name", ["star_rigid.json", "example_iii.json"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_check_rejects_a_budget_below_one(name, budget, capsys):
    code, report = run(capsys, "check", path(name), "--max-decompositions", budget)
    assert code == 2
    assert "at least 1" in report["error"]


@pytest.mark.skipif(sys.version_info[:2] != tuple(GOLDEN["python"]),
                    reason="argparse words its help and errors differently across Python versions")
@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: " ".join(c["argv"]) or "no-args")
def test_cli_text_is_unchanged(case, monkeypatch, capsys):
    # help, usage and error text byte for byte as recorded, at a pinned width
    monkeypatch.setenv("COLUMNS", str(GOLDEN["columns"]))
    try:
        code = main([a.format(star=path("star_rigid.json")) for a in case["argv"]])
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    assert (out, err, code) == (case["stdout"], case["stderr"], case["code"])


@pytest.fixture
def parsers_built(monkeypatch):
    """The prog of every argparse.ArgumentParser built, subparsers included."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


PLAIN_CALLS = [
    ("check", "star_rigid.json"), ("build-quiver", "star_rigid.json"),
    ("realize", "star_rigid.json"), ("verify", None),
    ("reduce", "reduce_example.json"), ("leg", "leg_example.json"),
]


@pytest.mark.parametrize("command,input_name", PLAIN_CALLS)
def test_a_plain_call_builds_no_parser(command, input_name, witness, parsers_built, capsys):
    # the option specs are read directly, on this call and the next
    argv = [command, path(input_name) if input_name else witness]
    for _ in range(2):
        assert main(argv) == 0
        assert parsers_built == []
    capsys.readouterr()


WHOLE_TREE = ["dsirr"] + [f"dsirr {name}" for name in COMMANDS]


@pytest.mark.parametrize("command,input_name", PLAIN_CALLS)
def test_an_argv_only_argparse_reads_builds_the_whole_tree(command, input_name, witness,
                                                           parsers_built, tmp_path, capsys):
    # an abbreviation, or an = form, is left to argparse: the top-level
    # parser and one subparser per command, and the report still written
    src = path(input_name) if input_name else witness
    calls = [[command, src, "--out", str(tmp_path / "report.json")]]
    if command == "realize":
        calls.append([command, src, "--seed=1"])
    for argv in calls:
        assert main(argv) == 0
        assert parsers_built == WHOLE_TREE
        parsers_built.clear()
    assert json.loads((tmp_path / "report.json").read_text())["schema_version"] == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["-h"], [], ["bogus", "x.json"], ["check", "x.json", "--bogus"]],
                         ids=lambda argv: " ".join(argv) or "no-args")
def test_help_and_errors_build_the_whole_tree(argv, parsers_built, capsys):
    # the top-level parser and one subparser per command, and no other
    with pytest.raises(SystemExit):
        main(argv)
    assert parsers_built == WHOLE_TREE
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["check", "star_rigid.json"],
                                  ["realize", "star_rigid.json", "--seed", "9"]])
def test_a_dash_report_path_is_stdout(argv, tmp_path, monkeypatch, capsys):
    # as '-' is stdin for the input, `-o -` prints the report and leaves
    # no file named '-' behind
    argv = [argv[0], path(argv[1]), *argv[2:]]
    monkeypatch.chdir(tmp_path)

    def printed(*extra):
        return main([*argv, *extra]), capsys.readouterr().out

    expected = printed()
    assert expected[0] == 0
    assert printed("-o", "-") == printed("--output", "-") == expected
    assert os.listdir(tmp_path) == []


def test_console_script_path_matches_in_process_main(monkeypatch, capsys):
    # argv=None reads sys.argv, in a fresh interpreter and in this one
    argv = ["check", path("star_rigid.json")]
    done = run_fresh("-m", "dsirr.cli", *argv)
    expected = run(capsys, *argv)
    assert (done.returncode, json.loads(done.stdout)) == expected
    monkeypatch.setattr(sys, "argv", ["dsirr", *argv])
    code = main()
    assert (code, json.loads(capsys.readouterr().out)) == expected


def test_a_closed_stdout_is_an_error_without_a_traceback():
    # the report is lost, as to an unwritable -o path: exit 2, and the
    # BrokenPipeError neither escapes main nor recurs at exit
    proc = subprocess.Popen([sys.executable, "-m", "dsirr.cli", "check", path("star_rigid.json")],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=SRC_ENV)
    proc.stdout.close()
    _, err = proc.communicate(timeout=HANG_TIMEOUT)
    assert (proc.returncode, err) == (2, b"")


# runs main on its argv and lists which of argparse and gettext it imported
IMPORT_PROBE = ("import sys\nfrom dsirr.cli import main\ncode = main(sys.argv[1:])\n"
                "print(sorted({'argparse', 'gettext'} & set(sys.modules)), file=sys.stderr)\n"
                "sys.exit(code)")


def test_a_fresh_plain_call_imports_no_argparse(capsys):
    # a plain call in a fresh interpreter loads neither argparse nor the
    # gettext its messages go through; -h still prints argparse's help
    env = dict(os.environ, PYTHONPATH=os.path.join(TESTS, os.pardir, "src"),
               COLUMNS=str(GOLDEN["columns"]))
    argv = ["check", path("star_rigid.json")]
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, json.loads(done.stdout)) == run(capsys, *argv)
    assert done.stderr == "[]\n"
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, "check", "-h"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    if sys.version_info[:2] == tuple(GOLDEN["python"]):
        (case,) = [c for c in GOLDEN["cases"] if c["argv"] == ["check", "-h"]]
        assert done.stdout == case["stdout"]


@pytest.mark.parametrize("argv", [["check", "star_rigid.json"],
                                  ["realize", "star_rigid.json", "--seed", "9"]])
def test_an_unwritable_report_path_is_an_error(argv, capsys):
    # both verdicts here are exit 0 with a report to write; losing the
    # report is exit 2 with the error on stdout, never exit 1, "empty"
    argv = [argv[0], path(argv[1]), *argv[2:]]
    assert run(capsys, *argv)[0] == 0
    missing = os.path.join(TESTS, "no such directory", "report.json")
    code, report = run(capsys, *argv, "-o", missing)
    assert code == 2
    assert report == {"error": f"FileNotFoundError: [Errno 2] No such file or directory: "
                               f"{missing!r}", "schema_version": 1}
    assert not os.path.exists(os.path.dirname(missing))


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    """One run of tests/report_sweep.py: the module, its cases and every
    report the CLI wrote for them."""
    import report_sweep

    reports = []

    def recorded(report):
        reports.append(report)
        return report_text(report)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsirr.cli, "report_text", recorded)
        cases = report_sweep.sweep(tmp_path_factory.mktemp("sweep"))
    return report_sweep, cases, reports


def test_the_report_writer_matches_json_dumps_on_every_sweep_report(sweep_run):
    _, cases, reports = sweep_run
    assert len(reports) == len(cases) > 600
    for report in reports:
        assert report_text(report) == json.dumps(report, indent=2, sort_keys=True)


def test_the_machine_independent_sweep_reports_match_their_digests(sweep_run):
    # regenerate with: python tests/report_sweep.py --digests tests/golden/sweep_exact.json
    report_sweep, cases, _ = sweep_run
    with open(os.path.join(TESTS, "golden", "sweep_exact.json"), encoding="utf-8") as f:
        golden = json.load(f)
    got = report_sweep.exact_digests(cases)
    assert len(golden) > 400
    differ = sorted(name for name in golden.keys() | got.keys() if golden.get(name) != got.get(name))
    assert not differ, differ


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": [], "b": {}, "c": ()}, [[], [{}], {"d": [[]]}],
    [math.nan, math.inf, -math.inf, -0.0, 1e-7, 1e300, 0.1, np.float64(2.5), np.float64(math.nan)],
    ["caf\u00e9 \u2603 \U0001f600", "tab\tnew\nline\x00\x1f\x7f", '"quoted" \\ /', "\ud800"],
    {"b": 1, "a": (1, (2, [3])), "c": {"z": None, "y": True, "x": False}},
    {2: "int", 1.5: "float", -1: "negative"}, {True: 1, False: 0}, {None: "null"},
    {math.inf: 1, -math.inf: 2}, {np.float64(0.5): "np"}, {"\u00e9": 1, "e": 2},
    "text", 7, 2**70, -0.0, None, True, False,
], ids=repr)
def test_the_report_writer_edge_cases(value):
    assert report_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    object(), {"a": {1, 2}}, [np.int64(3)], {(1, 2): "tuple key"}, {"a": 1, 2: "mixed keys"},
    [1j],
], ids=repr)
def test_the_report_writer_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError) as want:
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        report_text(value)
    assert str(got.value) == str(want.value)




# ---------------------------------------------------------------------------
# malformed payloads: each is an error (exit 2) that names where it sits,
# never a verdict, a bare exception or a traceback

DROP = object()  # as a new value: drop the key


def _edited(doc, where, value):
    """A copy of doc with the node at the key path `where` set to value (an
    index one past a list's end appends it)."""
    doc = copy.deepcopy(doc)
    *keys, last = where
    target = doc
    for key in keys:
        target = target[key]
    if value is DROP:
        del target[last]
    elif isinstance(target, list) and last == len(target):
        target.append(value)
    else:
        target[last] = value
    return doc


def _payload_run(capsys, tmp_path, command, doc):
    """(exit code, report, stderr) of `command` on the payload doc."""
    src = tmp_path / "payload.json"
    src.write_text(json.dumps(doc))
    code = main([command, str(src)])
    out, err = capsys.readouterr()
    return code, json.loads(out), err


@pytest.fixture(scope="module")
def payloads(witness, tmp_path_factory):
    """Valid payloads by name: star_rigid, its build-quiver payload, a verify
    input holding its witness, and the exact reduce and leg examples."""
    raw = tmp_path_factory.mktemp("raw") / "raw.json"
    assert main(["build-quiver", path("star_rigid.json"), "-o", str(raw)]) == 0
    return {"star": _star_rigid(), "raw": json.loads(raw.read_text()),
            "verify": json.loads(open(witness).read()),
            "reduce": json.loads(open(path("reduce_exact.json")).read()),
            "leg": json.loads(open(path("leg_example.json")).read())}


_POLE = ("finite_poles", 0)
_COEFFS = ("infinity", "irregular_type", "blocks", 0, "coeffs")
_RANK_2_BLOCKS_2_AND_1 = {"rank": 2, "infinity": {
    "irregular_type": {"k": 2, "blocks": [{"coeffs": ["1"], "mult": 2},
                                          {"coeffs": ["3"], "mult": 1}]},
    "residue_blocks": [{"eigenvalues": [{"value": "0", "blocks": [1, 1]}]},
                       {"eigenvalues": [{"value": "0", "blocks": [1]}]}]}}
_LEG_OF_3_ENTRIES = {"n": 2, "orbit": {"eigenvalues": [{"value": "0", "blocks": [2]}]},
                     "matrix": ["0", "1", "0"]}
# name: (command, payload name or None for the value itself, key path, new
# value, what the error says: its place where the reader names one)
REFUSALS = {
    "two-poles-at-one-position": ("check", "star", ("finite_poles", 1), {
        "position": "1", "orbit": {"eigenvalues": [{"value": "0", "blocks": [2]}]}},
        "finite pole positions must be pairwise distinct"),
    "multiplicities-2-and-1-at-rank-2": ("check", None, (), _RANK_2_BLOCKS_2_AND_1,
                                         "irregular type size differs from the declared rank"),
    "three-residue-blocks-for-two": ("check", "star", ("infinity", "residue_blocks", 2),
                                     {"eigenvalues": [{"value": "0", "blocks": [1]}]},
                                     "/infinity/residue_blocks"),
    "two-coefficients-at-k-2": ("check", "star", _COEFFS, ["3", "1"],
                                "block needs 1 coefficients, got 2"),
    "no-blocks": ("check", "star", _COEFFS[:3], [], "irregular type needs at least one block"),
    "empty-orbit": ("check", "star", (*_POLE, "orbit"), {}, "orbit at /finite_poles/0/orbit needs"),
    "ranks-too-long-for-the-marking": ("check", "star", (*_POLE, "orbit"),
                                       {"marking": ["0", "1"], "ranks": [1, 1]},
                                       "/finite_poles/0/orbit/ranks"),
    "rep-dimension-off-the-instance": ("verify", "verify", ("rep", "dims", "p0"), 2,
                                       "dimension mismatch at /rep/dims/p0"),
    "two-matrices-at-depth-2": ("reduce", "reduce", ("jet", "coeffs", 2), DROP,
                                "wrong number of matrices at /jet/coeffs"),
    "depth-minus-1": ("reduce", "reduce", ("jet",), {"k": 2, "depth": -1, "coeffs": []},
                      "need at least k coefficients"),
    "a-json-list": ("check", None, (), ["vertices"], "expected an object at /"),
    "raw-without-zeta": ("check", "raw", ("zeta",), DROP, "missing required key at /zeta"),
    "position-true": ("check", "star", (*_POLE, "position"), True,
                      "cannot decode scalar from True"),
    "position-object": ("check", "star", (*_POLE, "position"), {}, "cannot decode scalar from {}"),
    "leg-matrix-of-3-entries": ("leg", None, (), _LEG_OF_3_ENTRIES, "4 scalars at /matrix"),
    "float-scalar-in-check": ("check", "star", (*_POLE, "position"), 1.5,
                              "float 1.5 not allowed in exact mode"),
}
# payloads that once got a verdict or a bare KeyError
REPRODUCERS = {
    "raw-negative-dimension": ("check", None, (), {"vertices": ["a"], "arrows": [],
                                                   "dims": {"a": -1}, "zeta": {"a": "0"}},
                               "/dims/a is negative"),
    "finite-poles-object-check": ("check", "star", ("finite_poles",), {}, "/finite_poles"),
    "finite-poles-object-realize": ("realize", "star", ("finite_poles",), {}, "/finite_poles"),
    "raw-arrows-object": ("check", "raw", ("arrows",), {}, "/arrows"),
    "raw-extra-vertex": ("check", "raw", ("dims", "x"), 1, "/dims"),
    "raw-zeta-missing-a-vertex": ("check", "raw", ("zeta", "p0"), DROP, "/zeta"),
    "raw-arrow-id-null": ("check", "raw", ("arrows", 0, 0), None, "/arrows/0"),
    "verify-instance-without-rank": ("verify", "verify", ("instance", "rank"), DROP,
                                     "missing required key at /instance/rank"),
    "leg-eigenvalue-without-value": ("leg", "leg", ("orbit", "eigenvalues", 0, "value"), DROP,
                                     "missing required key at /orbit/eigenvalues/0/value"),
    "verify-rep-without-a-map": ("verify", "verify", ("rep", "maps", "t0.1>p0"), DROP,
                                 "missing required key at /rep/maps/t0.1>p0"),
}


def _case_payload(payloads, name, where, value):
    """The payload of a REFUSALS or REPRODUCERS case."""
    return value if name is None else _edited(payloads[name], where, value)


@pytest.mark.parametrize("command, name, where, value, says", REFUSALS.values(), ids=REFUSALS)
def test_a_refused_payload_says_why_and_where(command, name, where, value, says, payloads,
                                             tmp_path, capsys):
    code, report, err = _payload_run(capsys, tmp_path, command,
                                     _case_payload(payloads, name, where, value))
    assert (code, err) == (2, "")
    assert says in report["error"]


@pytest.mark.parametrize("value", [["1", "0"], [True, 0.0], [[], 0]], ids=repr)
def test_a_float_pair_of_anything_but_two_numbers_is_an_error(value, tmp_path, capsys):
    # once read as 1 + 0i (ok: true, exit 0), or a bare TypeError from float()
    doc = {"n": 1, "orbit": {"eigenvalues": [{"value": value, "blocks": [1]}]},
           "matrix": [[1.0, 0.0]]}
    code, report, err = _payload_run(capsys, tmp_path, "leg", doc)
    assert (code, err) == (2, "")
    assert report["error"] == f"ValueError: cannot decode scalar from {value!r}"


def test_an_orbit_of_size_zero_is_an_error(tmp_path, capsys):
    # once an IndexError in OrbitSpec.exact, with a traceback
    with pytest.raises(ValueError, match="n >= 1"):
        OrbitSpec(0, ())
    doc = {"n": 0, "orbit": {"eigenvalues": []}}
    code, report, err = _payload_run(capsys, tmp_path, "leg", doc)
    assert (code, err) == (2, "")
    assert report["error"] == "ValueError: an orbit needs size n >= 1, got 0"


SWAPS = (None, [], {}, "x", 1.5, True, -1, 0)


def _mutations(doc):
    """doc with one key dropped, or with one value (a key's, or one of the
    first two items of a list) swapped for each of SWAPS, at every depth."""
    def walk(node, put):  # put(new) is doc with node replaced by new
        if isinstance(node, dict):
            for key, value in node.items():
                yield put({k: v for k, v in node.items() if k != key})
                yield from swap(value, lambda new, key=key: put({**node, key: new}))
        elif isinstance(node, list):
            for i, value in enumerate(node[:2]):
                yield from swap(value, lambda new, i=i: put(node[:i] + [new] + node[i + 1:]))

    def swap(value, put):
        for new in SWAPS:
            yield put(new)
        yield from walk(value, put)

    yield from walk(doc, lambda new: new)


def test_no_mutated_payload_meets_a_bare_exception(payloads, tmp_path, capsys):
    # every mutation of each command's seed payloads is refused with an error
    # that names its cause, or answered; none prints a traceback
    ladder = json.loads(open(path("ladder_n4x3k2_seed1.json")).read())
    seeds = [("check", payloads["star"]), ("check", ladder), ("build-quiver", payloads["star"]),
             ("check", payloads["raw"]), ("verify", payloads["verify"]),
             ("reduce", payloads["reduce"]), ("leg", payloads["leg"]),
             ("leg", json.loads(open(path("leg_exact_matrix.json")).read()))]
    runs, bare = 0, []
    for command, seed in seeds:
        for doc in _mutations(seed):
            code, report, err = _payload_run(capsys, tmp_path, command, doc)
            assert "Traceback" not in err, (command, doc)
            if report.get("error", "").startswith(
                    ("KeyError:", "TypeError:", "AttributeError:", "IndexError:")):
                bare.append((command, report["error"]))
            runs += 1
    assert runs > 2000 and not bare, bare[:10]
    for command, name, where, value, says in REPRODUCERS.values():
        code, report, err = _payload_run(capsys, tmp_path, command,
                                         _case_payload(payloads, name, where, value))
        assert (code, err) == (2, ""), (command, name, where)
        assert says in report["error"], report["error"]
