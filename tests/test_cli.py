import argparse
import json
import os
import subprocess
import sys
import time
import warnings

import pytest

from dsirr.cli import main

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


def test_main_builds_only_the_invoked_subparser(monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    assert main(["check", path("star_rigid.json")]) == 0
    assert built == ["check"]
    built.clear()
    with pytest.raises(SystemExit):
        main(["-h"])
    assert len(built) == 6


def test_console_script_path_matches_in_process_main(monkeypatch, capsys):
    # argv=None reads sys.argv, in a fresh interpreter and in this one
    argv = ["check", path("star_rigid.json")]
    env = dict(os.environ, PYTHONPATH=os.path.join(TESTS, os.pardir, "src"))
    done = subprocess.run([sys.executable, "-m", "dsirr.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    expected = run(capsys, *argv)
    assert (done.returncode, json.loads(done.stdout)) == expected
    monkeypatch.setattr(sys, "argv", ["dsirr", *argv])
    code = main()
    assert (code, json.loads(capsys.readouterr().out)) == expected
