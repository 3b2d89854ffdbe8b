"""Record the CLI's exit code and stdout over a fixed set of inputs.

    python tests/report_sweep.py OUT.json

writes {case: [exit code, stdout]} with sorted keys, so the sweeps of two
checkouts compare with `cmp`.  Each input gets `check`, `build-quiver`,
`check` of that raw (Q, v, zeta) payload, `realize --seed 1` and, when
realize finds a witness, `verify` of that witness.  The inputs are every
problem file in tests/data and its float copy, and the check-generic,
check-degenerate, realize-verify and realize-infeasible rungs of the
benchmark ladder at seeds 1-3, with the float copies of the
realize-verify rungs, and the nilpotent rungs n10x5k2, n10x5k3 and
n12x6k2 at seeds 1-3, which probe the criterion's frontier, and the
nilpotent rungs n4x6k2 and n6x4k2 at seed 1 with mixed zeta
(`oracles.mixed_zeta_problem`), whose 248 and 67 candidates reach the
condition-3 DP; these get `check`, `build-quiver` and its `check` only.
Two problem files also come with their finite poles' orbits given as a
matrix with eigenvalue hints (exact), as a matrix alone (float) and as
a marking with its ranks.  `leg` and `reduce` run on their four example files; `leg` also
on float copies of its two, on three matrices outside their orbits, in
both modes, and on a float unitary conjugate with a marking longer than
the minimal one.  Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

import numpy as np  # noqa: E402

from dsirr import linalg  # noqa: E402
from dsirr.assembly import instance_from_json, instance_to_json  # noqa: E402
from dsirr.cli import main  # noqa: E402
from dsirr.orbits import (greedy_marking, make_orbit_spec, normal_form_matrix,  # noqa: E402
                          orbit_spec_from_json, orbit_spec_to_json, rank_sequence)
from dsirr.scalars import ONE  # noqa: E402
from dsirr.serialize import matrix_from_json, matrix_to_json, scalar_to_json  # noqa: E402
from oracles import bench_ladder, mixed_zeta_problem  # noqa: E402

DATA = TESTS / "data"
MATRIX_EXAMPLES = [("leg", "leg_example.json"), ("leg", "leg_exact_matrix.json"),
                   ("reduce", "reduce_example.json"), ("reduce", "reduce_exact.json")]
POLE_FORM_PROBLEMS = ["star_rigid.json", "ladder_n4x3k2_seed1.json"]
FRONTIER = "check-frontier"
MIXED = "check-mixed-zeta"


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def float_copy(data):
    return instance_to_json(instance_from_json(data, exact=True).as_float())


def leg_float_copy(data):
    """A leg payload with its orbit and matrix in float scalars."""
    n = data["n"]
    out = dict(data, orbit=orbit_spec_to_json(
        orbit_spec_from_json(data["orbit"], n, True).to_float("orbit")))
    if "matrix" in data:
        out["matrix"] = matrix_to_json(linalg.to_complex(matrix_from_json(data["matrix"], n, n, True)))
    return out


def diagonal(*entries) -> list:
    """The exact JSON matrix diag(entries)."""
    return [str(entries[i]) if i == j else "0" for i in range(len(entries))
            for j in range(len(entries))]


def long_marking_conjugate(data):
    """A leg payload with the float orbit of `data`, its greedy marking
    with 7 + 7i appended, and the unitary conjugate Q N Q^H of the normal
    form N by the fixed Q of a QR factorization."""
    n = data["n"]
    spec = orbit_spec_from_json(data["orbit"], n, True).to_float("orbit")
    q = np.linalg.qr(np.array([[1, 2, 0], [1j, 1, 3], [2, -1j, 1]]))[0]
    spec = make_orbit_spec(n, spec.eigenvalues, greedy_marking(spec) + (7 + 7j,))
    return dict(data, orbit=orbit_spec_to_json(spec),
                matrix=matrix_to_json(q @ normal_form_matrix(spec) @ q.conj().T))


def legs():
    """(name, leg payload) of the example files and their float copies,
    with matrices outside the orbit in both modes: diag(0, 0, 5) for the
    first, which its marking does not annihilate, and the zero matrix and
    diag(0, 0, 4) for the second, which its marking does.  Also the
    second's `long_marking_conjugate`."""
    outside = {"leg_example.json": {" diag(0, 0, 5)": diagonal(0, 0, 5)},
               "leg_exact_matrix.json": {" zero": diagonal(0, 0, 0),
                                         " diag(0, 0, 4)": diagonal(0, 0, 4)}}
    for _, file in filter(lambda e: e[0] == "leg", MATRIX_EXAMPLES):
        data = json.loads((DATA / file).read_text(encoding="utf-8"))
        for label, payload in [("", data)] + [(k, dict(data, matrix=m))
                                              for k, m in outside[file].items()]:
            yield f"data/{file}{label}", payload
            yield f"data/{file}{label} float", leg_float_copy(payload)
    data = json.loads((DATA / "leg_exact_matrix.json").read_text(encoding="utf-8"))
    yield "data/leg_exact_matrix.json float, marking + 7+7i, unitary conjugate", \
        long_marking_conjugate(data)


def pole_forms(data):
    """(form, problem) with every finite pole's orbit rewritten: as the
    conjugate g N g^-1 of its normal form N by the unit lower triangle g
    of ones, with the eigenvalues as hints; as that matrix in floats
    alone; and as its greedy marking with the ranks of that marking."""
    instance = instance_from_json(data, exact=True)
    forms = {"matrix": [], "matrix float": [], "marking": []}
    for pole in instance.poles:
        spec, n = pole.orbit, pole.orbit.n
        g = linalg.eye(n, True)
        for i in range(n):
            for j in range(i):
                g[i, j] = ONE
        conj = g.dot(normal_form_matrix(spec)).dot(linalg.inv(g))
        forms["matrix"].append({"matrix": matrix_to_json(conj), "eigenvalue_hints": [
            scalar_to_json(v) for v, _ in spec.eigenvalues]})
        forms["matrix float"].append({"matrix": matrix_to_json(linalg.to_complex(conj))})
        marking = greedy_marking(spec)
        forms["marking"].append({"marking": [scalar_to_json(m) for m in marking],
                                 "ranks": rank_sequence(spec, marking)})
    for form, orbits in forms.items():
        poles = [dict(p, orbit=o) for p, o in zip(data["finite_poles"], orbits)]
        yield form, dict(data, finite_poles=poles)


def problems():
    """(name, problem payload) of every sweep input."""
    for path in sorted(DATA.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if "rank" in data:
            yield f"data/{path.name}", data
            yield f"data/{path.name} float", float_copy(data)
        if path.name in POLE_FORM_PROBLEMS:
            for form, problem in pole_forms(data):
                yield f"data/{path.name} pole {form}", problem
    ladder = bench_ladder()
    for workload in ("check-generic", "check-degenerate", "realize-verify", "realize-infeasible"):
        for rung in ladder.WORKLOADS[workload][1]:
            for seed in (1, 2, 3):
                name, data = f"{workload}/{rung.name}/seed{seed}", ladder.problem(rung, seed)
                yield name, data
                if workload == "realize-verify":
                    yield f"{name} float", float_copy(data)
    for name, n, poles, k in (("n10x5k2", 10, 5, 2), ("n10x5k3", 10, 5, 3), ("n12x6k2", 12, 6, 2)):
        rung = ladder.Rung(name, "nilpotent", n, poles, k, "nonempty")
        for seed in (1, 2, 3):
            yield f"{FRONTIER}/{name}/seed{seed}", ladder.problem(rung, seed)
    for name, n, poles in (("n4x6k2", 4, 6), ("n6x4k2", 6, 4)):
        rung = ladder.Rung(name, "nilpotent", n, poles, 2, "nonempty")
        yield f"{MIXED}/{name}/seed1", mixed_zeta_problem(ladder, rung, 1)


def sweep(tmp: Path) -> dict:
    cases = {}
    for name, data in problems():
        src = tmp / "problem.json"
        src.write_text(json.dumps(data), encoding="utf-8")
        for argv in (["check"], ["build-quiver"], ["realize", "--seed", "1"]):
            if argv[0] != "realize" or not name.startswith((FRONTIER, MIXED)):
                cases[f"{name}: {' '.join(argv)}"] = run(*argv, str(src))
        code, payload = cases[f"{name}: build-quiver"]
        if code == 0:
            raw = tmp / "quiver.json"
            raw.write_text(payload, encoding="utf-8")
            cases[f"{name}: build-quiver | check"] = run("check", str(raw))
        report = json.loads(cases.get(f"{name}: realize --seed 1", (1, "{}"))[1])
        if "rep" in report:
            witness = tmp / "witness.json"
            witness.write_text(json.dumps({"instance": data, "rep": report["rep"]}),
                               encoding="utf-8")
            cases[f"{name}: verify"] = run("verify", str(witness))
    for command, file in MATRIX_EXAMPLES:
        if command != "leg":
            cases[f"data/{file}: {command}"] = run(command, str(DATA / file))
    for name, data in legs():
        src = tmp / "leg.json"
        src.write_text(json.dumps(data), encoding="utf-8")
        cases[f"{name}: leg"] = run("leg", str(src))
    return cases


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        result = sweep(Path(tmp))
    with open(sys.argv[1], "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"{len(result)} cases")
