"""Record the CLI's exit code and stdout over a fixed set of inputs.

    python tests/report_sweep.py OUT.json

writes {case: [exit code, stdout]} with sorted keys, so the sweeps of two
checkouts compare with `cmp`.  Each input gets `check`, `build-quiver`,
`check` of that raw (Q, v, zeta) payload, `realize --seed 1` and, when
realize finds a witness, `verify` of that witness.  The inputs are every
problem file in tests/data and its float copy, and the check-generic,
check-degenerate, realize-verify and realize-infeasible rungs of the
benchmark ladder at seeds 1-3, with the float copies of the
realize-verify rungs; `leg` and `reduce` also run on their four example
files.  Not a test module: pytest does not collect it.
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

from dsirr.assembly import instance_from_json, instance_to_json  # noqa: E402
from dsirr.cli import main  # noqa: E402
from oracles import bench_ladder  # noqa: E402

DATA = TESTS / "data"
MATRIX_EXAMPLES = [("leg", "leg_example.json"), ("leg", "leg_exact_matrix.json"),
                   ("reduce", "reduce_example.json"), ("reduce", "reduce_exact.json")]


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def float_copy(data):
    return instance_to_json(instance_from_json(data, exact=True).as_float())


def problems():
    """(name, problem payload) of every sweep input."""
    for path in sorted(DATA.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if "rank" in data:
            yield f"data/{path.name}", data
            yield f"data/{path.name} float", float_copy(data)
    ladder = bench_ladder()
    for workload in ("check-generic", "check-degenerate", "realize-verify", "realize-infeasible"):
        for rung in ladder.WORKLOADS[workload][1]:
            for seed in (1, 2, 3):
                name, data = f"{workload}/{rung.name}/seed{seed}", ladder.problem(rung, seed)
                yield name, data
                if workload == "realize-verify":
                    yield f"{name} float", float_copy(data)


def sweep(tmp: Path) -> dict:
    cases = {}
    for name, data in problems():
        src = tmp / "problem.json"
        src.write_text(json.dumps(data), encoding="utf-8")
        for argv in (["check"], ["build-quiver"], ["realize", "--seed", "1"]):
            cases[f"{name}: {' '.join(argv)}"] = run(*argv, str(src))
        code, payload = cases[f"{name}: build-quiver"]
        if code == 0:
            raw = tmp / "quiver.json"
            raw.write_text(payload, encoding="utf-8")
            cases[f"{name}: build-quiver | check"] = run("check", str(raw))
        report = json.loads(cases[f"{name}: realize --seed 1"][1])
        if "rep" in report:
            witness = tmp / "witness.json"
            witness.write_text(json.dumps({"instance": data, "rep": report["rep"]}),
                               encoding="utf-8")
            cases[f"{name}: verify"] = run("verify", str(witness))
    for command, file in MATRIX_EXAMPLES:
        cases[f"data/{file}: {command}"] = run(command, str(DATA / file))
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
