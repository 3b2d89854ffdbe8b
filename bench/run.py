"""Benchmark of dsirr's `check`, `realize` and `verify` commands.

    python3 bench/run.py --workload check-generic --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The run

1. pins BLAS to one thread, imports dsirr from ``src/`` and times the
   set-up (import, then generate and write the workload's problem files)
   in fresh interpreters;
2. drives the public CLI in-process through ``dsirr.cli.main([...])`` as a
   closed loop with one client: each command starts when the previous one
   returns, and a pass runs every command of the workload on every rung;
3. repeats passes for ``--seconds`` and checks every report against the
   rung's expected outcome.

A shared machine can change speed by 1.7x within minutes (measured on a
2-vCPU VM), so the end-to-end times are calibrated: a fixed loop that never
calls dsirr (``prepare.calibrate``) runs next to every timed command and
set-up, and each time t is reported as t * CAL_NOMINAL_S / (calibration
seconds).  The wall times are printed and recorded next to them.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics
(see tracing.py), the tracing overhead, and whether each workload's
predicted dominant layer holds.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
list the environment and every metric with its unit and sample count, and
the same record, with the spans of a traced run, is written under
``.bench_run/``.  The exit code is 0 only if every op gave the expected
outcome.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads; recorded in every output

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from ladder import DOMINANT, WORKLOADS  # noqa: E402
from prepare import CAL_NOMINAL_S, calibrate, input_path, write_inputs  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 3
CAL_REPEATS = 3  # a 4 ms calibration run alone catches too little of the machine
CAL_WINDOW = 2  # ops on each side whose calibrations an op's time is divided by
EXIT_CODES = {"nonempty": 0, "empty": 1, "undecided": 2}


# ---------------------------------------------------------------------------
# one pass of the closed loop


@dataclass
class Op:
    cmd: str
    rung: object
    argv: list
    out: Path


@dataclass
class Outcome:
    op: Op
    op_id: int
    seconds: float
    error: str | None  # None when the report matched the expected outcome
    undecided: bool = False
    cal: float = 0.0  # median of the calibrations just before and after the op


def build_ops(workload, seed, workdir):
    cmds, rungs = WORKLOADS[workload]
    ops = []
    for rung in rungs:
        for cmd in cmds:
            src = input_path(workdir, rung)
            if cmd == "verify":
                src = Path(workdir) / f"{rung.name}.verify.json"
            out = Path(workdir) / f"{rung.name}.{cmd}.out.json"
            argv = [cmd, str(src), "-o", str(out)]
            if cmd == "realize":
                argv += ["--seed", str(seed)]
            ops.append(Op(cmd, rung, argv, out))
    return ops


def _judge(op, code, report):
    """None if the report is the rung's expected outcome, else the reason."""
    rung = op.rung
    if "error" in report:
        return f"error: {report['error']}"
    if op.cmd == "check":
        got = report["verdict"]
        if got == "undecided" and rung.may_stop:
            return None if code == 2 else f"exit code {code} for undecided"
        want = (rung.verdict, rung.failed_condition, rung.dim)
        have = (got, report.get("failed_condition"), report.get("dim"))
        if have != want:
            return f"verdict/failed_condition/dim {have}, expected {want}"
        return None if code == EXIT_CODES[got] else f"exit code {code} for {got}"
    if op.cmd == "realize":
        if rung.verdict != "nonempty":
            if report["success"] or "rep" in report:
                return "witness returned for an instance with zeta . v != 0"
            return None if code == 1 else f"exit code {code} without a witness"
        if not report["success"]:
            return f"no witness after {report['attempts']} attempts"
        if not report["verification"]["all_ok"]:
            return "realize: verification failed " + _failed_checks(report["verification"])
        return None if code == 0 else f"exit code {code} with a witness"
    if not report["all_ok"]:
        return "verify: " + _failed_checks(report)
    return None if code == 0 else f"exit code {code} for all_ok"


def _failed_checks(report):
    return ", ".join(c["name"] for c in report["checks"] if not c["ok"])


def _write_verify_input(op, realize_out):
    """The client turns realize's witness into verify's input file."""
    with open(realize_out, encoding="utf-8") as f:
        rep = json.load(f).get("rep")
    if rep is None:
        return False
    with open(input_path(op.out.parent, op.rung), encoding="utf-8") as f:
        instance = json.load(f)
    with open(op.argv[1], "w", encoding="utf-8") as f:
        json.dump({"instance": instance, "rep": rep}, f)
    return True


def run_pass(ops, main, tracer=None, first_op_id=0):
    """Run every op once, in order; returns one Outcome per op.

    Only the ``main`` call is timed: writing verify's input and reading the
    report back are the client's work, not the command's.  The calibration
    loop runs CAL_REPEATS times just before and just after each op; the
    median of those runs is the op's calibration.
    """
    outcomes = []
    for i, op in enumerate(ops):
        op_id = first_op_id + i
        if op.cmd == "verify" and not _write_verify_input(op, ops[i - 1].out):
            outcomes.append(Outcome(op, op_id, 0.0, "skipped: realize gave no witness"))
            continue
        op.out.unlink(missing_ok=True)
        cal = [calibrate() for _ in range(CAL_REPEATS)]
        start = time.perf_counter()
        try:
            code = main(op.argv) if tracer is None else tracer.op(op_id, main, op.argv)
        except Exception:  # a crashing op is a failed op, not a crashed benchmark
            seconds = time.perf_counter() - start
            outcomes.append(Outcome(op, op_id, seconds, "raised " + traceback.format_exc(limit=3)))
            continue
        seconds = time.perf_counter() - start
        cal = statistics.median(cal + [calibrate() for _ in range(CAL_REPEATS)])
        try:
            with open(op.out, encoding="utf-8") as f:
                report = json.load(f)
            error = _judge(op, code, report)
        except (OSError, ValueError, KeyError) as e:
            report, error = {}, f"unreadable report: {type(e).__name__}: {e}"
        outcomes.append(
            Outcome(op, op_id, seconds, error, report.get("verdict") == "undecided", cal))
    return outcomes


# ---------------------------------------------------------------------------
# metrics


def _median(values):
    return statistics.median(values) if values else 0.0


def pass_seconds(outcomes, cmd=None):
    """Wall time of one pass, or of one command's ops in it."""
    return sum(o.seconds for o in outcomes if cmd is None or o.op.cmd == cmd)


def calibrated_pass_seconds(passes):
    """Seconds of one pass at the nominal machine speed.

    Each op's wall time is divided by the median calibration of the ops
    within CAL_WINDOW of it in run order (one op's calibration is too short
    to stand for the machine over a long op), the median over passes is
    taken op by op, and the sum is scaled by CAL_NOMINAL_S.
    """
    ops = [o for p in passes for o in p]
    ratios = []
    for i, o in enumerate(ops):
        near = [n.cal for n in ops[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1] if n.cal]
        ratios.append(o.seconds / statistics.median(near) if o.cal else 0.0)
    width = len(passes[0])
    return CAL_NOMINAL_S * sum(statistics.median(ratios[j::width]) for j in range(width))


def pass_layers(outcomes, summaries, counts):
    """Self times, span calls and counters of one traced pass, summed over its ops."""
    own, calls, counters = Counter(), Counter(), Counter()
    for o in outcomes:
        s = summaries.get(o.op_id)
        if s is not None:
            own.update(s["self"])
            calls.update(s["calls"])
    ids = {o.op_id for o in outcomes}
    for (op_id, name), value in counts.items():
        if op_id in ids:
            counters[name] += value
    for name, n in calls.items():
        counters[name + ".calls"] = n
    return own, counters


def self_sum_errors(summaries):
    """Largest gap, over ops, between the summed self times and the op's wall time."""
    return max(
        (abs(sum(s["self"].values()) - s["wall"]) for s in summaries.values()), default=0.0
    )


def layer_metrics(untraced, traced, summaries, counts):
    """Per-layer metrics of a traced run: name -> (value, unit, samples).

    Times are medians over the traced passes; counts come from the first
    traced pass (the caller checks that every traced pass repeats them).
    """
    layers = [pass_layers(p, summaries, counts) for p in traced]
    c = layers[0][1]
    nt, nu = len(traced), len(untraced)

    def self_s(name):
        return (_median([float(own[name]) for own, _ in layers]), "s", nt)

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio", 1)

    checks = [o for o in traced[0] if o.op.cmd == "check"]
    lm_jacobians = c["assembly.moment_jacobian.calls"] - c["assembly.kernel_dimension_check.calls"]
    traced_s = _median([pass_seconds(p) for p in traced])
    untraced_s = _median([pass_seconds(p) for p in untraced])
    m = {name: self_s(name[: -len(".self_s")]) for name in SELF_TIMES}
    m["cli.self_s"] = self_s(tracing.ROOT)
    for name in COUNTERS:
        m[name] = (c[name], "count", 1)
    m.update({
        "roots.candidate_yield": ratio(c["roots.candidates"], c["roots.box_points"]),
        "roots.undecided_frac": ratio(sum(o.undecided for o in checks), len(checks)),
        "linalg.span_accept_ratio": ratio(
            c["linalg.SpanBasis.add.accepts"], c["linalg.SpanBasis.add.calls"]),
        "assembly.lm_trials_per_iter": ratio(
            c["assembly.residual_evals"] - c["assembly.realize.restarts"], lm_jacobians),
        "trace.pass_s": (traced_s, "s", nt),
        "trace.untraced_pass_s": (untraced_s, "s", nu),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio", nt + nu),
    })
    for cmd in ("check", "realize", "verify"):
        m[f"cmd.{cmd}_s"] = (_median([pass_seconds(p, cmd) for p in untraced]), "s", nu)
    return m, [counters for _, counters in layers]


SELF_TIMES = (
    "roots.summand_candidates.self_s",
    "roots.cb_solvable.self_s",
    "assembly.build_global_quiver.self_s",
    "quiver.is_stable.self_s",
    "quiver.algebra_span_dimension.self_s",
    "assembly.moment_jacobian.self_s",
    "assembly.realize_numeric.self_s",
    "assembly.verify_instance.self_s",
    "assembly.rep_to_connection.self_s",
    "irregular.qp_to_orbit.self_s",
    "orbits.orbit_membership.self_s",
    "assembly.is_stable_connection.self_s",
    "assembly.kernel_dimension_check.self_s",
)
COUNTERS = (
    "roots.box_points",
    "roots.candidates",
    "roots.search_nodes",
    "roots.is_positive_root.calls",
    "quiver.total_dim",
    "quiver.arrows",
    "quiver.is_stable.calls",
    "linalg.SpanBasis.add.calls",
    "linalg.SpanBasis.add.accepts",
    "assembly.realize.restarts",
    "assembly.moment_jacobian.calls",
    "assembly.residual_evals",
    "quiver.moment_map.calls",
    "linalg.rank.calls",
)


def dominant_layer(workload, metrics):
    """(holds, detail) for the workload's predicted dominant layer."""
    names, zeros = DOMINANT[workload]
    predicted = sum(metrics[n][0] for n in names)
    others = {n: m[0] for n, m in metrics.items() if n.endswith(".self_s") and n not in names}
    rival = max(others, key=others.get)
    nonzero = [n for n in zeros if metrics[n][0] != 0]
    holds = predicted > others[rival] and not nonzero
    total = metrics["trace.pass_s"][0]
    detail = (f"{' + '.join(names)} = {predicted:.4f} s ({predicted / total:.0%} of the traced "
              f"pass); next largest {rival} = {others[rival]:.4f} s")
    if nonzero:
        detail += "; expected zero: " + ", ".join(nonzero)
    return holds, detail


# ---------------------------------------------------------------------------
# environment and set-up


def environment(seed, trace):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "seed": seed,
        "trace": trace,
        "commit": git_commit(ROOT),
    }


def git_commit(root):
    """HEAD's commit id read from .git, or "unknown" outside a git checkout."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_dsirr():
    """dsirr.cli from this checkout's src/, or None if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import dsirr.cli
    except ImportError as e:
        print(f"bench: cannot import dsirr from {SRC}: {e}", file=sys.stderr)
        return None
    if SRC not in Path(dsirr.__file__).resolve().parents:
        print(f"bench: dsirr came from {dsirr.__file__}, not {SRC}", file=sys.stderr)
        return None
    return dsirr.cli


def setup_seconds(workload, seed, workdir):
    """(seconds, calibration seconds) of one set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "prepare.py"), workload, str(seed), str(workdir), str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, cal = map(float, done.stdout.split()[-2:])
    return seconds, cal


# ---------------------------------------------------------------------------
# the run


def measure(ops, main, seconds, trace, between):
    """Passes until the next one would end after ``seconds``; at least one
    (with tracing, one untraced and one traced).  ``between()`` runs after
    each pass.  Returns (untraced passes, traced passes, tracer)."""
    tracer = tracing.Tracer() if trace else None
    untraced, traced = [], []
    start = time.perf_counter()
    last = {False: 0.0, True: 0.0}
    op_id = 0
    while True:
        use_trace = trace and len(traced) < len(untraced)
        elapsed = time.perf_counter() - start
        if untraced and (not trace or traced) and elapsed + last[use_trace] > seconds:
            break
        t0 = time.perf_counter()
        if use_trace:
            with tracer:
                traced.append(run_pass(ops, main, tracer, op_id))
        else:
            untraced.append(run_pass(ops, main, None, op_id))
        op_id += len(ops)
        between()
        last[use_trace] = time.perf_counter() - t0
    return untraced, traced, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_dsirr()
    if cli is None:
        return 2
    env = environment(args.seed, args.trace)
    env["workload"] = args.workload
    workdir = ROOT / ".bench_run" / f"{args.workload}-s{args.seed}-t{args.trace}"
    # set-up repeats: a few first, then one after every pass, so the median
    # sees the machine throughout the run
    setup = [setup_seconds(args.workload, args.seed, workdir) for _ in range(SETUP_REPEATS)]
    write_inputs(args.workload, args.seed, workdir)  # same bytes the set-up wrote
    ops = build_ops(args.workload, args.seed, workdir)

    cmds = WORKLOADS[args.workload][0]
    run_pass(ops[: len(cmds)], cli.main)  # warm-up on the first rung, not counted
    untraced, traced, tracer = measure(
        ops, cli.main, args.seconds, args.trace,
        lambda: setup.append(setup_seconds(args.workload, args.seed, workdir)))

    outcomes = [o for p in untraced + traced for o in p]
    failures = [o for o in outcomes if o.error is not None]
    notes = []
    if args.trace:
        summaries = tracing.op_summaries(tracer.spans)
        metrics, counters = layer_metrics(untraced, traced, summaries, tracer.counts)
        gap = self_sum_errors(summaries)
        repeat = all(c == counters[0] for c in counters)
        holds, detail = dominant_layer(args.workload, metrics)
        notes += [
            f"self times sum to op wall time: largest gap {gap:.3e} s",
            f"counters repeat across {len(counters)} traced passes: {repeat}",
            f"dominant layer {'holds' if holds else 'DOES NOT hold'}: {detail}",
        ]
        consistent = gap <= 1e-6 and repeat
    else:
        passes = [pass_seconds(p) for p in untraced]
        setups = [t for t, _ in setup]
        metrics = {
            "pass_s": (calibrated_pass_seconds(untraced), "s", len(passes)),
            "setup_s": (_median([t * CAL_NOMINAL_S / c for t, c in setup]), "s", len(setup)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        }
        notes.append(f"pass_s and setup_s are calibrated; wall pass {_median(passes):.4f} s "
                     f"(range {min(passes):.4f} .. {max(passes):.4f}), wall set-up "
                     f"{_median(setups):.4f} s (range {min(setups):.4f} .. {max(setups):.4f}), "
                     f"calibration {_median([o.cal for p in untraced for o in p]) * 1e3:.3f} ms "
                     f"(nominal {CAL_NOMINAL_S * 1e3:.3f} ms)")
        for cmd in cmds:
            notes.append(f"{cmd}_s {_median([pass_seconds(p, cmd) for p in untraced]):.4f} s "
                         f"(median of {len(untraced)} passes)")
        check_ops = [o for o in outcomes if o.op.cmd == "check"]
        if check_ops:
            notes.append(f"undecided_frac {sum(o.undecided for o in check_ops) / len(check_ops):.4f}")
        consistent = True
    notes.append(f"fail_frac {len(failures) / len(outcomes):.4f} ({len(failures)}/{len(outcomes)} ops)")
    for o in failures:
        notes.append(f"FAILED {o.op.cmd} {o.op.rung.name}: {o.error}")

    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, n) in metrics.items():
        print(f"# {name} {value} {unit} n={n}")
    for note in notes:
        print("# " + note)
    correct = not failures and consistent
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    record = dict(result, env=env, notes=notes, setup_samples=setup,
                  op_seconds=[[o.seconds for o in p] for p in untraced],
                  op_calibration=[[o.cal for o in p] for p in untraced])
    if args.trace:
        record["spans"] = tracer.spans
        record["counts"] = [[op, name, v] for (op, name), v in tracer.counts.items()]
    with open(workdir / "result.json", "w", encoding="utf-8") as f:
        json.dump(record, f)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
