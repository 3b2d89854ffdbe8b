"""Counters-only smoke check of the benchmark; kept out of Tier-1.

    PYTHONPATH=src python -m pytest bench/tests -q

One traced pass per workload, run twice on the same seed: the deterministic
counters must repeat exactly, every op must give its expected outcome, and
the workload's predicted dominant layer must hold.  Takes about a minute.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import tracing  # noqa: E402
from ladder import WORKLOADS  # noqa: E402
from prepare import input_path, write_inputs  # noqa: E402

SEED = 7

# deterministic counters, with the workloads on which each must be non-zero
EXERCISED = {
    "roots.box_points": ("check-generic", "check-degenerate"),
    "roots.candidates": ("check-generic", "check-degenerate"),
    "roots.search_nodes": ("check-generic", "check-degenerate"),
    "assembly.realize.restarts": ("realize-verify", "realize-infeasible"),
    "assembly.moment_jacobian.calls": ("realize-verify", "realize-infeasible"),
    "assembly.residual_evals": ("realize-verify", "realize-infeasible"),
    "linalg.SpanBasis.add.calls": ("realize-verify",),
    "linalg.SpanBasis.add.accepts": ("realize-verify",),
}


@pytest.fixture(scope="module")
def cli():
    module = run.import_dsirr()
    assert module is not None
    return module


def traced_pass(cli, workload, workdir):
    write_inputs(workload, SEED, workdir)
    ops = run.build_ops(workload, SEED, workdir)
    with tracing.Tracer() as tracer:
        outcomes = run.run_pass(ops, cli.main, tracer)
    summaries = tracing.op_summaries(tracer.spans)
    metrics, (counters,) = run.layer_metrics([outcomes], [outcomes], summaries, tracer.counts)
    assert run.self_sum_errors(summaries) <= 1e-6
    return outcomes, metrics, counters


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counters_repeat_and_dominant_layer_holds(cli, workload, tmp_path):
    first, metrics, counters = traced_pass(cli, workload, tmp_path / "a")
    second, _, again = traced_pass(cli, workload, tmp_path / "b")
    assert [o.error for o in first + second] == [None] * (len(first) + len(second))
    assert counters == again
    for name, workloads in EXERCISED.items():
        assert (counters[name] > 0) == (workload in workloads), name
    holds, detail = run.dominant_layer(workload, metrics)
    assert holds, detail


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_realize_rungs_carry_their_criterion_verdict(cli, seed, tmp_path):
    """realize-verify rungs are nonempty and realize-infeasible rungs fail
    condition 2, as the criterion decides them."""
    ops = []
    for workload in ("realize-verify", "realize-infeasible"):
        write_inputs(workload, seed, tmp_path)
        for rung in WORKLOADS[workload][1]:
            out = tmp_path / f"{rung.name}.check.out.json"
            ops.append(run.Op("check", rung, ["check", str(input_path(tmp_path, rung)), "-o", str(out)], out))
    assert [(o.op.rung.name, o.error) for o in run.run_pass(ops, cli.main)] == [
        (op.rung.name, None) for op in ops
    ]
