"""Command-line front end.

Subcommands: check, build-quiver, realize, verify, reduce, leg; each
accepts only the options it reads.  One table, COMMANDS, gives each its
handler, help and options.  A call builds the parser of the command it
names alone, and the whole tree only for no arguments, -h or an unknown
command; nothing carries over from one call to the next.  Every run
writes a machine-readable JSON report (stdout by default); exit status 0
means nonempty/verified/success, 1 means empty/falsified, 2 means
undecided or error.  Input files are parsed once, in the mode their
scalars are written in (float if any is a JSON float or an [re, im]
pair, exact otherwise); check always needs exact scalars.  A --tolerance
that is not finite and > 0, or a --max-decompositions or --attempts
below 1, is an error (exit 2), never a verdict.  Randomized paths are
reproducible through --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, NamedTuple

from .assembly import (
    build_global_quiver,
    decide_ds,
    instance_from_json,
    realize_numeric,
    rep_from_json,
    rep_to_json,
    total_exponent_trace,
    verdict_to_json,
    verify_instance,
)
from .irregular import irregular_type_from_json
from .jets import ConnectionJet
from .linalg import require_rtol
from .orbits import (
    greedy_marking,
    leg_dimensions,
    orbit_spec_from_json,
    orbit_spec_to_json,
    normal_form_matrix,
    realize_leg,
)
from .quiver import quiver_from_json, quiver_to_json, to_dot
from .roots import CartanData, cb_solvable
from .serialize import matrix_from_json, matrix_to_json, payload_is_float, scalar_to_json

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Input does not match the documented JSON schema."""


def _require(data, key, path, kind=None):
    if not isinstance(data, dict):
        raise SchemaError(f"expected an object at {path or '/'}")
    if key not in data:
        raise SchemaError(f"missing required key at {path}/{key}")
    value = data[key]
    # a JSON true or false is no integer, though Python's bool is an int
    if kind is not None and (not isinstance(value, kind)
                             or kind is int and isinstance(value, bool)):
        raise SchemaError(f"wrong type at {path}/{key}")
    return value


def _validate_instance_shape(data):
    _require(data, "rank", "", int)
    inf = _require(data, "infinity", "", dict)
    it = _require(inf, "irregular_type", "/infinity", dict)
    _require(it, "k", "/infinity/irregular_type", int)
    blocks = _require(it, "blocks", "/infinity/irregular_type", list)
    for i, b in enumerate(blocks):
        _require(b, "coeffs", f"/infinity/irregular_type/blocks/{i}", list)
        _require(b, "mult", f"/infinity/irregular_type/blocks/{i}", int)
    _require(inf, "residue_blocks", "/infinity", list)
    for j, p in enumerate(data.get("finite_poles", [])):
        _require(p, "position", f"/finite_poles/{j}")
        _require(p, "orbit", f"/finite_poles/{j}", dict)


def _load_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _instance(data):
    """Validate a problem payload and parse it in its own scalar mode."""
    _validate_instance_shape(data)
    return instance_from_json(data, exact=not payload_is_float(data))


def cmd_check(args):
    data = _load_json(args.input)
    if "vertices" in data:  # raw (Q, v, zeta) payload from build-quiver
        quiver, dims, zeta = quiver_from_json(data)
        if dims is None or zeta is None:
            raise SchemaError("quiver payload needs dims and zeta")
        cartan = CartanData.from_quiver(quiver)
        verdict = cb_solvable(cartan, cartan.vec(dims), zeta, max_nodes=args.max_decompositions)
    else:
        _validate_instance_shape(data)
        ds = decide_ds(instance_from_json(data, exact=True), max_nodes=args.max_decompositions)
        verdict, quiver, dims, zeta = ds.verdict, ds.gq.quiver, ds.gq.dims, ds.gq.zeta
    report = verdict_to_json(verdict, quiver, dims, zeta)
    report["schema_version"] = SCHEMA_VERSION
    code = 2 if report["verdict"] == "undecided" else (0 if report["verdict"] == "nonempty" else 1)
    return report, code


def cmd_build_quiver(args):
    gq = build_global_quiver(_instance(_load_json(args.input)))
    payload = quiver_to_json(gq.quiver, gq.dims, gq.zeta)
    payload["schema_version"] = SCHEMA_VERSION
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as f:
            f.write(to_dot(gq.quiver, gq.dims, gq.zeta, full=args.dot_mode == "full"))
    return payload, 0


def _exact_zeta_v(instance):
    """zeta . v as minus the trace of the exponents, exact for an exact
    instance; None for a float one, whose zeta . v carries rounding."""
    return -total_exponent_trace(instance) if instance.exact else None


def cmd_realize(args):
    instance = _instance(_load_json(args.input))
    gq = build_global_quiver(instance.as_float())
    zeta_v = _exact_zeta_v(instance)
    result = realize_numeric(gq, attempts=args.attempts, seed=args.seed, zeta_v=zeta_v)
    report = {
        "schema_version": SCHEMA_VERSION,
        "success": result.success,
        # JSON has no Infinity or NaN
        "residual": result.residual if math.isfinite(result.residual) else None,
        "attempts": result.attempts,
        "seed": result.seed,
        "stats": result.stats,
    }
    if result.success:
        report["verification"] = verify_instance(
            gq, result.rep, zeta_v=zeta_v, certificate=result.stability)
        if report["verification"]["all_ok"]:
            report["rep"] = rep_to_json(gq, result.rep)
        else:  # a witness that fails its own checks is no witness
            report["success"], report["stats"]["stop"] = False, "verification-failed"
    return report, 0 if report["success"] else 1


def cmd_verify(args):
    data = _load_json(args.input)
    instance = _instance(_require(data, "instance", "", dict))
    gq = build_global_quiver(instance.as_float())
    rep = rep_from_json(gq, _require(data, "rep", "", dict))
    report = verify_instance(gq, rep, rtol=args.tolerance, zeta_v=_exact_zeta_v(instance))
    report["schema_version"] = SCHEMA_VERSION
    return report, 0 if report["all_ok"] else 1


def cmd_reduce(args):
    from .reduction import normalize

    data = _load_json(args.input)
    exact = not payload_is_float(data)
    T = irregular_type_from_json(_require(data, "irregular_type", "", dict), exact)
    jet_data = _require(data, "jet", "", dict)
    k = _require(jet_data, "k", "/jet", int)
    depth = _require(jet_data, "depth", "/jet", int)
    coeffs = _require(jet_data, "coeffs", "/jet", list)
    if len(coeffs) != depth + 1:
        raise SchemaError("wrong number of matrices at /jet/coeffs")
    if k != T.k:  # a usage error, not an incompatible jet
        raise SchemaError(f"/jet/k is {k}, the irregular type's pole order is {T.k}")
    n = T.n
    jet = ConnectionJet(n, k, tuple(matrix_from_json(c, n, n, exact) for c in coeffs))
    require_rtol(args.tolerance)  # likewise
    try:
        out = normalize(jet, T, rtol=args.tolerance)
    except ValueError as e:
        return {"schema_version": SCHEMA_VERSION, "compatible": False, "detail": str(e)}, 1
    report = {
        "schema_version": SCHEMA_VERSION,
        "compatible": True,
        "exponent": matrix_to_json(out.exponent),
        "gauge": [{"degree": d, "matrix": matrix_to_json(x)} for d, x in out.factors],
        "reduced": [matrix_to_json(c) for c in out.reduced.coeffs],
        "depth": out.depth,
    }
    return report, 0


def cmd_leg(args):
    data = _load_json(args.input)
    exact = not payload_is_float(data)
    n = _require(data, "n", "", int)
    spec = orbit_spec_from_json(_require(data, "orbit", "", dict), n, exact)
    marking = greedy_marking(spec)
    matrix = normal_form_matrix(spec)
    if "matrix" in data:
        matrix = matrix_from_json(data["matrix"], n, n, exact)
    try:
        leg = realize_leg(matrix, marking)
    except ValueError as e:
        return {"schema_version": SCHEMA_VERSION, "ok": False, "detail": str(e)}, 1
    report = {
        "schema_version": SCHEMA_VERSION,
        "ok": True,
        "orbit": orbit_spec_to_json(spec),
        "marking": [scalar_to_json(m) for m in marking],
        "leg_dimensions": leg_dimensions(spec, marking),
        "maps": {
            a.id: {
                "fwd": matrix_to_json(leg.rep.fwd[a.id]),
                "rev": matrix_to_json(leg.rep.rev[a.id]),
            }
            for a in leg.rep.quiver.arrows
        },
    }
    return report, 0


# option specs: (flags, add_argument keywords)
_INPUT = (("input",), {"help": "input JSON path ('-' for stdin)"})
_OUTPUT = (("-o", "--output"), {"default": None, "help": "report path (default stdout)"})
_TOLERANCE = (("--tolerance",), {"type": float, "default": 1e-8, "help": "relative tolerance"})


class Command(NamedTuple):
    handler: Callable
    help: str
    options: tuple = ()


COMMANDS = {
    "check": Command(cmd_check, "decide non-emptiness from a problem file (exact scalars)", (
        (("--max-decompositions",), {
            "type": int, "default": 200_000,
            "help": "search budget (candidate enumeration steps, which also bound "
                    "the decomposition DP's states) before reporting undecided"}),
    )),
    "build-quiver": Command(cmd_build_quiver, "synthesize (Q, v, zeta) from a problem file", (
        (("--dot",), {"default": None, "help": "write Graphviz DOT here"}),
        (("--dot-mode",), {"choices": ["basic", "full"], "default": "basic",
                           "help": "full adds the parameters to vertex labels"}),
    )),
    "realize": Command(cmd_realize, "search for a stable numeric point (float mode)", (
        (("--seed",), {"type": int, "default": 0, "help": "seed for the random restarts"}),
        (("--attempts",), {"type": int, "default": 50, "help": "realizer restarts (at least 1)"}),
    )),
    "verify": Command(cmd_verify, "run all invariant checks on a representation", (_TOLERANCE,)),
    "reduce": Command(cmd_reduce, "formal reduction of a connection jet against a type", (_TOLERANCE,)),
    "leg": Command(cmd_leg, "marking, leg dimensions and chain maps of an orbit"),
}


def build_parser(name=None) -> argparse.ArgumentParser:
    """The parser with command `name`'s subparser alone, or with every
    command's when `name` names none (no arguments, -h, an unknown one)."""
    parser = argparse.ArgumentParser(
        prog="dsirr",
        description="decide, realize and verify additive irregular Deligne-Simpson instances",
    )
    one = name in COMMANDS
    # one command's tree still lists every command in its usage line; the
    # full tree leaves the metavar unset, since it would also rename the
    # action in the "required: command" and "argument command" errors
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="{%s}" % ",".join(COMMANDS) if one else None)
    for n in [name] if one else COMMANDS:
        p = sub.add_parser(n, help=COMMANDS[n].help)
        for flags, kwargs in (_INPUT, _OUTPUT, *COMMANDS[n].options):
            p.add_argument(*flags, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        report, code = COMMANDS[args.command].handler(args)
    except SchemaError as e:
        report, code = {"schema_version": SCHEMA_VERSION, "error": str(e)}, 2
    # a payload of the wrong shape raises TypeError or AttributeError on
    # access; JSONDecodeError is a ValueError
    except (ValueError, KeyError, TypeError, AttributeError, OSError) as e:
        report, code = {"schema_version": SCHEMA_VERSION, "error": f"{type(e).__name__}: {e}"}, 2
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
