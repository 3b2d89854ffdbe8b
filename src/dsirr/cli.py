"""Command-line front end.

Subcommands: check, build-quiver, realize, verify, reduce, leg; each
accepts only the options it reads.  One table, COMMANDS, gives each its
handler, help and options.  A plain call (one positional, each option
spelled out once before its value) is read off that table with no parser
built; argparse, imported only then, reads any other argv with the whole
tree, which prints help and errors in its own words.  Nothing carries
over between calls.  Every run writes a JSON report (stdout by default,
and for -o -); exit status 0 means nonempty/verified/success, 1
empty/falsified, 2 undecided or error, an unwritable -o path or a
closed stdout included.  `main` loads the input once and hands it to
the command, which parses it once, in the mode its scalars are written
in (float if any is a JSON float or an [re, im] pair, exact otherwise);
check always needs exact scalars.  A malformed payload, a --tolerance
that is not finite and > 0, or a --max-decompositions or --attempts
below 1, is an error (exit 2), never a verdict; a payload's error names
its JSON path.  Randomized paths follow --seed.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .assembly import (
    build_global_quiver,
    decide_ds,
    instance_from_json,
    realize_numeric,
    rep_from_json,
    rep_to_json,
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
from .reduction import normalize
from .roots import CartanData, cb_solvable
from .serialize import (SCHEMA_VERSION, SchemaError, matrix_from_json, matrix_to_json,
                        payload_is_float, report_text, require, scalar_to_json)


def _load_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _instance(data, path=""):
    """A problem payload, parsed in its own scalar mode."""
    return instance_from_json(data, not payload_is_float(data), path)


def cmd_check(data, args):
    if "vertices" in data:  # raw (Q, v, zeta) payload from build-quiver
        quiver, dims, zeta = quiver_from_json(data)
        cartan = CartanData.from_quiver(quiver)
        verdict = cb_solvable(cartan, cartan.vec(dims), zeta, max_nodes=args.max_decompositions)
    else:
        ds = decide_ds(instance_from_json(data, exact=True), max_nodes=args.max_decompositions)
        verdict, quiver, dims, zeta = ds.verdict, ds.gq.quiver, ds.gq.dims, ds.gq.zeta
    report = verdict_to_json(verdict, quiver, dims, zeta)
    code = 2 if report["verdict"] == "undecided" else (0 if report["verdict"] == "nonempty" else 1)
    return report, code


def cmd_build_quiver(data, args):
    gq = build_global_quiver(_instance(data))
    payload = quiver_to_json(gq.quiver, gq.dims, gq.zeta)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as f:
            f.write(to_dot(gq.quiver, gq.dims, gq.zeta, full=args.dot_mode == "full"))
    return payload, 0


def cmd_realize(data, args):
    gq = build_global_quiver(_instance(data).as_float())
    result = realize_numeric(gq, attempts=args.attempts, seed=args.seed)
    report = {
        "success": result.success,
        # JSON has no Infinity or NaN
        "residual": result.residual if math.isfinite(result.residual) else None,
        "attempts": result.attempts,
        "seed": result.seed,
        "stats": result.stats,
    }
    if result.success:
        report["verification"] = verify_instance(gq, result.rep, certificate=result.stability)
        if report["verification"]["all_ok"]:
            report["rep"] = rep_to_json(result.rep)
        else:  # a witness that fails its own checks is no witness
            report["success"], report["stats"]["stop"] = False, "verification-failed"
    return report, 0 if report["success"] else 1


def cmd_verify(data, args):
    gq = build_global_quiver(_instance(require(data, "instance"), "/instance").as_float())
    rep = rep_from_json(gq, require(data, "rep"), "/rep")
    report = verify_instance(gq, rep, rtol=args.tolerance)
    return report, 0 if report["all_ok"] else 1


def cmd_reduce(data, args):
    exact = not payload_is_float(data)
    T = irregular_type_from_json(require(data, "irregular_type"), exact, "/irregular_type")
    jet_data = require(data, "jet", "", dict)
    k = require(jet_data, "k", "/jet", int)
    depth = require(jet_data, "depth", "/jet", int)
    coeffs = require(jet_data, "coeffs", "/jet", list)
    if len(coeffs) != depth + 1:
        raise SchemaError("wrong number of matrices at /jet/coeffs")
    if k != T.k:  # a usage error, not an incompatible jet
        raise SchemaError(f"/jet/k is {k}, the irregular type's pole order is {T.k}")
    n = T.n
    jet = ConnectionJet(n, k, tuple(matrix_from_json(c, n, n, exact, f"/jet/coeffs/{i}")
                                    for i, c in enumerate(coeffs)))
    require_rtol(args.tolerance)  # likewise
    try:
        out = normalize(jet, T, rtol=args.tolerance)
    except ValueError as e:
        return {"compatible": False, "detail": str(e)}, 1
    report = {
        "compatible": True,
        "exponent": matrix_to_json(out.exponent),
        "gauge": [{"degree": d, "matrix": matrix_to_json(x)} for d, x in out.factors],
        "reduced": [matrix_to_json(c) for c in out.reduced.coeffs],
        "depth": out.depth,
    }
    return report, 0


def cmd_leg(data, args):
    exact = not payload_is_float(data)
    n = require(data, "n", "", int)
    spec = orbit_spec_from_json(require(data, "orbit"), n, exact, "/orbit")
    marking = greedy_marking(spec)
    matrix = (matrix_from_json(data["matrix"], n, n, exact, "/matrix") if "matrix" in data
              else normal_form_matrix(spec))
    try:
        leg = realize_leg(matrix, marking)
    except ValueError as e:
        return {"ok": False, "detail": str(e)}, 1
    # equal ranks at every step, with the last 0, hold just in the orbit
    dims, walked = leg_dimensions(spec, marking), list(leg.dims.values())[1:]
    if walked != dims:
        return {"ok": False, "detail": f"the matrix is not in the declared orbit: its leg "
                                       f"dimensions are {walked}, the orbit's are {dims}"}, 1
    report = {
        "ok": True,
        "orbit": orbit_spec_to_json(spec),
        "marking": [scalar_to_json(m) for m in marking],
        "leg_dimensions": dims,
        "maps": rep_to_json(leg)["maps"],
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
            "help": "search budget, applied on its own to each of: a root test's "
                    "reflection steps, the search's work (the isotropic-root boxes "
                    "where zeta = 0 on supp v, else the candidate enumeration) and "
                    "the condition-3 DP's part checks; running out reports undecided"}),
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


def _plain_args(name, tokens):
    """argparse's reading of a plain argv, off the same specs with no parser
    built: one positional (not starting with '-', or '-' itself) and each
    option string at most once, before a value not starting with '-' that
    its type and choices accept.  None for any other argv, left to argparse."""
    specs = (_INPUT, _OUTPUT, *COMMANDS[name].options)
    index = {flag: i for i, (flags, _) in enumerate(specs) for flag in flags}
    raw, tokens = {}, iter(tokens)
    for token in tokens:
        if token == "-" or not token.startswith("-"):
            i, value = 0, token  # _INPUT
        else:  # a missing value reads as "-"
            i, value = index.get(token), next(tokens, "-")
        if i is None or i in raw or i and value.startswith("-"):
            return None
        raw[i] = value
    args = {}
    for i, (flags, kwargs) in enumerate(specs):
        # argparse's dest: the first long option string, else the first one
        dest = next((f for f in flags if f.startswith("--")), flags[0]).lstrip("-").replace("-", "_")
        try:
            args[dest] = kwargs.get("type", str)(raw[i]) if i in raw else kwargs["default"]
        except (KeyError, ValueError):  # no input (it has no default), or a bad value
            return None
        if args[dest] not in kwargs.get("choices", [args[dest]]):
            return None
    return SimpleNamespace(**args)


def build_parser():
    """The whole tree, every command a subparser with the prog `dsirr
    <command>`.  `main` builds it for any argv `_plain_args` declines:
    help, an error (an unrecognized argument is reported from the top)
    or an argv only argparse reads, such as `--seed=7` or `--out`."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="dsirr",
        description="decide, realize and verify additive irregular Deligne-Simpson instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        subparser = sub.add_parser(name, help=command.help)
        for flags, kwargs in (_INPUT, _OUTPUT, *command.options):
            subparser.add_argument(*flags, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    args = _plain_args(name, argv[1:]) if name in COMMANDS else None
    if args is None:  # help, an error or any other argv, read by the tree
        args = build_parser().parse_args(argv)
        name = args.command
    try:
        report, code = COMMANDS[name].handler(_load_json(args.input), args)
    except SchemaError as e:
        report, code = {"error": str(e)}, 2
    # any other failure is an error, never a verdict's exit code.  A shape
    # the readers miss raises KeyError, TypeError or AttributeError on access,
    # and JSONDecodeError is a ValueError; past those, such as a RecursionError
    # or a MemoryError, stderr also gets the traceback
    except Exception as e:
        if not isinstance(e, (ValueError, KeyError, TypeError, AttributeError, OSError)):
            import traceback
            traceback.print_exc()
        report, code = {"error": f"{type(e).__name__}: {e}"}, 2
    report["schema_version"] = SCHEMA_VERSION
    text = report_text(report)
    if args.output and args.output != "-":  # like the input path, '-' is stdout
        try:
            with open(args.output, "w", encoding="utf-8") as f:
                f.write(text + "\n")
            return code
        except OSError as e:  # an unwritten report is an error, whatever its verdict
            report = {"error": f"{type(e).__name__}: {e}", "schema_version": SCHEMA_VERSION}
            text, code = report_text(report), 2
    try:
        print(text, flush=True)
    except BrokenPipeError:  # a closed stdout loses the report, as an unwritable -o does
        with contextlib.suppress(OSError):  # io.UnsupportedOperation: stdout has no descriptor
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)  # so the flush at exit writes nowhere, silently
            os.close(devnull)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
