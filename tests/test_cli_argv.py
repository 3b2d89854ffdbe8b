"""`cli._plain_args` and `cli.build_parser` against an oracle, the
reading `main` once gave an argv it did not read itself: the command's
own argparse parser, its leftovers worded as an error of the whole tree.
Wherever the reader answers an argv, it reads what the oracle reads, and
wherever the oracle exits, for help or an error, the reader declines; on
every argv the tree reads the oracle's values, or exits with its code,
stdout and stderr."""

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys

import pytest

from dsirr.cli import _INPUT, _OUTPUT, COMMANDS, _plain_args, build_parser

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def reading(parse):
    """(vars of the namespace parse() returns, or None where it exits; its
    exit code; what it printed to stdout; to stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            values, code = vars(parse()), None
        except SystemExit as e:
            values, code = None, e.code
    return values, code, out.getvalue(), err.getvalue()


def command_parser_reading(name, tokens):
    parser = argparse.ArgumentParser(prog=f"dsirr {name}")
    for flags, kwargs in (_INPUT, _OUTPUT, *COMMANDS[name].options):
        parser.add_argument(*flags, **kwargs)
    args, extra = parser.parse_known_args(tokens)
    if extra:
        build_parser().error("unrecognized arguments: " + " ".join(extra))
    return args


def tree_reading(name, tokens):
    args = build_parser().parse_args([name, *tokens])
    del args.command
    return args


def same(a, b):
    """Equal values, compared by repr so that a nan equals itself."""
    return repr(sorted(a.items())) == repr(sorted(b.items()))


def oracle(name, tokens):
    """The oracle's values for an argv, or None where it exits; the tree
    must read the same values, or exit printing the same."""
    want, *printed = reading(lambda: command_parser_reading(name, tokens))
    got, *tree_printed = reading(lambda: tree_reading(name, tokens))
    assert tree_printed == printed and (got is None) == (want is None), tokens
    assert want is None or same(got, want), tokens
    return want


def assert_agrees(name, tokens):
    """The reader's answer, which the oracle's values must then equal, in
    value and type."""
    got, want = _plain_args(name, tokens), oracle(name, tokens)
    if got is not None:
        assert want is not None, tokens
        assert same(vars(got), want), tokens
    return got


def options(name):
    """(flag spellings, a valid value) of each option the command takes."""
    out = []
    for flags, kwargs in (_OUTPUT, *COMMANDS[name].options):
        kind = kwargs.get("type")
        value = kwargs["choices"][-1] if "choices" in kwargs else {
            int: "7", float: "1e-6"}.get(kind, "report.json")
        out.append((flags, value))
    return out


def plain_argvs(name):
    """Every option subset in every order, with every spelling of each
    flag, and the positional at every place between them."""
    opts = options(name)
    for size in range(len(opts) + 1):
        for chosen in itertools.permutations(opts, size):
            for flags in itertools.product(*(f for f, _ in chosen)):
                pairs = [[flag, value] for flag, (_, value) in zip(flags, chosen)]
                for at in range(size + 1):
                    yield sum(pairs[:at], []) + ["in.json"] + sum(pairs[at:], [])


def bad_values(kwargs):
    if "choices" in kwargs:
        return ["Full", "basic ", "", "-"]
    if kwargs.get("type") is int:
        return ["x", "1.5", "", "0x10", "1e3"]
    if kwargs.get("type") is float:
        return ["x", "", "1,5", "1e"]
    return []


def declined_argvs(name):
    """Argvs the reader must leave to argparse: some it reads, some it
    rejects, and help."""
    opts = options(name)
    spelled = {flag for flags, _ in opts for flag in flags}
    yield from ([], ["-h"], ["--help"], ["in.json", "-h"], ["-"] * 2, ["in.json", "x.json"],
                ["--", "in.json"], ["in.json", "--"], ["-1"], ["in.json", "-x"], ["in.json", "--bogus", "1"])
    for flags, value in opts:
        for flag in flags:
            yield ["in.json", flag]
            yield ["in.json", flag, value, flag, value]
            yield ["in.json", flag, "-"]
            yield ["in.json", flag, "--"]
            yield ["in.json", flag, "-1"]
            yield ["in.json", flag, "-1e-8"]
            yield [flag, value]
            yield ["in.json", flag + "=" + value]
            if not flag.startswith("--"):
                yield ["in.json", flag + value]
            else:
                for cut in range(3, len(flag)):
                    if flag[:cut] not in spelled:  # --dot is no abbreviation of --dot-mode
                        yield ["in.json", flag[:cut], value]
    for (flags, kwargs) in COMMANDS[name].options:
        for value in bad_values(kwargs):
            yield ["in.json", flags[0], value]


@pytest.mark.parametrize("name", COMMANDS)
def test_the_reader_answers_every_plain_argv_as_argparse_does(name):
    argvs = list(plain_argvs(name))
    assert max(map(len, argvs)) == 1 + 2 * len(options(name))
    for tokens in argvs:
        assert assert_agrees(name, tokens) is not None, tokens


@pytest.mark.parametrize("name", COMMANDS)
def test_the_reader_declines_what_is_not_plain(name):
    for tokens in declined_argvs(name):
        assert assert_agrees(name, tokens) is None, tokens


# values argparse reads alike through the spec's type, each kept as the
# reader converts it: padded and underscored ints, nan and inf floats
ODD_VALUES = ["", " 3 ", "+4", "1_000", "0", "nan", "inf", "1e400", "basic", "full", "x y"]


@pytest.mark.parametrize("name", COMMANDS)
def test_odd_but_valid_values_read_as_argparse_reads_them(name):
    answered = 0
    for flags, _ in options(name):
        for value in ODD_VALUES:
            for tokens in (["in.json", flags[0], value], [value], [flags[-1], value, "in.json"]):
                answered += assert_agrees(name, tokens) is not None
    assert answered > 0


VOCABULARY = ["in.json", "x.json", "", "-", "--", "-h", "-1", "-1e-8", "7", "1e-6", "x", "basic",
              "full", "nan", "-o", "--output", "--out", "-ox", "--output=x", "--seed", "--seed=3",
              "--se", "--attempts", "--tolerance", "--tol", "--max-decompositions", "--max",
              "--dot", "--dot-mode", "--dot-mode=full", "--bogus"]


@pytest.mark.parametrize("name", COMMANDS)
def test_random_argvs_agree_with_argparse(name):
    # a seeded fuzz over the flags of every command, their abbreviations
    # and = forms, values of every kind and stray separators
    rng, answered = random.Random(f"argv:{name}"), 0
    for _ in range(400):
        tokens = rng.choices(VOCABULARY, k=rng.randrange(6))
        answered += assert_agrees(name, tokens) is not None
    assert answered > 0


def test_the_reader_answers_every_benchmark_argv():
    # the argvs bench/run.py builds, listed by a fresh interpreter so that
    # its import's settings (BLAS threads, sys.path) stay out of this one
    script = ("import json, sys\nsys.path.insert(0, 'bench')\nimport run\n"
              "print(json.dumps([op.argv for w in run.WORKLOADS for op in run.build_ops(w, 1, 'w')]))")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    argvs = json.loads(done.stdout)
    assert {argv[0] for argv in argvs} == {"check", "realize", "verify"}
    for name, *tokens in argvs:
        assert assert_agrees(name, tokens) is not None, tokens


def readme_argvs():
    """Each call in the README's command-line block, every bracketed option
    left out or put in, every `a|b` alternative taken, N read as 1000."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        text = f.read()
    (block,) = re.findall(r"^## Command line\n\n```sh\n(.*?)^```", text, re.M | re.S)
    for line in block.splitlines():
        head, *groups = re.split(r"\s*\[(.*?)\]\s*", line.split("#")[0].strip())
        _, name, src = head.split()
        groups = [g for g in groups if g]
        for chosen in itertools.product(*([None, *g.split(" ", 1)[1].split("|")] for g in groups)):
            tokens = [src]
            for group, value in zip(groups, chosen):
                if value is not None:
                    tokens += [group.split()[0], "1000" if value == "N" else value]
            yield name, tokens


def test_the_reader_answers_every_readme_example():
    argvs = list(readme_argvs())
    assert {name for name, _ in argvs} == set(COMMANDS)
    assert len(argvs) == 17
    for name, tokens in argvs:
        assert assert_agrees(name, tokens) is not None, tokens


def test_a_dash_is_read_as_the_input_path():
    # the reader takes the positional to be _INPUT, the first spec
    assert _INPUT[0] == ("input",)
    assert vars(_plain_args("check", ["-"])) == {
        "input": "-", "output": None, "max_decompositions": 200_000}
