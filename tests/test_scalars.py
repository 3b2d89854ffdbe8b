import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dsirr.scalars import (
    GaussianRational,
    as_exact,
    exact_dot,
    format_exact,
    integerize,
    parse_exact,
    rationalize,
    scalar_key,
)
from dsirr.serialize import payload_is_float
from oracles import fraction_fold, parse_exact_by_fraction_str


def test_field_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    b = GaussianRational(2, 5)
    assert a + b == GaussianRational(Fraction(5, 2), Fraction(17, 4))
    assert a * b - b * a == GaussianRational(0)
    assert (a / b) * b == a
    assert a - a == GaussianRational(0)
    assert -a + a == GaussianRational(0)


def test_division_by_conjugate():
    z = GaussianRational(3, 4)
    w = z / z
    assert w == GaussianRational(1)
    assert z * z.conjugate() == GaussianRational(z.norm2())


def test_int_interop():
    z = GaussianRational(1, 1)
    assert 2 * z == GaussianRational(2, 2)
    assert z - 1 == GaussianRational(0, 1)
    assert 1 / GaussianRational(0, 1) == GaussianRational(0, -1)


def test_float_rejected():
    z = GaussianRational(1)
    with pytest.raises(TypeError):
        z + 0.5
    with pytest.raises(TypeError):
        as_exact(0.5)


def test_pow():
    i = GaussianRational(0, 1)
    assert i ** 2 == GaussianRational(-1)
    assert i ** 0 == GaussianRational(1)
    assert (GaussianRational(2) ** 10) == GaussianRational(1024)


def test_parse_and_format_round_trip():
    cases = ["3/2-1/4 i", "2", "-5/3", "1/3 i", "0", "-2/7+9 i"]
    for s in cases:
        z = parse_exact(s)
        assert parse_exact(format_exact(z)) == z
    assert parse_exact("1/2+1/3 i") == GaussianRational(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(ValueError):
        parse_exact("1.5")
    with pytest.raises(ValueError):
        parse_exact("")
    for text in ("1/0", "1/2+3/0 i", "5/0 i"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_exact(text)


# hand-picked edge cases: inner whitespace, signs, zero parts, zero and
# negative denominators, integers past the interpreter's digit limit for
# str -> int conversion, and characters outside the grammar
SCALAR_EDGE_CASES = [
    "1", "1/2", "-3/4+5/6 i", " 1 / 2 - 3 i ", "\t7\n", "1+ 2 i", "+5", "+1/2+3i", "-0",
    "+0/5", "0i", "-0i", "0+0i", "007/010", "i", "12i", "+2i", "1/0", "0/0i", "1+1/0i",
    "5/0 i", "3/-4", "-3/-4", "", "  ", "1+2", "1+2i+3i", "1/2/3", "1++2i", "1+-2i",
    "--1", "1e3", "1_0", "1.5", "1 i i", "x", "\u0663/\u0664", "1" * 5000,
    "-" + "9" * 4301 + "/2", "2/" + "3" * 4400, "9" * 400 + "/" + "7" * 400 + "-" + "3" * 300 + "i",
]


def _random_scalar_strings(r, count):
    """Strings over the grammar's alphabet, half of them built to parse
    (but for a zero denominator) with whitespace strewn through them."""

    def part():
        return str(r.randint(0, 10 ** r.randint(0, 30))) + r.choice(["", f"/{r.randint(0, 99)}"])

    out = []
    for _ in range(count // 2):
        out.append("".join(r.choice(["0", "1", "7", "12", "/", "+", "-", "i", " ", "\t"])
                           for _ in range(r.randint(0, 8))))
        form = r.choice(["{}", "{}i", "{}+{}i", "{}-{}i"])
        text = r.choice(["", "+", "-"]) + form.format(part(), part())
        out.append("".join(c + r.choice(["", "", " ", "\n"]) for c in text))
    return out


def _parsed(parse, text):
    try:
        z = parse(text)
    except ValueError as e:
        return "ValueError", str(e)
    return type(z.re), z.re, type(z.im), z.im


@pytest.mark.parametrize("seed", range(3))
def test_parse_exact_matches_the_fraction_str_parser(seed):
    corpus = SCALAR_EDGE_CASES + _random_scalar_strings(random.Random(seed), 600)
    outcomes = [_parsed(parse_exact, text) for text in corpus]
    assert outcomes == [_parsed(parse_exact_by_fraction_str, text) for text in corpus]
    parsed = sum(o[0] is Fraction for o in outcomes)
    assert 200 < parsed < len(corpus) - 200  # both branches are well covered


def test_payload_mode_detection():
    float_payloads = [
        {"value": [1, 0]},
        {"position": 0.5},
        {"coeffs": [[0, 1], [1, 0]]},
        {"jet": {"coeffs": [[[1, 0], [0, 0], [0, 0], [2, 0]]]}},
        {"matrix": [[1, 0]]},
    ]
    exact_payloads = [
        {"value": "1/2", "blocks": [1, 2]},
        {"coeffs": [0, 1], "mult": 2},
        {"jet": {"coeffs": [["1", "0", "0", "2"]]}},
        {"matrix": [1, 0, 0, 1], "marking": ["0", 4]},
    ]
    assert all(payload_is_float(p) for p in float_payloads)
    assert not any(payload_is_float(p) for p in exact_payloads)


def test_rationalize_bounds_denominator():
    z = rationalize(0.5 + 0.25j)
    assert z == GaussianRational(Fraction(1, 2), Fraction(1, 4))
    z = rationalize(1 / 3, max_denominator=10)
    assert z.re.denominator <= 10


def test_sort_key_re_im():
    vals = [GaussianRational(1, 0), GaussianRational(0, 5), GaussianRational(1, -1)]
    assert sorted(vals, key=scalar_key) == [
        GaussianRational(0, 5),
        GaussianRational(1, -1),
        GaussianRational(1, 0),
    ]


# mixed denominators up to 10^4, real values and values with a non-zero
# imaginary part, and weights that may be zero or negative
_PARTS = st.fractions(min_value=-100, max_value=100, max_denominator=10**4)
_VALUES = st.builds(
    GaussianRational, _PARTS, st.one_of(st.just(Fraction(0)), _PARTS.filter(bool)))
_TERMS = st.lists(st.tuples(_VALUES, st.integers(-20, 20)), min_size=1, max_size=12)


@given(_TERMS)
def test_exact_dot_matches_the_fraction_fold(terms):
    values, weights = zip(*terms)
    assert exact_dot(values, weights) == fraction_fold(values, weights)


@given(_TERMS, st.integers(1, 20) | st.integers(-20, -1))
def test_exact_dot_is_zero_on_planted_cancellations(terms, m):
    # a last term of weight m that cancels the others exactly
    values, weights = zip(*terms)
    values += (-fraction_fold(values, weights) / m,)
    weights += (m,)
    assert fraction_fold(values, weights) == 0
    total = exact_dot(values, weights)
    assert total == 0 and not total


@given(st.lists(_VALUES, min_size=1, max_size=12))
def test_integerize_uses_the_least_common_denominator(values):
    lcd, re, im = integerize(values)
    for z, a, b in zip(values, re, im):
        assert GaussianRational(Fraction(a, lcd), Fraction(b, lcd)) == z
    # no smaller denominator would do
    assert math.gcd(lcd, *re, *im) == 1


def test_integerize_rejects_floats():
    with pytest.raises(TypeError):
        integerize([GaussianRational(1), 0.5])
