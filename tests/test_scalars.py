from fractions import Fraction

import pytest

from dsirr.scalars import (
    GaussianRational,
    as_exact,
    format_exact,
    parse_exact,
    rationalize,
    scalar_key,
)
from dsirr.serialize import payload_is_float


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
