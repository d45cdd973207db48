import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from snsq.rationals import (
    as_rational,
    floor_to_integer,
    format_rational,
    parse_rational,
)


def test_parse_integer_and_fraction_literals():
    assert parse_rational("33") == Fraction(33)
    assert parse_rational("27/4") == Fraction(27, 4)
    assert parse_rational("-5/3") == Fraction(-5, 3)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("0") == 0


def test_parse_normalizes():
    assert parse_rational("6/4") == Fraction(3, 2)
    assert format_rational(parse_rational("6/4")) == "3/2"
    assert format_rational(parse_rational("-0")) == "0"


@pytest.mark.parametrize("bad", ["", "1.5", "1/0", "a", "1/ 2", "1 /2", "/3", "5/", "--2", "2/-3"])
def test_parse_rejects_non_literals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_is_never_decimal():
    assert format_rational(Fraction(189, 640)) == "189/640"
    assert format_rational(Fraction(22, 7)) == "22/7"
    assert format_rational(Fraction(8)) == "8"
    assert format_rational(Fraction(-15, 7)) == "-15/7"


def test_format_past_the_int_str_limit():
    limit = sys.get_int_max_str_digits()
    assert format_rational(Fraction(10**5000)) == "1" + "0" * 5000
    assert format_rational(Fraction(-(10**5000) - 1, 3)) == "-1" + "0" * 4999 + "1/3"
    big = Fraction(-(7**9000), 3**8000 + 1)  # 7606 and 3817 digits
    text = format_rational(big)
    assert sys.get_int_max_str_digits() == limit  # the global setting is left alone
    sys.set_int_max_str_digits(0)
    try:
        assert text == str(big)
    finally:
        sys.set_int_max_str_digits(limit)


def test_as_rational_coercions():
    assert as_rational(5) == Fraction(5)
    assert as_rational("21/8") == Fraction(21, 8)
    exact = Fraction(2, 7)
    assert as_rational(exact) is exact  # returned as it is, not copied


def test_as_rational_refuses_floats():
    with pytest.raises(TypeError):
        as_rational(0.1)


def test_floor_toward_minus_infinity():
    assert floor_to_integer(Fraction(7, 2)) == 3
    assert floor_to_integer(Fraction(-7, 2)) == -4
    assert floor_to_integer(Fraction(5)) == 5
    assert floor_to_integer(Fraction(0)) == 0
    assert floor_to_integer(Fraction(27, 10)) == 2
    assert floor_to_integer(Fraction(21, 8)).denominator == 1


def test_min_is_exact_on_close_fractions():
    # cross-multiplication comparison, no binary rounding
    assert min(Fraction(333333, 1000000), Fraction(1, 3)) == Fraction(333333, 1000000)
    assert min(Fraction(21, 8), Fraction(33, 10)) == Fraction(21, 8)


@given(st.fractions())
def test_format_parse_round_trip(x):
    assert parse_rational(format_rational(x)) == x


@given(st.fractions())
def test_floor_bounds(x):
    f = floor_to_integer(x)
    assert f.denominator == 1
    assert f <= x < f + 1


@given(st.fractions(), st.fractions(), st.fractions())
def test_exact_field_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
