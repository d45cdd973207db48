"""Exact rational arithmetic for everything that touches a state path.

Every cardinal, radix, carry, conversion coefficient, and transformant is a
`fractions.Fraction`: arbitrary precision, always canonical (gcd of numerator
and denominator 1, denominator >= 1, zero as 0/1), compared exactly by
cross-multiplication. Addition, subtraction, multiplication, division, and
`min` are the native operators; this module adds the text form shared by the
definition language and traces, floor-to-integer, and a construction guard
that refuses floats.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def as_rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or `num[/den]` string to an exact rational.

    Floats are rejected outright: they would smuggle binary rounding onto a
    state path. A Fraction (exactly that type) comes back as it is: it is
    immutable and already canonical, so a copy would only cost time.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}: state values must stay exact")
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


def floor_to_integer(a: Fraction) -> Fraction:
    """Greatest integer <= a (toward minus infinity), as a denominator-1 rational."""
    return Fraction(math.floor(a))


def parse_rational(text: str) -> Fraction:
    """Parse `digits` or `digits/digits` with an optional leading minus sign.

    Anything else, including decimal points, a zero denominator and an integer
    longer than Python's int<->str conversion limit, raises ValueError.
    """
    if _RATIONAL_RE.fullmatch(text) is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    try:
        numerator, denominator = int(num), int(den) if den else 1
    except ValueError:  # the pattern admits only ASCII digits: int() refused the length
        digits = max(len(num.lstrip("-")), len(den))
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"integer of {digits} digits exceeds the {limit}-digit limit") from None
    if denominator == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(numerator, denominator) if den else Fraction(numerator)


def format_rational(a: Fraction) -> str:
    """Canonical text: `num` for integers, `num/den` otherwise. Never decimal.

    Numerators and denominators past Python's int<->str conversion limit are
    written in full too: the limit guards against converting untrusted text
    (see `parse_rational`), not against printing values snsq computed.
    """
    num = _decimal(a.numerator)
    return num if a.denominator == 1 else f"{num}/{_decimal(a.denominator)}"


def _decimal(n: int) -> str:
    """Decimal text of an int of any length: ``str(n)``, or pieces that every
    setting of the int<->str limit admits; the global setting is left alone."""
    try:
        return str(n)
    except ValueError:
        pass
    width = sys.int_info.str_digits_check_threshold
    chunk = 10**width
    sign, n = ("-", -n) if n < 0 else ("", n)
    pieces = []
    while n >= chunk:
        n, low = divmod(n, chunk)
        pieces.append(f"{low:0{width}d}")
    pieces.append(str(n))
    return sign + "".join(reversed(pieces))
