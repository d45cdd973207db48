"""Firing-level step semantics: one synchronous sweep over the operators.

Every enabled operator computes a partial carry per operand (cardinal divided
by radix, floored for integer-kind operators), takes the minimum across its
operands as the common carry, and sends ``coefficient * common`` to each
image. Each operand keeps ``cardinal - common * radix``: exactly 0, with no
arithmetic, if rational-kind and its own carry is the common one, and the
later operator's if two drain it (which the validator rejects). Firings all
read the start-of-step state: a drained and fed entity gets remainder + feed,
and an exact-0 remainder takes its first feed itself, with no addition.

The arithmetic runs on each ``Fraction``'s numerator and denominator ints,
with the gcd steps of the stdlib's own operators (Knuth, TAOCP vol. 2,
§4.5.1: cross-gcds for × and ÷, one gcd of the denominators for ±), so every
value is the canonical ``Fraction`` the stdlib operator returns, without its
per-call type dispatch. The matrix engine keeps the stdlib operators, so
``check`` compares the two on every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from snsq.model import (
    Cao,
    CarryKind,
    Mode,
    NegativeCardinalError,
    Operator,
    apply_schedule,
)

_ZERO = Fraction(0)


def _new(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime ints with d > 0, as the stdlib builds one
    from coprime ints: no gcd and no checks, only Fraction's two slots set."""
    f = object.__new__(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def _mul(a: Fraction, b: Fraction) -> Fraction:
    na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _new(na * nb, db * da)


def _div(a: Fraction, b: Fraction) -> Fraction:
    na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
    if nb == 0:
        raise ZeroDivisionError(f"Fraction({db}, 0)")
    g1 = gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = gcd(db, da)
    if g2 > 1:
        da //= g2
        db //= g2
    n, d = na * db, nb * da
    return _new(-n, -d) if d < 0 else _new(n, d)


def _add(a: Fraction, b: Fraction) -> Fraction:
    return _sum(a._numerator, a._denominator, b._numerator, b._denominator)


def _sub(a: Fraction, b: Fraction) -> Fraction:
    return _sum(a._numerator, a._denominator, -b._numerator, b._denominator)


def _sum(na: int, da: int, nb: int, db: int) -> Fraction:
    """na/da + nb/db, each in lowest terms with a positive denominator."""
    g = gcd(da, db)
    if g == 1:
        return _new(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _new(t, s * db)
    return _new(t // g2, s * (db // g2))


def _floordiv(a: Fraction, b: Fraction) -> Fraction:
    """⌊a / b⌋ as a Fraction."""
    return _new((a._numerator * b._denominator) // (a._denominator * b._numerator), 1)


def _min(values: list[Fraction]) -> Fraction:
    """The first least of ``values``, as ``min`` picks it; ``<`` by cross-multiplication."""
    least = values[0]
    for v in values[1:]:
        if v._numerator * least._denominator < least._numerator * v._denominator:
            least = v
    return least


@dataclass(frozen=True, slots=True)
class Firing:
    """Everything one operator did during one step.

    ``operands``/``images`` are entity indices, aligned slot-for-slot with
    ``partial_carries``/``remainders`` and ``transformants``.
    """

    operator: int
    operands: tuple[int, ...]
    partial_carries: tuple[Fraction, ...]
    common: Fraction
    remainders: tuple[Fraction, ...]
    images: tuple[int, ...]
    transformants: tuple[Fraction, ...]


def fire_operator(state: tuple[Fraction, ...], op: Operator, index: int) -> Firing:
    """Evaluate one operator against a state snapshot without applying it."""
    if op.kind is CarryKind.INTEGER_FLOOR:
        partials = [_floordiv(state[o.entity], o.radix) for o in op.operands]
        common = _min(partials)
        remainders = [_sub(state[o.entity], _mul(common, o.radix)) for o in op.operands]
    else:
        partials = [_div(state[o.entity], o.radix) for o in op.operands]
        common = _min(partials)
        remainders = [
            _ZERO if p is common else _sub(state[o.entity], _mul(common, o.radix))
            for o, p in zip(op.operands, partials)
        ]
    return Firing(
        operator=index,
        operands=op.operand_entities(),
        partial_carries=tuple(partials),
        common=common,
        remainders=tuple(remainders),
        images=op.image_entities(),
        transformants=tuple([_mul(image.coefficient, common) for image in op.images]),
    )


def step(
    state: tuple[Fraction, ...],
    cao: Cao,
    k: int = 0,
    operators: tuple[Operator, ...] | None = None,
) -> tuple[tuple[Fraction, ...], tuple[Firing, ...]]:
    """One synchronous step at index ``k``; returns the new state and all firings.

    ``operators`` are the effective operators at ``k`` when the caller has
    them (the runner reads them from the schedule's segments); otherwise the
    schedule is folded up to ``k``. Disabled operators are skipped entirely.
    In Q_MINUS mode the post-state is checked component-wise; the first
    entity that would drop below zero raises NegativeCardinalError.
    """
    ops = apply_schedule(cao, k) if operators is None else operators
    firings = tuple([fire_operator(state, op, i) for i, op in enumerate(ops) if op.enabled])
    new = list(state)
    for f in firings:
        for e, remainder in zip(f.operands, f.remainders):
            new[e] = remainder
    for f in firings:
        for e, transformant in zip(f.images, f.transformants):
            new[e] = transformant if new[e] is _ZERO else _add(new[e], transformant)
    if cao.mode is Mode.Q_MINUS:
        for e, value in enumerate(new):
            if value._numerator < 0:
                raise NegativeCardinalError(cao.entities[e].name, value, k)
    return tuple(new), firings


def common_carry_vector(
    firings: tuple[Firing, ...], size: int
) -> tuple[Fraction, ...]:
    """Per-entity common carry: an operand inherits its operator's common, sinks get 0."""
    out = [_ZERO] * size
    for f in firings:
        for e in f.operands:
            out[e] = f.common
    return tuple(out)
