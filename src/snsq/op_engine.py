"""Firing-level step semantics: one synchronous sweep over the operators.

Every enabled operator computes a partial carry per operand (cardinal divided
by radix, floored for integer-kind operators), takes the minimum across its
operands as the common carry, and sends ``coefficient * common`` to each
image. Each operand keeps ``cardinal - common * radix``: exactly 0, with no
arithmetic, if rational-kind and its own carry is the common one, and the
later operator's if two drain it (which the validator rejects). Firings all
read the start-of-step state: a drained and fed entity gets remainder + feed,
and an exact-0 remainder takes its first feed itself, with no addition.

``step`` and ``next_state``, the record-free step, fire each operator
through one routine, ``_fire``, which builds a ``Firing`` only for ``step``.

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

State = tuple[Fraction, ...]


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


def _fire(state: State, op: Operator, new: list, feeds: list, index: int | None = None) -> Firing | None:
    """Fire ``op`` on the start-of-step ``state``: write each remainder into
    ``new`` and queue each (image, transformant) feed on ``feeds``; build the
    Firing only when given the operator's ``index``. A remainder is taken from
    ``state``, never read back from ``new``, so a repeated operand gets one per slot."""
    exact = op.kind is CarryKind.RATIONAL_EXACT
    divide = _div if exact else _floordiv
    partials = [divide(state[o.entity], o.radix) for o in op.operands]
    common = _min(partials)
    remainders, transformants = (None, None) if index is None else ([], [])
    for o, p in zip(op.operands, partials):
        remainder = _ZERO if exact and p is common else _sub(state[o.entity], _mul(common, o.radix))
        new[o.entity] = remainder
        if remainders is not None:
            remainders.append(remainder)
    for image in op.images:
        transformant = _mul(image.coefficient, common)
        feeds.append((image.entity, transformant))
        if transformants is not None:
            transformants.append(transformant)
    if index is None:
        return None
    return Firing(
        index, op.operand_entities(), tuple(partials), common,
        tuple(remainders), op.image_entities(), tuple(transformants),
    )


def fire_operator(state: State, op: Operator, index: int) -> Firing:
    """Evaluate one operator against a state snapshot without applying it."""
    return _fire(state, op, list(state), [], index)


def _sweep(state: State, cao: Cao, k: int, ops: tuple[Operator, ...] | None, firings: list | None) -> State:
    """The state after step ``k``, appending each firing to ``firings`` unless it is None."""
    ops = apply_schedule(cao, k) if ops is None else ops
    new = list(state)
    feeds: list[tuple[int, Fraction]] = []
    for i, op in enumerate(ops):
        if op.enabled:
            firing = _fire(state, op, new, feeds, None if firings is None else i)
            if firings is not None:
                firings.append(firing)
    for e, transformant in feeds:
        new[e] = transformant if new[e] is _ZERO else _add(new[e], transformant)
    if cao.mode is Mode.Q_MINUS:
        for e, value in enumerate(new):
            if value._numerator < 0:
                raise NegativeCardinalError(cao.entities[e].name, value, k)
    return tuple(new)


def step(
    state: State, cao: Cao, k: int = 0, operators: tuple[Operator, ...] | None = None
) -> tuple[State, tuple[Firing, ...]]:
    """One synchronous step at index ``k``; returns the new state and all firings.

    ``operators`` are the effective operators at ``k`` when the caller has
    them (the runner reads them from the schedule's segments); otherwise the
    schedule is folded up to ``k``. Disabled operators are skipped entirely.
    In Q_MINUS mode the post-state is checked component-wise; the first
    entity that would drop below zero raises NegativeCardinalError.
    """
    firings: list[Firing] = []
    return _sweep(state, cao, k, operators, firings), tuple(firings)


def next_state(state: State, cao: Cao, k: int = 0, operators: tuple[Operator, ...] | None = None) -> State:
    """``step``'s new state alone, raising as ``step`` does; no firing is built."""
    return _sweep(state, cao, k, operators, None)


def common_carry_vector(
    firings: tuple[Firing, ...], size: int
) -> tuple[Fraction, ...]:
    """Per-entity common carry: an operand inherits its operator's common, sinks get 0."""
    out = [_ZERO] * size
    for f in firings:
        for e in f.operands:
            out[e] = f.common
    return tuple(out)
