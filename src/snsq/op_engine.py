"""Firing-level step semantics: one synchronous sweep over the operators.

Every enabled operator computes a partial carry per operand (cardinal divided
by radix, floored for integer-kind operators), takes the minimum across its
operands as the common carry, and sends ``coefficient * common`` to each
image. An operand is left its remainder ``cardinal - common * radix`` (an
entity that two operators drain, which the validator rejects, keeps the later
one's). All firings read the state at the start of the step: an entity
drained by one operator and fed by another gets its remainder plus its feed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from snsq.model import (
    Cao,
    CarryKind,
    Mode,
    NegativeCardinalError,
    Operator,
    apply_schedule,
)
from snsq.rationals import floor_to_integer


@dataclass(frozen=True)
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


def partial_carry(cardinal: Fraction, radix: Fraction, kind: CarryKind) -> Fraction:
    """How many whole firing-units an operand can supply: #/n, floored for integer kind."""
    q = cardinal / radix
    if kind is CarryKind.INTEGER_FLOOR:
        return floor_to_integer(q)
    return q


def fire_operator(state: tuple[Fraction, ...], op: Operator, index: int) -> Firing:
    """Evaluate one operator against a state snapshot without applying it."""
    partials = tuple(
        partial_carry(state[operand.entity], operand.radix, op.kind)
        for operand in op.operands
    )
    common = min(partials)
    remainders = tuple(
        state[operand.entity] - common * operand.radix for operand in op.operands
    )
    transformants = tuple(image.coefficient * common for image in op.images)
    return Firing(
        operator=index,
        operands=op.operand_entities(),
        partial_carries=partials,
        common=common,
        remainders=remainders,
        images=op.image_entities(),
        transformants=transformants,
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
    firings = tuple(
        fire_operator(state, op, i) for i, op in enumerate(ops) if op.enabled
    )
    new = list(state)
    for f in firings:
        for e, remainder in zip(f.operands, f.remainders):
            new[e] = remainder
    for f in firings:
        for e, transformant in zip(f.images, f.transformants):
            new[e] += transformant
    if cao.mode is Mode.Q_MINUS:
        for e, value in enumerate(new):
            if value < 0:
                raise NegativeCardinalError(cao.entities[e].name, value, k)
    return tuple(new), firings


def common_carry_vector(
    firings: tuple[Firing, ...], size: int
) -> tuple[Fraction, ...]:
    """Per-entity common carry: an operand inherits its operator's common, sinks get 0."""
    zero = Fraction(0)
    out = [zero] * size
    for f in firings:
        for e in f.operands:
            out[e] = f.common
    return tuple(out)
