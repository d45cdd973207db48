"""Firing-level step semantics: one synchronous sweep over the operators.

Every enabled operator computes a partial carry per operand (cardinal divided
by radix, floored for integer-kind operators), takes the minimum across its
operands as the common carry, and sends ``coefficient * common`` to each
image. Each operand keeps ``cardinal - common * radix``: exactly 0, with no
arithmetic, if rational-kind and its own carry is the common one, and the
later operator's if two drain it (which the validator rejects). Firings all
read the start-of-step state: a drained and fed entity gets remainder + feed.
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

_ZERO = Fraction(0)


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
        partials = [Fraction(state[o.entity] // o.radix) for o in op.operands]
        common = min(partials)
        remainders = [state[o.entity] - common * o.radix for o in op.operands]
    else:
        partials = [state[o.entity] / o.radix for o in op.operands]
        common = min(partials)
        remainders = [
            _ZERO if p is common else state[o.entity] - common * o.radix
            for o, p in zip(op.operands, partials)
        ]
    return Firing(
        operator=index,
        operands=op.operand_entities(),
        partial_carries=tuple(partials),
        common=common,
        remainders=tuple(remainders),
        images=op.image_entities(),
        transformants=tuple([image.coefficient * common for image in op.images]),
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
    out = [_ZERO] * size
    for f in firings:
        for e in f.operands:
            out[e] = f.common
    return tuple(out)
