"""State-equation form of the step, used to cross-check the firing engine.

The state evolves by

    next = state + (conversionᵀ − radix) · group_min(inverse_radix ∘ state)

where ``inverse_radix`` holds each entity's reciprocal radix (zero for sinks
and for operands of disabled operators, so their partial carry is zero),
``group_min`` replaces the partial carry of each operator's operands by
their minimum (applying the integer floor first for floor-kind operators),
``radix`` is the diagonal of radices and ``conversionᵀ`` feeds each image
its coefficient times a carry. Both engines must agree exactly at every
step; the runner's ``check`` mode exploits that.

Storage is sparse, so a step costs O(entities + images) rather than
O(entities²). The radix and inverse-radix diagonals are length-m vectors,
and ``conversionᵀ`` is a list of ``(image, representative, coefficient)``
entries, one per (operator, image) pair. A fan-in operator's image receives
its transformant once, not once per operand, so each entry reads the carry
of a single representative operand; the group minimum makes all of a
group's carries equal, so any operand serves. ``transfer_matrix`` gives
the same operator as sparse cells, for ``snsq matrix`` to print.

A step does no arithmetic whose result is known exactly. An entity whose
inverse radix is the shared zero (a sink, an operand of a disabled operator;
``build_operators`` stores it for every zero radix) keeps its cardinal
itself, since its radix is 0. A rational operand whose partial carry is the
common one keeps exactly 0, since ``s − r·(s/r)`` is 0. An exact 0 takes its
first feed itself, since ``0 + t`` is ``t``; every other feed is added.
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

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True, slots=True)
class StateOperators:
    """The pieces of the state equation, precomputed from one network snapshot.

    ``radix`` and ``inverse_radix`` are the diagonals as vectors (sink
    entries zero); ``conversion`` holds the ``(image, representative,
    coefficient)`` entries described in the module docstring;
    ``partition[o]`` is the operand entities of operator o, the group whose
    partial carries share one minimum; ``floor_mask[e]`` is True when entity
    e's partial carry is floored before the group minimum.
    """

    names: tuple[str, ...]
    radix: Vector
    inverse_radix: Vector
    conversion: tuple[tuple[int, int, Fraction], ...]
    partition: tuple[tuple[int, ...], ...]
    floor_mask: tuple[bool, ...]


def build_operators(
    cao: Cao, operators: tuple[Operator, ...] | None = None
) -> StateOperators:
    """Assemble the state-equation operators from a network's operators.

    ``operators`` replaces ``cao.operators`` (a schedule's effective
    parameters; a schedule never moves an entity between operators, so the
    partition is the declared one). Disabled operators contribute no radix
    and no conversion but keep their group. Representatives rotate through
    the group: image slot a, sorted by image entity index, reads operand
    ``group[a % len(group)]``. Any choice steps alike; this one fixes the
    transfer columns ``snsq matrix`` prints.
    """
    m = cao.size
    ops = cao.operators if operators is None else operators
    radix = [_ZERO] * m
    floor_mask = [False] * m
    conversion = []
    for op in ops:
        group = op.operand_entities()
        if op.kind is CarryKind.INTEGER_FLOOR:
            for e in group:
                floor_mask[e] = True
        if not op.enabled:
            continue
        for operand in op.operands:
            radix[operand.entity] = operand.radix
        for a, image in enumerate(sorted(op.images, key=lambda im: im.entity)):
            conversion.append((image.entity, group[a % len(group)], image.coefficient))

    return StateOperators(
        names=cao.entity_names(),
        radix=tuple(radix),
        inverse_radix=tuple(_ONE / r if r != 0 else _ZERO for r in radix),
        conversion=tuple(conversion),
        partition=tuple([op.operand_entities() for op in ops]),
        floor_mask=tuple(floor_mask),
    )


def effective_operators(cao: Cao, k: int) -> StateOperators:
    """State-equation operators at step ``k``, with the schedule folded in."""
    return build_operators(cao, apply_schedule(cao, k))


def partial_carries(state: Vector, ops: StateOperators) -> Vector:
    """Per-entity carry before grouping: divide by the radix, then floor where marked."""
    return tuple(
        floor_to_integer(s * inv) if floor else s * inv
        for s, inv, floor in zip(state, ops.inverse_radix, ops.floor_mask)
    )


def common_carry(partition: tuple[tuple[int, ...], ...], carries: Vector) -> Vector:
    """Group minimum of the partial carries; an entity in no group keeps its own."""
    out = list(carries)
    for group in partition:
        if not group:
            continue
        low = min(carries[e] for e in group)
        for e in group:
            out[e] = low
    return tuple(out)


def transfer_matrix(ops: StateOperators) -> dict[tuple[int, int], Fraction]:
    """Conversion transpose minus the radix diagonal, as cells by ``(row, column)``."""
    cells = {(e, e): -r for e, r in enumerate(ops.radix)}
    for image, representative, coefficient in ops.conversion:
        cells[image, representative] = cells.get((image, representative), _ZERO) + coefficient
    return cells


def step_general(
    state: Vector, ops: StateOperators, mode: Mode = Mode.Q_PLUS, step: int = 0
) -> tuple[Vector, Vector]:
    """One step with full grouping; returns the new state and the common-carry
    vector. In Q_MINUS mode each entry of the new state is post-checked.

    Each entity keeps ``s − r·c`` plus its feeds, with no arithmetic where the
    result is known: an entity whose inverse radix is the shared zero keeps
    ``s`` itself (r = 0), a rational operand whose partial carry equals the
    common one keeps exactly 0 (c = s/r), and an exact 0 takes its first feed
    ``t`` itself (0 + t = t).
    """
    partials = partial_carries(state, ops)
    commons = common_carry(ops.partition, partials)
    new = [
        s if inv is _ZERO else _ZERO if not floor and c == p else s - r * c
        for s, r, inv, floor, p, c in zip(
            state, ops.radix, ops.inverse_radix, ops.floor_mask, partials, commons
        )
    ]
    for image, representative, coefficient in ops.conversion:
        t = coefficient * commons[representative]
        new[image] = t if new[image] is _ZERO else new[image] + t
    if mode is Mode.Q_MINUS:
        for e, value in enumerate(new):
            if value < 0:
                raise NegativeCardinalError(ops.names[e], value, step)
    return tuple(new), commons
