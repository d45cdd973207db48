"""Seeded random network generator shared by the property and acceptance tests.

Every generated network passes validate_cao before it is returned, so tests
exercise the engines only on inputs the validator admits. Generation is
driven entirely by the caller's random.Random instance: same seed, same
corpus, across runs and across machines.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

from snsq.model import (
    Cao,
    CarryKind,
    Entity,
    Image,
    Mode,
    Operand,
    Operator,
    Override,
    validate_cao,
)


def random_cao(
    rng: random.Random,
    *,
    max_entities: int = 8,
    mode: Mode | None = None,
    acyclic: bool = False,
    integer_only: bool = False,
    with_schedule: bool | None = None,
    name: str = "corpus",
) -> Cao:
    """One random valid network.

    acyclic        images always sit strictly downstream of their operands,
                   so content only flows forward and the trajectory must
                   come to rest
    integer_only   integer initials, radices, and coefficients with floor
                   carries (and qplus), so states stay integer forever
    with_schedule  force overrides on/off; None leaves it to chance
    """
    m = rng.randint(2, max_entities)

    def rational(lo: int, hi: int) -> Fraction:
        if integer_only:
            return Fraction(rng.randint(lo, hi))
        return Fraction(rng.randint(lo, hi), rng.randint(1, 12))

    if integer_only:
        mode = Mode.Q_PLUS
    elif mode is None:
        mode = rng.choice((Mode.Q_PLUS, Mode.Q_MINUS))

    entities = tuple(Entity(e, f"e{e}", rational(0, 30)) for e in range(m))

    def coefficient() -> Fraction:
        c = rational(0, 12)
        if mode is Mode.Q_MINUS and rng.random() < 0.35:
            c = -c
        return c

    order = list(range(m))
    rng.shuffle(order)
    position = {e: p for p, e in enumerate(order)}
    pool = list(order)  # an entity may be drained by at most one operator
    operators: list[Operator] = []
    target = rng.randint(1, max(1, m // 2))
    while pool and len(operators) < target:
        width = min(len(pool), rng.choice((1, 1, 2, 2, 3)))
        operand_entities = [pool.pop(0) for _ in range(width)]
        if acyclic:
            frontier = max(position[e] for e in operand_entities)
            candidates = [e for e in range(m) if position[e] > frontier]
        else:
            candidates = [e for e in range(m) if e not in operand_entities]
        if not candidates:
            continue
        images = rng.sample(candidates, min(len(candidates), rng.choice((1, 1, 2, 3))))
        kind = (
            CarryKind.INTEGER_FLOOR
            if integer_only
            else rng.choice((CarryKind.RATIONAL_EXACT, CarryKind.INTEGER_FLOOR))
        )
        operators.append(
            Operator(
                kind,
                tuple(Operand(e, rational(1, 12)) for e in operand_entities),
                tuple(Image(e, coefficient()) for e in images),
            )
        )

    schedule: dict[int, tuple[Override, ...]] = {}
    wants = with_schedule if with_schedule is not None else rng.random() < 0.3
    if wants and operators:
        for _ in range(rng.randint(1, 2)):
            step = rng.randint(1, 4)
            overrides = list(schedule.get(step, ()))
            for _ in range(rng.randint(1, 2)):
                oi = rng.randrange(len(operators))
                op = operators[oi]
                pick = rng.choice(("radix", "coeff", "enabled"))
                if pick == "radix":
                    overrides.append(
                        Override(oi, "radix", rng.choice(op.operand_entities()), rational(1, 12))
                    )
                elif pick == "coeff":
                    overrides.append(
                        Override(oi, "coeff", rng.choice(op.image_entities()), coefficient())
                    )
                else:
                    overrides.append(Override(oi, "enabled", None, rng.random() < 0.5))
            schedule[step] = tuple(overrides)

    cao = Cao(name, entities, tuple(operators), mode, schedule)
    problems = validate_cao(cao)
    assert not problems, problems
    return cao


def fed_back(cao: Cao) -> Cao:
    """``cao`` with each entity that no operator drains drained by one more
    rational operator, at radix 1, into every other entity at coefficient 1.

    A ``random_cao`` draw mostly empties into its sinks and rests within a
    step or two; fed back, it keeps moving, so per-step checks see many steps.
    The new operators come after the drawn ones, so schedule indices still hold.
    """
    drained = {e for op in cao.operators for e in op.operand_entities()}
    one = Fraction(1)
    extra = tuple(
        Operator(
            CarryKind.RATIONAL_EXACT,
            (Operand(e, one),),
            tuple(Image(i, one) for i in range(cao.size) if i != e),
        )
        for e in range(cao.size)
        if e not in drained
    )
    out = replace(cao, operators=cao.operators + extra)
    problems = validate_cao(out)
    assert not problems, problems
    return out


def wide_cao(rng: random.Random, *, with_schedule: bool = False, name: str = "wide") -> Cao:
    """One random valid network of 32 to 64 entities whose trajectory keeps moving.

    All but a few sink entities fall into operand groups of one to three;
    the groups form a ring, each feeding every member of the next, plus up
    to two random extra images. Every drained entity is thus refilled on
    every step, so the run does not settle within a few steps the way
    ``random_cao``'s sink-heavy networks do. qminus networks give some extra
    images a negative coefficient, so some runs end in a violation.
    ``with_schedule`` adds overrides at random steps 1 to 19.
    """
    m = rng.randint(32, 64)
    mode = rng.choice((Mode.Q_PLUS, Mode.Q_PLUS, Mode.Q_MINUS))

    def rational(lo: int, hi: int, den: int = 4) -> Fraction:
        return Fraction(rng.randint(lo, hi), rng.randint(1, den))

    entities = tuple(Entity(e, f"e{e}", rational(1, 60)) for e in range(m))
    pool = list(range(m))
    rng.shuffle(pool)
    del pool[: rng.randint(0, 3)]  # these stay sinks
    groups: list[list[int]] = []
    while pool:
        groups.append([pool.pop() for _ in range(min(len(pool), rng.choice((1, 1, 2, 3))))])

    operators: list[Operator] = []
    for g, group in enumerate(groups):
        fed = groups[(g + 1) % len(groups)]
        images = [Image(e, rational(1, 6, 2)) for e in fed if e not in group]
        others = [e for e in range(m) if e not in group and e not in fed]
        for e in rng.sample(others, min(len(others), rng.randint(0, 2))):
            c = rational(0, 6, 2)
            images.append(Image(e, -c if mode is Mode.Q_MINUS and rng.random() < 0.1 else c))
        operators.append(
            Operator(
                rng.choice((CarryKind.RATIONAL_EXACT, CarryKind.INTEGER_FLOOR)),
                tuple(Operand(e, rational(1, 4, 3)) for e in group),
                tuple(images),
            )
        )

    schedule: dict[int, list[Override]] = {}
    if with_schedule:
        for _ in range(rng.randint(2, 6)):
            ov = wide_override(rng, operators)
            schedule.setdefault(rng.randint(1, 19), []).append(ov)

    cao = Cao(name, entities, tuple(operators), mode, schedule)
    problems = validate_cao(cao)
    assert not problems, problems
    return cao


def wide_override(rng: random.Random, operators) -> Override:
    """One valid override of a random operator of a ``wide_cao`` network:
    a new radix or a non-negative coefficient in ``wide_cao``'s ranges, or an
    enable flag."""
    oi = rng.randrange(len(operators))
    op = operators[oi]
    pick = rng.choice(("radix", "coeff", "enabled"))
    if pick == "radix":
        entity = rng.choice(op.operand_entities())
        return Override(oi, "radix", entity, Fraction(rng.randint(1, 4), rng.randint(1, 3)))
    if pick == "coeff":
        entity = rng.choice(op.image_entities())
        return Override(oi, "coeff", entity, Fraction(rng.randint(0, 6), rng.randint(1, 2)))
    return Override(oi, "enabled", None, rng.random() < 0.5)


def decay_text(rng: random.Random) -> str:
    """perfbench's ``decay`` shape: a and b fuse into c, c spreads back over
    both; the denominators grow by about 2 bits a step and never repeat."""
    values = [Fraction(rng.randint(200, 999), rng.randint(1, 9)) for _ in "abc"]
    return (
        'cao "decay" {\n'
        + "".join(f"    entity {name} = {value};\n" for name, value in zip("abc", values))
        + "    op (a:2, b:3) -> (c:4);\n    op (c:5) -> (a:2, b:2);\n}\n"
    )


def ring_text(m: int) -> str:
    """An integer-floor ring of ``m`` entities, each feeding the next:
    ``op (e_i:2) -> (e_{i+1}:3)``, the shape of perfbench's ``chain``."""
    names = [f"e{i}" for i in range(m)]
    return (
        'cao "chain" kind integer {\n'
        + "".join(f"    entity {name} = {i % 7 + 1};\n" for i, name in enumerate(names))
        + "".join(f"    op ({a}:2) -> ({b}:3);\n" for a, b in zip(names, names[1:] + names[:1]))
        + "}\n"
    )


# Coefficients of 4 001 digits: c holds 10**8000 (8 001 digits) from step 2,
# past the 4 300-digit default int<->str limit.
PAST_THE_LIMIT_TEXT = (
    f'cao "big" {{ entity a = 1; entity b, c = 0;'
    f" op (a:1) -> (b:1{'0' * 4000}); op (b:1) -> (c:1{'0' * 4000}); }}\n"
)
