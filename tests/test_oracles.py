"""An oracle that shares no code with either engine: linear networks.

In a rational-exact network whose operators all have one operand, a step
drains every operand to exactly 0 and sends coefficient / radix of it to
each image. So a step is linear, s' = A·s, with A[image][operand] =
coefficient / radix, 0 on the diagonal of a drained entity and 1 on the
diagonal of any other. N steps are A^N·s0, computed here by exact repeated
squaring.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from snsq import run
from snsq.model import Cao, CarryKind, Entity, Image, Mode, Operand, Operator, validate_cao
from snsq.runner import StopReason

Vector = tuple[Fraction, ...]


def linear_cao(rng: random.Random, max_entities: int, name: str) -> Cao:
    """A random valid network of one-operand rational operators; in qminus,
    some coefficients are negative. One in five drains every entity into
    one image at coefficient = radix, so content only moves and the
    trajectory ends in a cycle."""
    m = rng.randint(2, max_entities)
    mode = rng.choice((Mode.Q_PLUS, Mode.Q_MINUS))

    def rational(lo: int, hi: int) -> Fraction:
        return Fraction(rng.randint(lo, hi), rng.randint(1, 12))

    def coefficient() -> Fraction:
        c = rational(0, 12)
        return -c if mode is Mode.Q_MINUS and rng.random() < 0.2 else c

    conserving = rng.random() < 0.2
    operators = []
    for e in range(m) if conserving else rng.sample(range(m), rng.randint(1, m)):
        radix = rational(1, 12)
        others = [i for i in range(m) if i != e]
        if conserving:
            images = (Image(rng.choice(others), radix),)
        else:
            images = tuple(
                Image(i, coefficient()) for i in rng.sample(others, rng.randint(1, min(3, m - 1)))
            )
        operators.append(Operator(CarryKind.RATIONAL_EXACT, (Operand(e, radix),), images))
    entities = tuple(Entity(e, f"e{e}", rational(0, 30)) for e in range(m))
    cao = Cao(name, entities, tuple(operators), mode)
    assert validate_cao(cao) == []
    return cao


def step_matrix(cao: Cao) -> list[list[Fraction]]:
    """A with s' = A·s, read from the operators' declared parameters."""
    m = cao.size
    a = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for op in cao.operators:
        (operand,) = op.operands
        a[operand.entity][operand.entity] = Fraction(0)
        for image in op.images:
            a[image.entity][operand.entity] = image.coefficient / operand.radix
    return a


def matmul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    columns = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a]


def power_apply(a: list[list[Fraction]], n: int, s: Vector) -> Vector:
    """A^n·s, squaring A once per bit of n."""
    out = [[value] for value in s]
    while n:
        if n & 1:
            out = matmul(a, out)
        a = matmul(a, a)
        n >>= 1
    return tuple(Fraction(row[0]) for row in out)


def assert_linear_trajectory(cao: Cao, n: int) -> None:
    """``run(cao, n)`` on both backends ends where A^k·s0 says it must."""
    a, s0 = step_matrix(cao), cao.initial_state()
    for backend in ("operator", "matrix"):
        outcome = run(cao, n, backend).outcome
        k = outcome.steps
        assert outcome.final_state == power_apply(a, k, s0), (cao, backend)
        if outcome.reason is StopReason.QMINUS_VIOLATION:
            nxt = power_apply(a, k + 1, s0)
            e = next(i for i, value in enumerate(nxt) if value < 0)
            assert outcome.violation == (cao.entities[e].name, nxt[e]), (cao, backend)
        elif outcome.reason is StopReason.CYCLE_DETECTED:
            j = outcome.revisit_of
            expected = power_apply(a, j + (n - j) % (k - j), s0)
            assert power_apply(a, n, s0) == expected, (cao, backend)
        else:  # a step limit (k == n) or a fixed point: A^n·s0 is the final state
            assert power_apply(a, n, s0) == outcome.final_state, (cao, backend)


def test_linear_networks_follow_the_matrix_power():
    rng = random.Random(0x11AE)
    reasons = set()
    for case in range(100):
        cao = linear_cao(rng, 7, f"lin{case}")
        n = rng.randint(1, 40)
        assert_linear_trajectory(cao, n)
        reasons.add(run(cao, n).outcome.reason)
    assert reasons == set(StopReason)


@pytest.mark.slow
def test_linear_networks_sweep():
    rng = random.Random(0x5EEB)
    for case in range(600):
        assert_linear_trajectory(linear_cao(rng, 12, f"lin{case}"), rng.randint(1, 100))
