"""Oracles that share no code with either engine.

Linear networks. In a rational-exact network whose operators all have one
operand, a step drains every operand to exactly 0 and sends coefficient /
radix of it to each image. So a step is linear, s' = A·s, with
A[image][operand] = coefficient / radix, 0 on the diagonal of a drained
entity and 1 on the diagonal of any other. N steps are A^N·s0, computed
here by exact repeated squaring.

Ledgers and P-invariants (Murata, "Petri nets: properties, analysis and
applications", Proc. IEEE 77(4), 1989, §VI). Within one schedule segment,
each enabled operator has an incidence column: +coefficient at its images
and −radix at its operands. Whatever the carry kind, a step moves the state
by Σ c·column over those operators, c being each operator's common carry,
so every y with y·column = 0 for all of them keeps y·s constant across the
segment. The ledger takes each common carry from the run's records; the
invariants read nothing from a run but its states. Both hold step by step,
so they hold for every recorded prefix of a run, wherever it stops.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest

from corpus import random_cao, wide_cao
from snsq import run
from snsq.model import (
    Cao,
    CarryKind,
    Entity,
    Image,
    Mode,
    Operand,
    Operator,
    schedule_segments,
    validate_cao,
)
from snsq.runner import BACKENDS, StopReason

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


def incidence(cao: Cao, operators: tuple[Operator, ...]) -> list[tuple[Operator, list[Fraction]]]:
    """Each enabled operator with its incidence column, read from its parameters."""
    columns = []
    for op in operators:
        if op.enabled:
            column = [Fraction(0)] * cao.size
            for image in op.images:
                column[image.entity] += image.coefficient
            for operand in op.operands:
                column[operand.entity] -= operand.radix
            columns.append((op, column))
    return columns


def left_null_space(columns: list[list[Fraction]], m: int) -> list[list[Fraction]]:
    """A basis of {y : y·column = 0 for every column}, by exact Gauss-Jordan
    elimination of the system whose rows are the columns."""
    rows = [list(column) for column in columns]
    pivots: list[int] = []
    for j in range(m):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][j] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][j] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[j] != 0:
                rows[i] = [x - row[j] * y for x, y in zip(row, rows[r])]
        pivots.append(j)
    basis = []
    for free in (j for j in range(m) if j not in pivots):
        y = [Fraction(0)] * m
        y[free] = Fraction(1)
        for row, j in zip(rows, pivots):
            y[j] = -row[free]
        basis.append(y)
    return basis


def test_left_null_space_of_a_transfer():
    # a -> b at radix 2 and coefficient 3 keeps 3/2·a + b constant
    assert left_null_space([[Fraction(-2), Fraction(3), Fraction(0)]], 3) == [
        [Fraction(3, 2), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]


def dot(y: list[Fraction], s: Vector) -> Fraction:
    return sum((a * b for a, b in zip(y, s)), Fraction(0))


def assert_ledgers_balance(cao: Cao, n: int) -> tuple[int, int]:
    """On both backends, each recorded step of ``run(cao, n)`` moves the state
    by Σ c·column over its segment's enabled operators, c read from the
    record's common carry at the operator's first operand, and keeps every
    P-invariant of that segment. Returns the steps checked and the invariant
    values compared."""
    segments = [(stop, operators) for _, stop, operators in schedule_segments(cao)]

    @functools.cache
    def oracle(i: int) -> tuple[list[tuple[Operator, list[Fraction]]], list[list[Fraction]]]:
        columns = incidence(cao, segments[i][1])
        invariants = left_null_space([column for _, column in columns], cao.size)
        for y in invariants:
            assert all(dot(y, tuple(column)) == 0 for _, column in columns)
        return columns, invariants

    steps = compared = 0
    for backend in BACKENDS:
        records = run(cao, n, backend).records
        for before, after in zip(records, records[1:]):
            i = next(i for i, (stop, _) in enumerate(segments) if stop is None or before.step < stop)
            columns, invariants = oracle(i)
            moved = [Fraction(0)] * cao.size
            for op, column in columns:
                carry = before.common_carry[op.operands[0].entity]
                moved = [x + carry * d for x, d in zip(moved, column)]
            assert [b - a for a, b in zip(before.state, after.state)] == moved, (cao, backend, before.step)
            for y in invariants:
                assert dot(y, after.state) == dot(y, before.state), (cao, backend, before.step, y)
            steps += 1
            compared += len(invariants)
    return steps, compared


def test_ledgers_and_invariants_hold_on_random_networks():
    rng = random.Random(0x1ED6E7)
    steps = compared = 0
    seen = set()
    for case in range(200):
        mode = (Mode.Q_PLUS, Mode.Q_MINUS)[case % 2]
        cao = random_cao(rng, mode=mode, with_schedule=case % 3 != 0, name=f"led{case}")
        s, c = assert_ledgers_balance(cao, 12)
        steps, compared = steps + s, compared + c
        seen |= {(cao.mode, op.kind) for op in cao.operators}
        seen |= {"scheduled"} if len(list(schedule_segments(cao))) > 1 else set()
    s, c = assert_ledgers_balance(wide_cao(rng, with_schedule=True, name="wide"), 8)
    steps, compared = steps + s, compared + c
    assert seen == {(mode, kind) for mode in Mode for kind in CarryKind} | {"scheduled"}
    assert steps > 300 and compared > 1000


@pytest.mark.slow
def test_ledgers_and_invariants_sweep():
    rng = random.Random(0x1ED6E8)
    for case in range(1500):
        assert_ledgers_balance(random_cao(rng, max_entities=12, name=f"led{case}"), rng.randint(1, 60))
    for case in range(20):
        wide = wide_cao(rng, with_schedule=rng.random() < 0.7, name=f"wide{case}")
        assert_ledgers_balance(wide, rng.randint(1, 40))
