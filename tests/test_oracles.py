"""Oracles that share no code with either engine.

Linear networks. In a rational-exact network whose operators all have one
operand, a step drains every operand to exactly 0 and sends coefficient /
radix of it to each image. So a step is linear, s' = A·s, with
A[image][operand] = coefficient / radix, 0 on the diagonal of a drained
entity and 1 on the diagonal of any other. N steps are A^N·s0, computed
here by exact repeated squaring. A schedule changes A from segment to
segment, so on a scheduled network the state at step k is the product of
each segment's power of its own A; the oracle folds the overrides itself.

Ledgers and P-invariants (Murata, "Petri nets: properties, analysis and
applications", Proc. IEEE 77(4), 1989, §VI). Within one schedule segment,
each enabled operator has an incidence column: +coefficient at its images
and −radix at its operands. Whatever the carry kind, a step moves the state
by Σ c·column over those operators, c being each operator's common carry,
so every y with y·column = 0 for all of them keeps y·s constant across the
segment. The ledger takes each common carry from the run's records; the
invariants read nothing from a run but its states. Both hold step by step,
so they hold for every recorded prefix of a run, wherever it stops.

Firing counts. In an integer-kind network each entity is drained by at most
one operator, so in Murata's terms a step fires every transition of a
conflict-free weighted net as often as the pre-step marking allows: an
operator fires n times, n the largest count with n·radix ≤ cardinal at every
operand. The oracle finds n by repeated subtraction, with no division, floor
or minimum, the three things the engines compute the carry with.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import drawn_networks
from corpus import fed_back, random_cao, wide_cao
from snsq import matrix_engine, op_engine, run
from snsq.model import (
    Cao,
    CarryKind,
    Entity,
    Image,
    Mode,
    Operand,
    Operator,
    Override,
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


def parameters(cao: Cao) -> list[list]:
    """Each declared operator as [operand, radix, {image: coefficient}, enabled]."""
    out = []
    for op in cao.operators:
        (operand,) = op.operands
        coefficients = {image.entity: image.coefficient for image in op.images}
        out.append([operand.entity, operand.radix, coefficients, op.enabled])
    return out


def step_matrix(m: int, params: list[list]) -> list[list[Fraction]]:
    """A with s' = A·s; a disabled operator leaves its operand as it is."""
    a = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for e, radix, coefficients, enabled in params:
        if enabled:
            a[e][e] = Fraction(0)
            for i, c in coefficients.items():
                a[i][e] = c / radix
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
    a, s0 = step_matrix(cao.size, parameters(cao)), cao.initial_state()
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


def scheduled_linear_cao(rng: random.Random, max_entities: int, name: str) -> Cao:
    """A ``linear_cao`` network, ``fed_back`` so that it keeps moving, with
    overrides at one to five steps in 0..20, each a new radix, a new
    coefficient (negative only in qminus) or an enable flag."""
    base = fed_back(linear_cao(rng, max_entities, name))
    schedule = {}
    for step in rng.sample(range(21), rng.randint(1, 5)):
        overrides = []
        for _ in range(rng.randint(1, 3)):
            oi = rng.randrange(len(base.operators))
            op = base.operators[oi]
            pick = rng.choice(("radix", "coeff", "enabled"))
            value = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            if pick == "radix":
                overrides.append(Override(oi, "radix", op.operands[0].entity, value))
            elif pick == "coeff":
                if base.mode is Mode.Q_MINUS and rng.random() < 0.3:
                    value = -value
                overrides.append(Override(oi, "coeff", rng.choice(op.images).entity, value))
            else:
                overrides.append(Override(oi, "enabled", None, rng.random() < 0.5))
        schedule[step] = tuple(overrides)
    cao = Cao(name, base.entities, base.operators, base.mode, schedule)
    assert validate_cao(cao) == []
    return cao


def segment_matrices(cao: Cao) -> list[tuple[int, int | None, list[list[Fraction]]]]:
    """``(start, stop, A)`` with A holding for start <= k < stop. The schedule
    is folded here, in step order then slot order: each scheduled step
    starts a segment, and an override persists until it is overridden
    again. The network is validated, so no step is negative."""
    params = parameters(cao)
    starts = sorted({0, *cao.schedule})
    out = []
    for start, stop in zip(starts, [*starts[1:], None]):
        for ov in cao.schedule.get(start, ()):
            p = params[ov.operator]
            if ov.field == "radix":
                p[1] = ov.value
            elif ov.field == "coeff":
                p[2][ov.entity] = ov.value
            else:
                p[3] = ov.value
        out.append((start, stop, step_matrix(cao.size, params)))
    return out


def state_at(segments: list[tuple[int, int | None, list[list[Fraction]]]], k: int, s: Vector) -> Vector:
    """The state after k steps: each segment's A to the power of the steps
    it holds below k, applied in segment order."""
    for start, stop, a in segments:
        if start >= k:
            break
        s = power_apply(a, (k if stop is None else min(stop, k)) - start, s)
    return s


def assert_segment_trajectory(cao: Cao, n: int) -> int:
    """``run(cao, n)`` on both backends ends in the state the segment powers
    give for the steps it took, and a qminus violation names the first
    entity the next step drives negative. Stop reasons are not checked: a
    scheduled run may still stop early (ROADMAP item 1). Returns the steps
    taken at or after the first segment boundary."""
    segments, s0 = segment_matrices(cao), cao.initial_state()
    crossed = 0
    for backend in BACKENDS:
        outcome = run(cao, n, backend).outcome
        k = outcome.steps
        assert outcome.final_state == state_at(segments, k, s0), (cao, backend)
        if outcome.reason is StopReason.QMINUS_VIOLATION:
            nxt = state_at(segments, k + 1, s0)
            e = next(i for i, value in enumerate(nxt) if value < 0)
            assert outcome.violation == (cao.entities[e].name, nxt[e]), (cao, backend)
        else:
            assert outcome.violation is None, (cao, backend)
        if len(segments) > 1:
            crossed += max(0, k - segments[1][0])
    return crossed


def test_scheduled_linear_networks_follow_the_segment_powers():
    rng = random.Random(0x5E6)
    crossed = 0
    reasons = set()
    for case in range(60):
        cao = scheduled_linear_cao(rng, 6, f"seg{case}")
        n = rng.randint(1, 40)
        crossed += assert_segment_trajectory(cao, n)
        reasons.add(run(cao, n).outcome.reason)
    # drawn as they are, the two backends take 764 steps past a first override
    print(f"{crossed} steps taken past a segment boundary")
    assert StopReason.QMINUS_VIOLATION in reasons and StopReason.STEP_LIMIT in reasons
    assert crossed > 600


@pytest.mark.slow
def test_scheduled_linear_networks_sweep():
    rng = random.Random(0x5E7)
    for case in range(300):
        assert_segment_trajectory(scheduled_linear_cao(rng, 12, f"seg{case}"), rng.randint(1, 100))


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
    # an invariant's zero weights add nothing, so they are skipped
    return sum((a * b for a, b in zip(y, s) if a), Fraction(0))


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
                moved = [x + carry * d if d else x for x, d in zip(moved, column)]
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
        seen |= {(cao.mode, op.kind) for op in cao.operators}
        seen |= {"scheduled"} if len(list(schedule_segments(cao))) > 1 else set()
        s, c = assert_ledgers_balance(fed_back(cao), 6)
        steps, compared = steps + s, compared + c
    s, c = assert_ledgers_balance(wide_cao(rng, with_schedule=True, name="wide"), 8)
    steps, compared = steps + s, compared + c
    # drawn as they are, the 200 networks took 422 steps on the two backends,
    # even with a budget of 12
    print(f"checked {steps} steps and {compared} invariant values")
    assert seen == {(mode, kind) for mode in Mode for kind in CarryKind} | {"scheduled"}
    assert steps > 1400 and compared > 1000


@pytest.mark.slow
def test_ledgers_and_invariants_sweep():
    rng = random.Random(0x1ED6E8)
    for case in range(1500):
        assert_ledgers_balance(random_cao(rng, max_entities=12, name=f"led{case}"), rng.randint(1, 60))
    for case in range(20):
        wide = wide_cao(rng, with_schedule=rng.random() < 0.7, name=f"wide{case}")
        assert_ledgers_balance(wide, rng.randint(1, 40))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(drawn_networks())
def test_ledgers_and_invariants_hold_on_drawn_networks(cao):
    # the draws of test_matrix_engine's differential sweep: up to 64 entities
    assert_ledgers_balance(cao, 24)


@pytest.mark.slow
@settings(derandomize=True, max_examples=100, deadline=None)
@given(drawn_networks())
def test_ledgers_and_invariants_hold_on_drawn_networks_at_depth(cao):
    assert_ledgers_balance(cao, 200)


def integer_ring(rng: random.Random, name: str) -> Cao:
    """A valid integer-floor network of 6 to 16 entities, most of which keep
    moving for 25 steps: built like ``corpus.wide_cao``, its operand groups
    of one to three form a ring, each feeding every member of the next (at a
    coefficient of 1 or more) plus up to two extra images. An operator's
    coefficients add up to its operands' radices, or to the size of the next
    group where that is larger, so cardinals stay small and a firing count
    is quick to reach by repeated subtraction."""
    m = rng.randint(6, 16)
    entities = tuple(Entity(e, f"e{e}", Fraction(rng.randint(0, 40))) for e in range(m))
    pool = list(range(m))
    rng.shuffle(pool)
    groups: list[list[int]] = []
    while pool:
        groups.append([pool.pop() for _ in range(min(len(pool), rng.choice((1, 1, 2, 3))))])
    operators = []
    for g, group in enumerate(groups):
        fed = [e for e in groups[(g + 1) % len(groups)] if e not in group]
        others = [e for e in range(m) if e not in group and e not in fed]
        targets = fed + rng.sample(others, min(len(others), rng.randint(0, 2)))
        radices = [rng.randint(1, 4) for _ in group]
        coefficients = [1] * len(fed) + [0] * (len(targets) - len(fed))
        for _ in range(sum(radices) - len(fed)):
            coefficients[rng.randrange(len(targets))] += 1
        operators.append(
            Operator(
                CarryKind.INTEGER_FLOOR,
                tuple(Operand(e, Fraction(r)) for e, r in zip(group, radices)),
                tuple(Image(e, Fraction(c)) for e, c in zip(targets, coefficients)),
            )
        )
    cao = Cao(name, entities, tuple(operators))
    assert validate_cao(cao) == []
    return cao


def step_by_subtraction(cao: Cao, state: Vector) -> Vector:
    """One step of an unscheduled integer-kind network: each operator takes
    its radix from every operand for as long as every operand still holds
    it, and adds that many coefficients to each image."""
    drained, fed = list(state), [Fraction(0)] * cao.size
    for op in cao.operators:
        left = [state[operand.entity] for operand in op.operands]
        n = 0
        while all(value >= operand.radix for value, operand in zip(left, op.operands)):
            left = [value - operand.radix for value, operand in zip(left, op.operands)]
            n += 1
        for operand, value in zip(op.operands, left):
            drained[operand.entity] = value
        for image in op.images:
            fed[image.entity] += n * image.coefficient
    return tuple(d + f for d, f in zip(drained, fed))


def test_integer_firing_counts_match_both_engines():
    rng = random.Random(0x1F10)
    compared = moved = 0
    for case in range(40):
        cao = integer_ring(rng, f"int{case}")
        ops = matrix_engine.build_operators(cao)
        state = cao.initial_state()
        for k in range(25):
            expected = step_by_subtraction(cao, state)
            got, _ = op_engine.step(state, cao, k)
            assert got == expected, (cao, k, state)
            assert matrix_engine.step_general(state, ops, cao.mode, k)[0] == expected, (cao, k)
            assert all(type(v) is Fraction and v.denominator == 1 for v in got)
            compared += 1
            moved += got != state
            state = got
    # drawn as they are: 786 moving steps; a group whose members fill
    # unevenly can stall, and the ring behind it with it
    print(f"compared {compared} steps, {moved} of them moving")
    assert compared == 1000 and moved >= 750
