import ast
import random
from fractions import Fraction as Fr
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import REF7_CARRIES, REF7_STATES, build_ref7, build_signed_inflow, densify, drawn_networks
from corpus import fed_back, random_cao, wide_cao
from snsq.dsl import parse, serialize
from snsq.matrix_engine import (
    build_operators,
    common_carry,
    effective_operators,
    partial_carries,
    step_general,
    transfer_matrix,
)
from snsq.model import (
    Cao,
    CarryKind,
    Entity,
    Image,
    Mode,
    NegativeCardinalError,
    Operand,
    Operator,
    Override,
    schedule_segments,
)
from snsq.op_engine import common_carry_vector, step
from snsq.runner import EquivalenceReport, check_equivalence

# (image, representative, coefficient): each image coefficient reads the
# carry of exactly one operand of its operator; with the group minimum
# equalizing a group's carries, one operand is enough, and reading every
# operand would double-count fused inflows.
REF7_CONVERSION = (
    (2, 0, 1),  # d <- i carries the fused pair's first image
    (3, 1, 2),  # s <- j carries its second
    (4, 2, 2),
    (4, 3, 1),
    (5, 3, 3),
    (6, 4, 1),  # h <- g, representative of the (g, u) group
)

REF7_TRANSFER = (
    (-10, 0, 0, 0, 0, 0, 0),
    (0, -8, 0, 0, 0, 0, 0),
    (1, 0, -8, 0, 0, 0, 0),
    (0, 2, 0, -10, 0, 0, 0),
    (0, 0, 2, 1, -4, 0, 0),
    (0, 0, 0, 3, 0, -2, 0),
    (0, 0, 0, 0, 1, 0, 0),
)


def as_grid(rows):
    return tuple(tuple(Fr(c) for c in row) for row in rows)


class TestBuildOperators:
    def test_ref7_diagonals(self):
        ops = build_operators(build_ref7())
        assert ops.radix == (10, 8, 8, 10, 4, 2, 0)
        assert ops.inverse_radix == (
            Fr(1, 10), Fr(1, 8), Fr(1, 8), Fr(1, 10), Fr(1, 4), Fr(1, 2), 0
        )

    def test_ref7_conversion_uses_one_column_per_image(self):
        ops = build_operators(build_ref7())
        assert ops.conversion == REF7_CONVERSION

    def test_ref7_transfer(self):
        ops = build_operators(build_ref7())
        assert densify(transfer_matrix(ops), 7) == as_grid(REF7_TRANSFER)

    def test_ref7_floor_mask_and_partition(self):
        ops = build_operators(build_ref7())
        assert ops.floor_mask == (False,) * 7
        assert ops.partition == ((0, 1), (2,), (3,), (4, 5))  # h, entity 6, is a sink

    def test_floor_mask_marks_floor_operands(self):
        ops = build_operators(build_signed_inflow())
        assert ops.floor_mask == (True, True, False)


class TestCarries:
    def test_partial_carries_divide_and_floor(self):
        ops = build_operators(build_signed_inflow())
        assert partial_carries((Fr(21), Fr(27), Fr(5)), ops) == (2, 3, 0)

    def test_group_minimum_and_sink_pinning(self):
        # Sinks are pinned before the minimum, by their zero inverse radix
        # (TestSinkCarries); common_carry only equalizes each group.
        carries = (Fr(5), Fr(3), Fr(9), Fr(7))
        assert common_carry(((0, 1),), carries) == (3, 3, 9, 7)

    def test_an_empty_group_changes_nothing(self):
        # a valid network has none (empty-operands), but the function takes any partition
        carries = (Fr(5), Fr(3), Fr(9))
        assert common_carry(((), (1, 2), ()), carries) == (5, 3, 3)

    def test_ref7_step0_commons(self):
        ops = build_operators(build_ref7())
        commons = common_carry(ops.partition, partial_carries(REF7_STATES[0], ops))
        assert commons == REF7_CARRIES[0]


class TestSinkCarries:
    """A sink, or an operand of a disabled operator, has a zero inverse
    radix, so its partial carry is 0 before any group minimum is taken."""

    def test_sinks_and_disabled_operands_carry_nothing(self):
        rng = random.Random(11)
        networks = [random_cao(rng, with_schedule=True, name=f"sink{case}") for case in range(60)]
        networks += [wide_cao(rng, with_schedule=True, name=f"wide{case}") for case in range(4)]
        networks.append(Cao("sinks", (Entity(0, "a", 1), Entity(1, "b", 2))))  # no operator at all
        held = disabled = 0  # checks of an entity holding a non-zero cardinal; disabled operators seen
        for cao in networks:
            segments, stop = schedule_segments(cao), 0
            state = cao.initial_state()
            for k in range(8):
                if k == stop:  # the last segment's stop is None
                    _, stop, operators = next(segments)
                    ops = build_operators(cao, operators)
                    drained = {e for op in operators if op.enabled for e in op.operand_entities()}
                    idle = [e for e in range(cao.size) if e not in drained]
                    disabled += sum(not op.enabled for op in operators)
                carries = partial_carries(state, ops)
                commons = common_carry(ops.partition, carries)
                for e in idle:
                    assert carries[e] == 0 and commons[e] == 0, (cao.name, k, e)
                    held += state[e] != 0
                try:
                    state, _ = step_general(state, ops, cao.mode, k)
                except NegativeCardinalError:
                    break
        assert held > 100 and disabled > 10, (held, disabled)


class TestSteps:
    def test_ref7_trajectory_matches_frozen_oracle(self):
        cao = build_ref7()
        ops = build_operators(cao)
        state = cao.initial_state()
        for k in range(3):
            state, commons = step_general(state, ops, cao.mode, k)
            assert state == REF7_STATES[k + 1]
            assert commons == REF7_CARRIES[k]
        settled, _ = step_general(state, ops, cao.mode, 3)
        assert settled == state

    def test_signed_inflow_step_and_violation(self):
        cao = build_signed_inflow()
        ops = build_operators(cao)
        new, _ = step_general(cao.initial_state(), ops, cao.mode)
        assert new == (1, 3, 8)

        bad = build_signed_inflow(loss=-5)
        with pytest.raises(NegativeCardinalError) as err:
            step_general(bad.initial_state(), build_operators(bad), bad.mode, 0)
        assert err.value.entity == "s"
        assert err.value.value == -4

    def test_scheduled_steps_fold_in_overrides(self):
        cao = Cao(
            "drip",
            (Entity(0, "tank", 7), Entity(1, "cup", 0)),
            (Operator(CarryKind.INTEGER_FLOOR, (Operand(0, 4),), (Image(1, 1),)),),
            schedule={
                1: (Override(0, "radix", 0, Fr(2)),),
                2: (Override(0, "radix", 0, Fr(1)),),
            },
        )
        expected = ((7, 0), (3, 1), (1, 2), (0, 3))
        state = cao.initial_state()
        for k in range(3):
            assert state == expected[k]
            state, _ = step_general(state, effective_operators(cao, k), cao.mode, k)
        assert state == expected[3]

    def test_disabling_zeroes_cells_but_not_the_partition(self):
        cao = Cao(
            "toggle",
            (Entity(0, "a", 9), Entity(1, "b", 0)),
            (Operator(CarryKind.RATIONAL_EXACT, (Operand(0, 3),), (Image(1, 1),)),),
            schedule={1: (Override(0, "enabled", None, False),)},
        )
        live = effective_operators(cao, 0)
        dead = effective_operators(cao, 1)
        assert live.radix == (3, 0) and dead.radix == (0, 0)
        assert live.conversion == ((1, 0, 1),) and dead.conversion == ()
        assert dead.partition == live.partition == ((0,),)
        state, commons = step_general((Fr(9), Fr(0)), dead, cao.mode, 1)
        assert state == (9, 0) and commons == (0, 0)


def both_steps(cao):
    """Step 0 of ``cao`` on each engine: the new state, or the refusal's
    (entity, value)."""
    out = []
    for stepper in (
        lambda: step(cao.initial_state(), cao)[0],
        lambda: step_general(cao.initial_state(), build_operators(cao), cao.mode)[0],
    ):
        try:
            out.append(stepper())
        except NegativeCardinalError as err:
            out.append((err.entity, err.value))
    return out


class TestExactResults:
    """``step_general`` skips arithmetic whose result it knows: an entity with
    the shared zero inverse radix keeps its cardinal, a rational operand whose
    partial carry is the common one keeps 0, and an exact 0 takes its first
    feed. Each case must step as ``s − r·c`` plus every feed, as on the
    operator engine."""

    def test_a_rational_tie_leaves_every_tied_operand_zero(self, monkeypatch):
        cao = Cao(
            "tie",
            (Entity(0, "a", 2), Entity(1, "b", 3), Entity(2, "c", 0)),
            (Operator(CarryKind.RATIONAL_EXACT, (Operand(0, 2), Operand(1, 3)), (Image(2, 1),)),),
        )
        assert both_steps(cao) == [(0, 0, 1)] * 2
        subtractions = 0
        real = Fr.__sub__

        def counting(a, b):
            nonlocal subtractions
            subtractions += 1
            return real(a, b)

        monkeypatch.setattr(Fr, "__sub__", counting)
        step_general(cao.initial_state(), build_operators(cao))
        assert subtractions == 0
        monkeypatch.undo()
        assert check_equivalence(cao, 5) == EquivalenceReport(True, 1)

    def test_an_integer_operand_keeps_its_cardinal_mod_radix(self):
        cao = Cao(
            "floor",
            (Entity(0, "a", 5), Entity(1, "b", 0)),
            (Operator(CarryKind.INTEGER_FLOOR, (Operand(0, 2),), (Image(1, 1),)),),
        )
        assert both_steps(cao) == [(1, 2)] * 2
        assert check_equivalence(cao, 5) == EquivalenceReport(True, 1)

    def test_a_drained_entity_fed_twice_gets_both_feeds(self):
        # x empties (4/2 = 2 is its own common carry), then takes 1·3 from y
        # and 2·5 from z in the same step
        cao = Cao(
            "refill",
            (Entity(0, "x", 4), Entity(1, "y", 3), Entity(2, "z", 5)),
            (
                Operator(CarryKind.RATIONAL_EXACT, (Operand(0, 2),), (Image(1, 1),)),
                Operator(CarryKind.RATIONAL_EXACT, (Operand(1, 1),), (Image(0, 1),)),
                Operator(CarryKind.RATIONAL_EXACT, (Operand(2, 1),), (Image(0, 2),)),
            ),
        )
        assert both_steps(cao) == [(13, 2, 0)] * 2
        assert check_equivalence(cao, 5) == EquivalenceReport(True, 5)

    def test_a_negative_feed_into_an_exact_zero_is_refused_alike(self):
        cao = Cao(
            "undercut",
            (Entity(0, "a", 4), Entity(1, "b", 6)),
            (
                Operator(CarryKind.RATIONAL_EXACT, (Operand(0, 2),), (Image(1, 1),)),
                Operator(CarryKind.RATIONAL_EXACT, (Operand(1, 3),), (Image(0, -1),)),
            ),
            mode=Mode.Q_MINUS,
        )
        assert both_steps(cao) == [("a", -2)] * 2
        assert check_equivalence(cao, 5) == EquivalenceReport(True, 0)

    def test_sinks_and_disabled_operands_keep_their_cardinal_objects(self):
        rng = random.Random(0x1D)
        networks = [random_cao(rng, with_schedule=True, name=f"idle{case}") for case in range(150)]
        networks += [wide_cao(rng, with_schedule=True, name=f"wide{case}") for case in range(4)]
        kept = disabled = 0  # entities checked; of them, operands of a disabled operator
        for cao in networks:
            for _, _, operators in schedule_segments(cao):
                ops = build_operators(cao, operators)
                enabled = [op for op in operators if op.enabled]
                drained = {e for op in enabled for e in op.operand_entities()}
                fed = {e for op in enabled for e in op.image_entities()}
                off = {e for op in operators if not op.enabled for e in op.operand_entities()}
                state = tuple(Fr(rng.randint(0, 90), rng.randint(1, 6)) for _ in range(cao.size))
                new, _ = step_general(state, ops)
                for e in range(cao.size):
                    if e not in drained and e not in fed:
                        assert new[e] is state[e], (cao.name, e)
                        kept += 1
                        disabled += e in off
        # drawn as they are: 520 entities checked, 54 of them disabled operands
        assert kept > 400 and disabled > 40, (kept, disabled)


class TestTransferMatrix:
    """``transfer_matrix``, the table ``snsq matrix`` prints, is the operator
    ``step_general`` steps with: next = state + T · commons."""

    def test_step_is_state_plus_transfer_times_commons(self):
        rng = random.Random(21)
        networks = [random_cao(rng, with_schedule=True, name=f"t{case}") for case in range(60)]
        networks += [wide_cao(rng, with_schedule=True, name=f"wide{case}") for case in range(6)]
        checked = moved = 0
        for cao in networks:
            for _, _, operators in schedule_segments(cao):
                ops = build_operators(cao, operators)
                rows = [[] for _ in range(cao.size)]
                for (i, j), t in transfer_matrix(ops).items():
                    rows[i].append((j, t))
                states = [cao.initial_state()]
                states += [
                    tuple(Fr(rng.randint(0, 90), rng.randint(1, 6)) for _ in range(cao.size))
                    for _ in range(3)
                ]
                for state in states:
                    new, commons = step_general(state, ops)
                    for i, row in enumerate(rows):
                        assert new[i] == state[i] + sum(t * commons[j] for j, t in row), (cao.name, i)
                    checked += 1
                    moved += new != state
        assert checked > 300 and moved > 200, (checked, moved)


class TestBackendAgreement:
    def test_random_networks_agree_step_by_step(self):
        rng = random.Random(7)
        moved = 0
        for case in range(60):
            cao = fed_back(random_cao(rng, name=f"agree{case}"))
            static = build_operators(cao) if not cao.schedule else None
            state = cao.initial_state()
            for k in range(5):
                op_err = mx_err = None
                try:
                    nxt_o, firings = step(state, cao, k)
                    commons_o = common_carry_vector(firings, cao.size)
                except NegativeCardinalError as err:
                    op_err = (err.entity, err.value)
                try:
                    ops = static if static is not None else effective_operators(cao, k)
                    nxt_m, commons_m = step_general(state, ops, cao.mode, k)
                except NegativeCardinalError as err:
                    mx_err = (err.entity, err.value)
                assert op_err == mx_err
                if op_err is not None:
                    break
                assert commons_o == commons_m
                assert nxt_o == nxt_m
                moved += nxt_o != state
                state = nxt_o
        # drawn as they are, these networks moved on 41 of the 300 steps
        print(f"compared {moved} steps that moved the state")
        assert moved >= 150


    def test_wide_networks_agree(self):
        m = 128
        ring = Cao(
            "ring",
            tuple(Entity(i, f"e{i}", Fr(2 + i % 30)) for i in range(m)),
            tuple(
                Operator(CarryKind.INTEGER_FLOOR, (Operand(i, 2),), (Image((i + 1) % m, 3),))
                for i in range(m)
            ),
        )
        assert check_equivalence(ring, 20) == EquivalenceReport(True, 20)

        rng = random.Random(0x5CA1E)
        wide = [
            wide_cao(rng, with_schedule=case % 3 == 0, name=f"wide{case}")
            for case in range(20)
        ]
        assert sum(1 for cao in wide if cao.schedule) >= 5
        assert all(any(len(op.operands) > 1 for op in cao.operators) for cao in wide)
        reports = [check_equivalence(cao, 20) for cao in wide]
        assert all(report.equivalent for report in reports), reports
        # Most trajectories keep moving for all 20 steps; the rest end in a
        # qminus violation that both backends must report alike.
        assert sum(report.steps == 20 for report in reports) >= 12


def assert_agreement_and_round_trip(cao, budget):
    assert check_equivalence(cao, budget).equivalent
    assert parse(serialize(cao)).cao == cao


class TestDifferentialSweep:
    """Both engines agree, and the text form round-trips, on networks drawn
    well beyond the gate's 2–8 entities (McKeeman, "Differential testing for
    software", DTJ 10(1), 1998)."""

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(drawn_networks())
    def test_drawn_networks_agree_and_round_trip(self, cao):
        assert_agreement_and_round_trip(cao, 24)

    @pytest.mark.slow
    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(drawn_networks())
    def test_drawn_networks_agree_and_round_trip_at_depth(self, cao):
        assert_agreement_and_round_trip(cao, 200)


def test_matrix_engine_does_not_import_op_engine():
    # nor reach into Fraction's slots, as the operator engine's int arithmetic
    # does: the cross-check backend computes with the stdlib operators
    source = Path(__file__).resolve().parent.parent / "src" / "snsq" / "matrix_engine.py"
    imported = set()
    slots = set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute) and node.attr in ("_numerator", "_denominator"):
            slots.add(f"line {node.lineno}: .{node.attr}")
    assert imported, "no imports found; is the path right?"
    assert not any(
        name == "snsq.op_engine" or name.startswith("snsq.op_engine.") for name in imported
    ), sorted(imported)
    assert not slots, sorted(slots)
