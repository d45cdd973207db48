import operator
from fractions import Fraction as Fr
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import REF7_CARRIES, REF7_STATES, build_ref7, build_signed_inflow
from snsq import op_engine
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
    validate_cao,
)
from snsq.matrix_engine import build_operators, step_general
from snsq.op_engine import common_carry_vector, fire_operator, step
from snsq.runner import EquivalenceReport, check_equivalence

RATIONAL = CarryKind.RATIONAL_EXACT
FLOOR = CarryKind.INTEGER_FLOOR

positive = st.fractions(min_value=Fr(1, 1000), max_value=1000)
cardinals = st.fractions(min_value=0, max_value=1000)


def partial_carry(cardinal, radix, kind):
    """The partial carry that a one-operand operator of ``kind`` computes for
    an operand holding ``cardinal`` at ``radix``."""
    op = Operator(kind, (Operand(0, radix),), (Image(1, 1),))
    (carry,) = fire_operator((Fr(cardinal), Fr(0)), op, 0).partial_carries
    return carry


class TestPartialCarry:
    def test_rational_is_plain_division(self):
        assert partial_carry(7, Fr(1, 3), RATIONAL) == 21
        assert partial_carry(3, Fr(2, 5), RATIONAL) == Fr(15, 2)

    def test_floor_truncates_toward_minus_infinity(self):
        assert partial_carry(21, 10, FLOOR) == 2
        assert partial_carry(27, 8, FLOOR) == 3
        assert partial_carry(7, 2, FLOOR) == 3
        assert partial_carry(-7, 2, FLOOR) == -4  # only an unvalidated network holds -7
        assert type(partial_carry(7, 2, FLOOR)) is Fr

    @given(cardinals, positive)
    def test_floor_never_exceeds_exact(self, c, n):
        exact = partial_carry(c, n, RATIONAL)
        floored = partial_carry(c, n, FLOOR)
        assert floored <= exact < floored + 1
        assert floored.denominator == 1


class TestSingleFirings:
    def test_two_operand_fusion_with_fractional_radices(self):
        # operands hold 7 and 3 against radices 1/3 and 2/5; the slower
        # operand caps the common carry at 15/2 and empties exactly
        op = Operator(RATIONAL, (Operand(0, Fr(1, 3)), Operand(1, Fr(2, 5))), (Image(2, Fr(2, 7)),))
        firing = fire_operator((Fr(7), Fr(3), Fr(1)), op, 0)
        assert firing.partial_carries == (21, Fr(15, 2))
        assert firing.common == Fr(15, 2)
        assert firing.remainders == (Fr(9, 2), 0)
        assert firing.transformants == (Fr(15, 7),)

        cao = Cao(
            "fuse",
            (Entity(0, "i", 7), Entity(1, "j", 3), Entity(2, "h", 1)),
            (op,),
        )
        new, firings = step((Fr(7), Fr(3), Fr(1)), cao)
        assert new == (Fr(9, 2), 0, Fr(22, 7))
        assert len(firings) == 1

    def test_plain_carry_empties_its_operand(self):
        op = Operator(RATIONAL, (Operand(0, 2),), (Image(1, 3),))
        firing = fire_operator((Fr(8), Fr(1)), op, 0)
        assert firing.common == 4
        assert firing.remainders == (0,)
        assert firing.transformants == (12,)

    def test_distribution_scales_each_image(self):
        op = Operator(RATIONAL, (Operand(0, 10),), (Image(1, 1), Image(2, 2)))
        cao = Cao("d", (Entity(0, "a", 5), Entity(1, "b", 0), Entity(2, "c", 0)), (op,))
        new, _ = step((Fr(5), Fr(0), Fr(0)), cao)
        assert new == (0, Fr(1, 2), 1)

    def test_floor_kind_leaves_integer_remainders(self):
        cao = build_signed_inflow()
        new, firings = step(cao.initial_state(), cao)
        assert new == (1, 3, 8)
        assert firings[0].partial_carries == (2,)
        assert firings[0].transformants == (6,)
        assert firings[1].partial_carries == (3,)
        assert firings[1].transformants == (-3,)
        assert firings[0].remainders == (1,)
        assert firings[1].remainders == (3,)


class TestStepSemantics:
    def test_ref7_trajectory_and_carries(self):
        cao = build_ref7()
        state = cao.initial_state()
        assert state == REF7_STATES[0]
        for k in range(3):
            state, firings = step(state, cao, k)
            assert state == REF7_STATES[k + 1]
            assert common_carry_vector(firings, cao.size) == REF7_CARRIES[k]
        again, _ = step(state, cao, 3)
        assert again == state  # settled

    def test_all_firings_read_the_same_snapshot(self):
        # b is drained and fed in the same step; both effects must use b's
        # value from the start of the step, not a half-updated one
        cao = Cao(
            "chain",
            (Entity(0, "a", 4), Entity(1, "b", 6), Entity(2, "c", 0)),
            (
                Operator(RATIONAL, (Operand(0, 2),), (Image(1, 5),)),
                Operator(RATIONAL, (Operand(1, 3),), (Image(2, 1),)),
            ),
        )
        new, _ = step(cao.initial_state(), cao)
        assert new == (0, 10, 2)

    def test_a_drained_operand_fed_twice_gets_both_feeds(self):
        # a is drained to exactly 0 and fed by two operators in the same step:
        # it takes the first feed as it is and adds the second
        cao = Cao(
            "refill",
            (Entity(0, "a", 6), Entity(1, "b", 4), Entity(2, "c", 9)),
            (
                Operator(RATIONAL, (Operand(0, 2),), (Image(1, 1),)),
                Operator(RATIONAL, (Operand(1, 2),), (Image(0, 3),)),
                Operator(RATIONAL, (Operand(2, 3),), (Image(0, Fr(1, 2)),)),
            ),
        )
        assert not validate_cao(cao)
        new, firings = step(cao.initial_state(), cao)
        assert firings[0].remainders == (0,)
        t1, t2 = firings[1].transformants[0], firings[2].transformants[0]
        assert (t1, t2) == (6, Fr(3, 2))
        assert new == (t1 + t2, 3, 0)
        assert check_equivalence(cao, 20) == EquivalenceReport(True, 20)

    def test_a_drained_operand_nothing_feeds_stays_zero(self):
        cao = Cao(
            "drain",
            (Entity(0, "a", 6), Entity(1, "b", 1)),
            (Operator(RATIONAL, (Operand(0, 2),), (Image(1, 1),)),),
        )
        assert not validate_cao(cao)
        new, firings = step(cao.initial_state(), cao)
        assert firings[0].remainders == (0,)
        assert new == (0, 4) and type(new[0]) is Fr
        assert check_equivalence(cao, 5) == EquivalenceReport(True, 1)

    def test_disabled_operator_is_absent(self):
        cao = build_ref7()
        ops = list(cao.operators)
        ops[0] = Operator(ops[0].kind, ops[0].operands, ops[0].images, enabled=False)
        disabled = Cao(cao.name, cao.entities, tuple(ops))
        new, firings = step(disabled.initial_state(), disabled)
        assert len(firings) == 3
        assert {f.operator for f in firings} == {1, 2, 3}
        assert new == disabled.initial_state()  # nothing downstream had content

    def test_schedule_changes_take_effect_at_their_step(self):
        cao = Cao(
            "drip",
            (Entity(0, "tank", 7), Entity(1, "cup", 0)),
            (Operator(FLOOR, (Operand(0, 4),), (Image(1, 1),)),),
            schedule={
                1: (Override(0, "radix", 0, Fr(2)),),
                2: (Override(0, "radix", 0, Fr(1)),),
            },
        )
        expected = ((7, 0), (3, 1), (1, 2), (0, 3))
        state = cao.initial_state()
        for k in range(3):
            assert state == expected[k]
            state, _ = step(state, cao, k)
        assert state == expected[3]

    def test_qminus_post_check_names_the_entity(self):
        # s would land at 5 + 3*2 - 5*3 = -4
        cao = build_signed_inflow(loss=-5)
        with pytest.raises(NegativeCardinalError) as err:
            step(cao.initial_state(), cao, 0)
        assert err.value.entity == "s"
        assert err.value.value == -4
        assert err.value.step == 0
        assert "'s'" in str(err.value) and "-4" in str(err.value)

    def test_qminus_zero_is_still_legal(self):
        # 5 + 3*2 + 3*(-11/3) is exactly 0, which is still a cardinal
        cao = build_signed_inflow(loss=Fr(-11, 3))
        new, _ = step(cao.initial_state(), cao)
        assert new == (1, 3, 0)

    def test_common_carry_vector_marks_operands_only(self):
        cao = build_ref7()
        _, firings = step(cao.initial_state(), cao)
        vector = common_carry_vector(firings, cao.size)
        assert vector == REF7_CARRIES[0]
        assert vector[6] == 0  # h is a sink


# a = 6, drained by two operators: a network the validator rejects
SHARED_DRAIN = Cao(
    "shared",
    (Entity(0, "a", 6), Entity(1, "b", 0), Entity(2, "c", 0)),
    (
        Operator(RATIONAL, (Operand(0, 2),), (Image(1, 1),)),
        Operator(RATIONAL, (Operand(0, 3),), (Image(2, 1),)),
    ),
)


class TestUnvalidatedNetworks:
    """``step`` does not validate. On a network with an entity that two
    operand slots drain, each slot's entity is left its operator's remainder,
    the later operator's when two operators drain it. ``step_general`` keeps
    one radix and one carry for that entity, the later operator's."""

    def test_a_repeated_operand_is_left_its_remainder(self):
        cao = Cao(
            "twice",
            (Entity(0, "a", 6), Entity(1, "b", 0)),
            (Operator(RATIONAL, (Operand(0, 2), Operand(0, 2)), (Image(1, 1),)),),
        )
        assert validate_cao(cao)
        new, firings = step(cao.initial_state(), cao)
        assert new == (0, 3)
        assert firings[0].remainders == (0, 0)
        assert check_equivalence(cao, 5).equivalent

    def test_two_operators_draining_one_entity_leave_the_later_remainder(self):
        cao = SHARED_DRAIN
        assert validate_cao(cao)
        new, _ = step(cao.initial_state(), cao)
        assert new == (0, 3, 2)

    def test_the_matrix_engine_feeds_both_images_the_later_carry(self):
        # one radix and one carry per entity, (a:3)'s: b receives 6/3, not 6/2
        cao = SHARED_DRAIN
        new, commons = step_general(cao.initial_state(), build_operators(cao), cao.mode)
        assert new == (0, 2, 2) and commons == (2, 0, 0)
        report = check_equivalence(cao, 5)
        assert report == EquivalenceReport(False, 0, "b", "state", Fr(3), Fr(2))

    @settings(derandomize=True, max_examples=40)
    @given(
        st.lists(st.tuples(st.integers(0, 2), positive), min_size=1, max_size=6),
        st.lists(cardinals, min_size=3, max_size=3),
    )
    def test_qplus_never_drains_below_zero(self, slots, values):
        # up to six operand slots over three entities, each its own operator
        # or all in one, so entities repeat within and across operators
        operands = tuple(Operand(e, radix) for e, radix in slots)
        operators = (Operator(RATIONAL, operands, (Image(0, Fr(1)),)),) + tuple(
            Operator(FLOOR, (operand,), (Image(2, Fr(1, 2)),)) for operand in operands
        )
        cao = Cao("many", tuple(Entity(e, f"e{e}", v) for e, v in enumerate(values)), operators)
        for ops in (operators[:1], operators[1:], operators):
            new, firings = step(tuple(values), cao, 0, ops)
            drained = {e for f in firings for e in f.operands}
            assert all(new[e] >= 0 for e in drained)


@st.composite
def fused_operator_state(draw):
    width = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from((RATIONAL, FLOOR)))
    op = Operator(
        kind,
        tuple(Operand(e, draw(positive)) for e in range(width)),
        (Image(width, draw(cardinals)),),
    )
    state = tuple(draw(cardinals) for _ in range(width)) + (Fr(0),)
    return op, state


@st.composite
def tied_operator_state(draw):
    """An operator of either kind over three entities, possibly listing one
    entity more than once (a network the validator rejects), and a state in
    which operands often share the lowest partial carry: each entity holds
    either a free cardinal or a shared carry times the radix of one of its slots."""
    kind = draw(st.sampled_from((RATIONAL, FLOOR)))
    slots = draw(st.lists(st.tuples(st.integers(0, 2), positive), min_size=1, max_size=4))
    shared = draw(cardinals)
    state = [draw(cardinals) for _ in range(3)]
    for e, radix in slots:
        if draw(st.sampled_from((True, True, False))):
            state[e] = shared * radix
    op = Operator(kind, tuple(Operand(e, radix) for e, radix in slots), (Image(3, Fr(1)),))
    return op, tuple(state) + (Fr(0),)


def tied(kind, slots, values):
    """``tied_operator_state``'s shape, written out: ``slots`` are (entity, radix)."""
    op = Operator(kind, tuple(Operand(e, Fr(r)) for e, r in slots), (Image(3, Fr(1)),))
    return op, tuple(Fr(v) for v in values) + (Fr(0),)


class TestFiringProperties:
    @settings(derandomize=True)
    @given(tied_operator_state())
    @example(tied(RATIONAL, ((0, 2), (1, 3)), (4, 6, 0)))  # two operands tie at 2
    @example(tied(RATIONAL, ((0, 2), (0, 2)), (5, 0, 0)))  # a repeated operand
    @example(tied(FLOOR, ((0, 2), (1, 3)), (5, 7, 0)))  # floors tie at 2, remainders 1 and 1
    @example(tied(FLOOR, ((1, 3), (1, 3)), (0, 7, 0)))
    def test_every_remainder_is_cardinal_minus_common_times_radix(self, case):
        # a rational operand whose own carry is the common one is set to 0
        # without arithmetic; every remainder must still be the literal formula
        op, state = case
        firing = fire_operator(state, op, 0)
        assert firing.common == min(firing.partial_carries)
        for operand, remainder in zip(op.operands, firing.remainders):
            assert remainder == state[operand.entity] - firing.common * operand.radix
            assert type(remainder) is Fr

    @settings(derandomize=True)
    @given(tied_operator_state())
    @example(tied(RATIONAL, ((0, 2), (0, 2)), (5, 0, 0)))  # a repeated operand
    @example(tied(FLOOR, ((1, 3), (1, 3)), (0, 7, 0)))
    @example(tied(RATIONAL, ((0, 2), (1, 3), (0, 3)), (6, 9, 0)))  # a repeat after another operand
    def test_the_record_free_step_gives_each_slot_its_own_remainder(self, case):
        # next_state writes each slot's remainder into the new state as it
        # fires: a repeated operand ends with its last slot's literal
        # remainder, computed from the start-of-step cardinal
        op, state = case
        cao = Cao("tied", tuple(Entity(e, f"e{e}", v) for e, v in enumerate(state)), (op,))
        new = op_engine.next_state(state, cao, 0, (op,))
        assert new == step(state, cao, 0, (op,))[0]
        firing = fire_operator(state, op, 0)
        for slot, operand in enumerate(op.operands):
            if operand.entity not in [o.entity for o in op.operands[slot + 1:]]:
                assert new[operand.entity] == state[operand.entity] - firing.common * operand.radix
        assert new[3] == state[3] + firing.common

    @given(fused_operator_state())
    def test_common_never_exceeds_partials_and_remainders_stay_legal(self, case):
        op, state = case
        firing = fire_operator(state, op, 0)
        assert firing.common == min(firing.partial_carries)
        for slot, partial in enumerate(firing.partial_carries):
            assert firing.common <= partial
            assert firing.remainders[slot] >= 0
        if op.kind is RATIONAL:
            # some operand achieves the minimum and therefore empties exactly
            achieved = [
                firing.remainders[slot]
                for slot, partial in enumerate(firing.partial_carries)
                if partial == firing.common
            ]
            assert achieved and all(r == 0 for r in achieved)
        else:
            for slot, operand in enumerate(op.operands):
                if firing.partial_carries[slot] == firing.common:
                    assert firing.remainders[slot] < operand.radix

    @given(fused_operator_state())
    def test_firing_is_idempotent_once_common_is_zero(self, case):
        op, state = case
        firing = fire_operator(state, op, 0)
        if firing.common == 0:
            assert firing.remainders == tuple(state[e] for e in firing.operands)
            assert all(t == 0 for t in firing.transformants)


# Numerators and denominators from one bit to past 4 000 bits, and the
# numerators of either sign or zero: the engine's validated domain (positive
# values, small radices) and what an unvalidated call can pass it (a qminus
# state below zero, a negative divisor).
magnitudes = st.one_of(
    st.integers(0, 1000), st.integers(0, 2**64), st.integers(2**4000, 2**4100)
)
signed = st.one_of(magnitudes, magnitudes.map(operator.neg))
rationals = st.builds(Fr, signed, signed.filter(bool))

# Each int helper beside the stdlib operator whose steps it follows.
INT_HELPERS = (
    (op_engine._mul, operator.mul),
    (op_engine._div, operator.truediv),
    (op_engine._add, operator.add),
    (op_engine._sub, operator.sub),
    (op_engine._floordiv, lambda a, b: Fr(a // b)),
)


def assert_int_helpers_match_the_stdlib(a, b):
    for helper, stdlib in INT_HELPERS:
        try:
            want = stdlib(a, b)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                helper(a, b)
            continue
        got = helper(a, b)
        assert type(got) is Fr, helper
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator), helper
        assert got.denominator > 0 and gcd(got.numerator, got.denominator) == 1, helper
        assert hash(got) == hash(want) and str(got) == str(want), helper
    for values in ([a, b], [b, a], [a, b, a]):
        assert op_engine._min(values) is min(values)


class TestIntArithmetic:
    """The operator engine's arithmetic on numerator and denominator ints
    gives the Fraction the stdlib operator gives: same value, exact type,
    lowest terms over a positive denominator, same hash and text."""

    def test_fraction_keeps_the_two_slots_the_engine_sets(self):
        assert Fr.__slots__ == ("_numerator", "_denominator"), (
            "op_engine._new builds a Fraction by setting these two slots; "
            "this Python lays Fraction out otherwise, so it would build broken values"
        )

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(rationals, rationals)
    @example(Fr(0), Fr(-3, 7))  # zero over a negative divisor
    @example(Fr(5, 6), Fr(0))  # a zero divisor
    @example(Fr(-7, 2), Fr(7, 2))  # opposite values, summing to zero
    @example(Fr(2**4001 + 1, 3**2600), Fr(-(3**2600), 2**4000))
    def test_int_helpers_match_the_stdlib(self, a, b):
        assert_int_helpers_match_the_stdlib(a, b)

    @pytest.mark.slow
    @settings(derandomize=True, max_examples=5000, deadline=None)
    @given(rationals, rationals)
    def test_int_helpers_match_the_stdlib_at_depth(self, a, b):
        assert_int_helpers_match_the_stdlib(a, b)
