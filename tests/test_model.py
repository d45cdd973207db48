import random
from dataclasses import replace
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_ref7, densify
from corpus import random_cao, wide_cao
from snsq import model
from snsq.model import (
    Cao,
    CarryKind,
    Entity,
    Image,
    Mode,
    Operand,
    Operator,
    Override,
    ScheduleError,
    apply_schedule,
    build_configuration_matrix,
    schedule_segments,
    validate_cao,
)

RATIONAL = CarryKind.RATIONAL_EXACT


def two_entities(**kwargs) -> Cao:
    return Cao(
        "t",
        entities=(Entity(0, "a", 4), Entity(1, "b", 0)),
        operators=(Operator(RATIONAL, (Operand(0, 2),), (Image(1, 3),)),),
        **kwargs,
    )


def codes(cao: Cao) -> set[str]:
    return {v.code for v in validate_cao(cao)}


class TestValidation:
    def test_ref7_is_clean(self):
        assert validate_cao(build_ref7()) == []

    def test_non_positive_radix(self):
        for radix in (0, -2, Fr(-1, 3)):
            cao = Cao(
                "t",
                (Entity(0, "a", 1), Entity(1, "b", 0)),
                (Operator(RATIONAL, (Operand(0, radix),), (Image(1, 1),)),),
            )
            problems = validate_cao(cao)
            assert [v.code for v in problems] == ["non-positive-radix"]
            assert "non-positive radix" in problems[0].message
            assert problems[0].at == ("operator", 0, "operand", 0, "radix")

    def test_negative_coefficient_rejected_in_qplus(self):
        cao = Cao(
            "t",
            (Entity(0, "a", 1), Entity(1, "b", 0)),
            (Operator(RATIONAL, (Operand(0, 2),), (Image(1, -1),)),),
        )
        problems = validate_cao(cao)
        assert [v.code for v in problems] == ["negative-coefficient"]
        assert "negative coefficient" in problems[0].message

    def test_negative_coefficient_allowed_in_qminus(self):
        cao = Cao(
            "t",
            (Entity(0, "a", 1), Entity(1, "b", 0)),
            (Operator(RATIONAL, (Operand(0, 2),), (Image(1, -1),)),),
            mode=Mode.Q_MINUS,
        )
        assert validate_cao(cao) == []

    def test_multiple_outgoing_operators(self):
        cao = Cao(
            "t",
            (Entity(0, "a", 1), Entity(1, "b", 0), Entity(2, "c", 0)),
            (
                Operator(RATIONAL, (Operand(0, 2),), (Image(1, 1),)),
                Operator(RATIONAL, (Operand(0, 3),), (Image(2, 1),)),
            ),
        )
        problems = validate_cao(cao)
        assert [v.code for v in problems] == ["multiple-outgoing"]
        assert "multiple outgoing operators" in problems[0].message
        assert problems[0].at == ("operator", 1, "operand", 0)

    def test_duplicate_operand(self):
        cao = Cao(
            "t",
            (Entity(0, "a", 1), Entity(1, "b", 0)),
            (Operator(RATIONAL, (Operand(0, 2), Operand(0, 3)), (Image(1, 1),)),),
        )
        assert codes(cao) == {"duplicate-operand"}

    def test_duplicate_image(self):
        cao = Cao(
            "t",
            (Entity(0, "a", 1), Entity(1, "b", 0)),
            (Operator(RATIONAL, (Operand(0, 2),), (Image(1, 1), Image(1, 2))),),
        )
        assert codes(cao) == {"duplicate-image"}

    def test_self_loop(self):
        cao = Cao(
            "t",
            (Entity(0, "a", 1),),
            (Operator(RATIONAL, (Operand(0, 2),), (Image(0, 1),)),),
        )
        assert codes(cao) == {"self-loop"}

    def test_empty_operand_and_image_lists(self):
        cao = Cao("t", (Entity(0, "a", 1),), (Operator(RATIONAL, (), ()),))
        assert codes(cao) == {"empty-operands", "empty-images"}

    def test_negative_initial(self):
        cao = Cao("t", (Entity(0, "a", -1),))
        assert codes(cao) == {"negative-initial"}

    def test_duplicate_entity_name(self):
        cao = Cao("t", (Entity(0, "a", 1), Entity(1, "a", 2)))
        assert codes(cao) == {"duplicate-entity"}

    def test_non_dense_entity_indices(self):
        cao = Cao("t", (Entity(1, "a", 1),))
        assert "bad-entity-index" in codes(cao)

    def test_unknown_entity_in_operator(self):
        cao = Cao(
            "t",
            (Entity(0, "a", 1),),
            (Operator(RATIONAL, (Operand(0, 2),), (Image(7, 1),)),),
        )
        assert "bad-entity-index" in codes(cao)

    def test_one_pass_reports_everything(self):
        cao = Cao(
            "t",
            (Entity(0, "a", -1), Entity(1, "b", 0)),
            (Operator(RATIONAL, (Operand(0, 0),), (Image(1, -2),)),),
        )
        assert codes(cao) == {"negative-initial", "non-positive-radix", "negative-coefficient"}

    def test_schedule_violations(self):
        base = two_entities
        assert codes(base(schedule={0: (Override(5, "enabled", None, True),)})) == {
            "schedule-bad-operator"
        }
        assert codes(base(schedule={0: (Override(0, "radix", 1, Fr(2)),)})) == {
            "schedule-not-operand"
        }
        assert codes(base(schedule={0: (Override(0, "radix", 0, Fr(0)),)})) == {
            "schedule-non-positive-radix"
        }
        assert codes(base(schedule={0: (Override(0, "coeff", 0, Fr(2)),)})) == {
            "schedule-not-image"
        }
        assert codes(base(schedule={0: (Override(0, "coeff", 1, Fr(-2)),)})) == {
            "schedule-negative-coefficient"
        }
        assert codes(base(schedule={-1: (Override(0, "enabled", None, True),)})) == {
            "schedule-negative-step"
        }
        assert codes(base(schedule={0: (Override(0, "enabled", None, Fr(1)),)})) == {
            "schedule-bad-value"
        }

    # Rules the .sns parser never lets through (it refuses duplicate and
    # unknown names and empty pair lists, and writes only booleans for
    # ``enabled``): only a network built in code can break them.
    LIBRARY_ONLY = [
        ("bad-entity-index", ("entity", 0), Cao("t", (Entity(1, "a", 1),))),
        ("bad-entity-index", ("operator", 0, "operand", 0), Cao(
            "t",
            (Entity(0, "a", 1), Entity(1, "b", 0)),
            (Operator(RATIONAL, (Operand(7, 2),), (Image(1, 1),)),),
        )),
        ("bad-entity-index", ("operator", 0, "image", 0), Cao(
            "t",
            (Entity(0, "a", 1), Entity(1, "b", 0)),
            (Operator(RATIONAL, (Operand(0, 2),), (Image(7, 1),)),),
        )),
        ("bad-entity-name", ("entity", 0), Cao("t", (Entity(0, "", 1),))),
        ("duplicate-entity", ("entity", 1), Cao("t", (Entity(0, "a", 1), Entity(1, "a", 2)))),
        ("empty-operands", ("operator", 0), Cao(
            "t", (Entity(0, "a", 1), Entity(1, "b", 0)), (Operator(RATIONAL, (), (Image(1, 1),)),)
        )),
        ("empty-images", ("operator", 0), Cao(
            "t", (Entity(0, "a", 1), Entity(1, "b", 0)), (Operator(RATIONAL, (Operand(0, 2),), ()),)
        )),
        ("schedule-bad-value", ("schedule", 2, 1, "value"), two_entities(
            schedule={2: (Override(0, "enabled", None, True), Override(0, "enabled", None, Fr(1)))}
        )),
    ]

    @pytest.mark.parametrize("code, at, cao", LIBRARY_ONLY)
    def test_library_only_rules(self, code, at, cao):
        assert [(v.code, v.at) for v in validate_cao(cao)] == [(code, at)]

    def test_a_violation_prints_as_its_message(self):
        (v,) = validate_cao(two_entities(schedule={-1: (Override(0, "enabled", None, True),)}))
        assert v.code == "schedule-negative-step" and str(v) == v.message

    def test_schedule_negative_coeff_fine_in_qminus(self):
        cao = two_entities(
            mode=Mode.Q_MINUS, schedule={0: (Override(0, "coeff", 1, Fr(-2)),)}
        )
        assert validate_cao(cao) == []


class TestCoercion:
    def test_string_and_int_values_become_fractions(self):
        assert Entity(0, "x", "3/2").initial == Fr(3, 2)
        assert Operand(0, 4).radix == Fr(4)
        assert Image(0, "2/7").coefficient == Fr(2, 7)
        assert Override(0, "radix", 0, "5/3").value == Fr(5, 3)

    def test_floats_are_refused(self):
        with pytest.raises(TypeError):
            Entity(0, "x", 0.5)
        with pytest.raises(TypeError):
            Operand(0, 0.5)

    @pytest.mark.parametrize("key", [0.9, "1", Fr(5, 2), Fr(1)])
    def test_schedule_keys_must_be_ints(self, key):
        # a step index is never rounded: 0.9 taken as step 0 would end the run at once
        with pytest.raises(TypeError):
            two_entities(schedule={key: (Override(0, "enabled", None, False),)})

    def test_schedule_keys_are_taken_by_their_index(self):
        class Step:
            def __index__(self):
                return 3

        assert two_entities(schedule={Step(): []}).schedule == {3: ()}

    @pytest.mark.parametrize("index", [0.0, "0", Fr(0)])
    @pytest.mark.parametrize(
        "build",
        [
            lambda i: Entity(i, "x", 1),
            lambda i: Operand(i, 2),
            lambda i: Image(i, 2),
            lambda i: Override(i, "enabled", None, False),
            lambda i: Override(0, "radix", i, 2),
            lambda i: Override(0, "coeff", i, 2),
        ],
        ids=["entity", "operand", "image", "override-operator", "radix-entity", "coeff-entity"],
    )
    def test_indices_must_be_ints(self, build, index):
        # validate_cao indexes tuples with them: a float raised TypeError there
        with pytest.raises(TypeError):
            build(index)

    def test_indices_are_taken_by_their_index(self):
        class Three:
            def __index__(self):
                return 3

        assert Entity(Three(), "x", 1).index == 3
        assert Operand(Three(), 2).entity == Image(Three(), 2).entity == 3
        override = Override(Three(), "coeff", Three(), 2)
        assert (override.operator, override.entity) == (3, 3)
        assert type(override.operator) is type(override.entity) is int
        assert Override(0, "enabled", None, True).entity is None

    def test_bad_override_field(self):
        with pytest.raises(ValueError):
            Override(0, "frobnicate", 0, Fr(1))

    def test_cao_helpers(self):
        cao = build_ref7()
        assert cao.size == 7
        assert cao.entity_names() == ("i", "j", "d", "s", "g", "u", "h")
        assert cao.initial_state() == (33, 21, 0, 0, 0, 0, 0)


REF7_GRID = (
    (10, 0, 1, 2, 0, 0, 0),
    (0, 8, 1, 2, 0, 0, 0),
    (0, 0, 8, 0, 2, 0, 0),
    (0, 0, 0, 10, 1, 3, 0),
    (0, 0, 0, 0, 4, 0, 1),
    (0, 0, 0, 0, 0, 2, 1),
    (0, 0, 0, 0, 0, 0, 0),
)


class TestDerivedViews:
    def test_configuration_matrix_of_ref7(self):
        matrix = densify(build_configuration_matrix(build_ref7()), 7)
        assert matrix == tuple(tuple(Fr(c) for c in row) for row in REF7_GRID)
        assert matrix[0][0] == 10 and matrix[6][6] == 0

    def test_disabled_operator_leaves_no_cells(self):
        cao = build_ref7()
        ops = list(cao.operators)
        ops[0] = Operator(ops[0].kind, ops[0].operands, ops[0].images, enabled=False)
        cells = build_configuration_matrix(replace(cao, operators=tuple(ops)))
        assert not [key for key in cells if key[0] in (0, 1)]  # nothing stored for i or j
        matrix = densify(cells, 7)
        for row in (0, 1):  # i and j rows go blank
            assert all(cell == 0 for cell in matrix[row])
        assert matrix[2][2] == 8  # the rest is untouched


class TestSchedule:
    def test_overrides_persist_until_replaced(self):
        cao = two_entities(
            schedule={
                1: (Override(0, "radix", 0, Fr(4)),),
                3: (Override(0, "radix", 0, Fr(8)),),
            }
        )
        assert apply_schedule(cao, 0)[0].operands[0].radix == 2
        assert apply_schedule(cao, 1)[0].operands[0].radix == 4
        assert apply_schedule(cao, 2)[0].operands[0].radix == 4
        assert apply_schedule(cao, 3)[0].operands[0].radix == 8
        assert apply_schedule(cao, 99)[0].operands[0].radix == 8
        # the base network is untouched
        assert cao.operators[0].operands[0].radix == 2

    def test_enabled_toggle(self):
        cao = two_entities(
            schedule={
                2: (Override(0, "enabled", None, False),),
                4: (Override(0, "enabled", None, True),),
            }
        )
        assert apply_schedule(cao, 1)[0].enabled
        assert not apply_schedule(cao, 2)[0].enabled
        assert not apply_schedule(cao, 3)[0].enabled
        assert apply_schedule(cao, 4)[0].enabled

    def test_coeff_override(self):
        cao = two_entities(schedule={0: (Override(0, "coeff", 1, Fr(7, 2)),)})
        assert apply_schedule(cao, 0)[0].images[0].coefficient == Fr(7, 2)

    def test_no_schedule_returns_declared_operators(self):
        cao = two_entities()
        assert apply_schedule(cao, 5) is cao.operators

    def test_structurally_bad_overrides_raise(self):
        bad = [
            two_entities(schedule={0: (Override(9, "enabled", None, False),)}),
            two_entities(schedule={0: (Override(0, "radix", 1, Fr(2)),)}),
            two_entities(schedule={0: (Override(0, "radix", 0, Fr(-1)),)}),
            two_entities(schedule={0: (Override(0, "coeff", 0, Fr(2)),)}),
            two_entities(schedule={0: (Override(0, "coeff", 1, Fr(-2)),)}),
        ]
        for cao in bad:
            with pytest.raises(ScheduleError):
                apply_schedule(cao, 0)


def new_radix(value):
    return Override(0, "radix", 0, Fr(value))


class TestScheduleSegments:
    def test_each_schedule_step_opens_a_segment(self):
        # keys at 0 and below fold into the step-0 segment; gaps between
        # keys are covered by the segment before them
        cao = two_entities(
            schedule={-1: (new_radix(9),), 0: (new_radix(3),), 2: (new_radix(4),), 7: (new_radix(5),)}
        )
        segments = list(schedule_segments(cao))
        assert [(start, stop) for start, stop, _ in segments] == [(0, 2), (2, 7), (7, None)]
        assert [ops[0].operands[0].radix for _, _, ops in segments] == [3, 4, 5]
        for step, index in [(0, 0), (1, 0), (2, 1), (6, 1), (7, 2), (50, 2)]:
            assert apply_schedule(cao, step) == segments[index][2]

    def test_overrides_at_one_step_apply_in_slot_order(self):
        cao = two_entities(
            schedule={
                1: (
                    new_radix(4),
                    Override(0, "enabled", None, False),
                    Override(0, "coeff", 1, Fr(5)),
                    new_radix(8),
                    Override(0, "enabled", None, True),
                )
            }
        )
        (_, _, base), (start, stop, ops) = schedule_segments(cao)
        assert base is cao.operators and (start, stop) == (1, None)
        assert ops[0].operands[0].radix == 8
        assert ops[0].images[0].coefficient == 5
        assert ops[0].enabled

    def test_disable_then_reenable(self):
        cao = two_entities(
            schedule={
                2: (Override(0, "enabled", None, False),),
                5: (Override(0, "enabled", None, True),),
            }
        )
        segments = list(schedule_segments(cao))
        assert [(start, ops[0].enabled) for start, _, ops in segments] == [(0, True), (2, False), (5, True)]
        assert segments[2][2] == cao.operators

    def test_unscheduled_network_is_one_segment(self):
        cao = two_entities()
        segments = list(schedule_segments(cao))
        assert segments == [(0, None, cao.operators)]
        assert segments[0][2] is cao.operators

    def test_a_segment_is_folded_only_when_asked_for(self):
        # entity 1 is not an operand of operator 0, so step 3 cannot apply
        cao = two_entities(schedule={1: (new_radix(4),), 3: (Override(0, "radix", 1, Fr(2)),)})
        segments = schedule_segments(cao)
        assert next(segments)[0] == 0
        assert next(segments)[0] == 1
        assert apply_schedule(cao, 2)[0].operands[0].radix == 4
        with pytest.raises(ScheduleError):
            next(segments)
        with pytest.raises(ScheduleError):
            apply_schedule(cao, 3)


# One override per rule of ``model._override_violation``, each at step 1 of
# ``two_entities`` (a drained by operator 0, which feeds b; qplus).
OVERRIDE_RULES = [
    ("schedule-bad-operator", Override(9, "enabled", None, False)),
    ("schedule-bad-value", Override(0, "enabled", None, 1)),
    ("schedule-not-operand", Override(0, "radix", 1, Fr(2))),
    ("schedule-non-positive-radix", Override(0, "radix", 0, Fr(0))),
    ("schedule-not-image", Override(0, "coeff", 0, Fr(2))),
    ("schedule-negative-coefficient", Override(0, "coeff", 1, Fr(-2))),
    ("schedule-not-image", Override(0, "coeff", None, Fr(2))),  # no entity: a violation, not a crash
]


class TestOverrideRules:
    """The validator and the fold read one rule set."""

    @pytest.mark.parametrize("code, override", OVERRIDE_RULES)
    def test_the_fold_refuses_what_the_validator_reports(self, code, override):
        cao = two_entities(schedule={1: (override,)})
        (violation,) = validate_cao(cao)
        assert violation.code == code
        assert apply_schedule(cao, 0) is cao.operators  # step 1 is not folded yet
        with pytest.raises(ScheduleError) as raised:
            list(schedule_segments(cao))
        assert str(raised.value) == violation.message


def folded_at(cao, k):
    """The operators at step k, folded from scratch: every override at a step
    at or below k, in step order then slot order."""
    ops = list(cao.operators)
    for step in sorted(cao.schedule):
        if step <= k:
            for ov in cao.schedule[step]:
                ops[ov.operator] = model._overridden(ops[ov.operator], ov)
    return tuple(ops)


class TestSegmentContract:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_segments_tile_the_steps(self, seed, wide):
        rng = random.Random(seed)
        cao = (wide_cao if wide else random_cao)(rng, with_schedule=True)
        segments = list(schedule_segments(cao))
        assert segments[0][0] == 0 and segments[-1][1] is None
        for (start, stop, _), (following, _, _) in zip(segments, segments[1:]):
            assert start < stop == following
        for k in range(max(cao.schedule, default=0) + 2):
            (holding,) = [ops for start, stop, ops in segments if start <= k and (stop is None or k < stop)]
            assert apply_schedule(cao, k) == holding == folded_at(cao, k)
