"""The slotted value types keep the contract of a plain frozen dataclass.

Each type holds its fields in ``__slots__``, so an instance has no
``__dict__`` and takes no weak reference; equality, hashing, ``replace``,
``copy.deepcopy`` and pickling behave as they did with the dict.
"""

import copy
import pickle
import weakref
from dataclasses import replace

import pytest

from conftest import SAMPLES
from snsq import matrix_engine
from snsq.dsl import Diagnostic, ParseResult, Span, parse
from snsq.matrix_engine import StateOperators
from snsq.model import (
    Cao,
    Entity,
    Image,
    Operand,
    Operator,
    Override,
    Violation,
    schedule_segments,
    validate_cao,
)
from snsq.op_engine import Firing
from snsq.runner import EquivalenceReport, RunOutcome, RunResult, StepRecord, check_equivalence, run


def instances():
    """One instance of each slotted type, from drip.sns, a run, a check and a
    parse error."""
    parsed = parse((SAMPLES / "drip.sns").read_text(encoding="utf-8"))
    cao = parsed.cao
    result = run(cao, 10)
    record = result.records[0]
    broken = parse('cao "t" { entity a = 1; op (a:1) -> (zz:1); }')
    twice = replace(cao, entities=(cao.entities[0], replace(cao.entities[1], name="tank")))
    found = [
        parsed,
        cao,
        cao.entities[0],
        cao.operators[0],
        cao.operators[0].operands[0],
        cao.operators[0].images[0],
        cao.schedule[1][0],
        validate_cao(twice)[0],
        record.firings[0],
        record,
        result.outcome,
        result,
        check_equivalence(cao, 10),
        matrix_engine.build_operators(cao, cao.operators),
        broken.diagnostics[0],
        broken.diagnostics[0].span,
    ]
    return {type(value): value for value in found}


INSTANCES = instances()
SLOTTED = [
    Entity, Operand, Image, Operator, Override, Cao, Violation, Firing, StepRecord, RunOutcome,
    RunResult, EquivalenceReport, StateOperators, Span, Diagnostic, ParseResult,
]
UNHASHABLE = (Cao, ParseResult)  # a Cao's schedule is a dict


def test_one_instance_of_each_slotted_type():
    assert set(INSTANCES) == set(SLOTTED)


@pytest.mark.parametrize("kind", SLOTTED, ids=lambda kind: kind.__name__)
class TestSlottedValue:
    def test_has_no_dict_and_takes_no_weak_reference(self, kind):
        value = INSTANCES[kind]
        assert not hasattr(value, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(value)

    def test_copies_are_equal(self, kind):
        value = INSTANCES[kind]
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value
        assert replace(value) == value

    def test_hash(self, kind):
        value = INSTANCES[kind]
        if kind in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(replace(value)) == hash(value)


def entity_tuples(op):
    return op.operand_entities(), op.image_entities()


def test_operator_entity_tuples_follow_its_fields():
    cao = INSTANCES[Cao]
    op = cao.operators[0]
    assert entity_tuples(op) == ((0,), (1,))
    rewired = replace(op, operands=(Operand(1, 2), Operand(2, 3)), images=(Image(0, 1),))
    assert entity_tuples(rewired) == ((1, 2), (0,))
    for copied in (pickle.loads(pickle.dumps(rewired)), copy.deepcopy(rewired)):
        assert entity_tuples(copied) == ((1, 2), (0,))
    # drip's two radix overrides, then one of each other field
    later = {3: (Override(0, "coeff", 1, 2),), 4: (Override(0, "enabled", None, False),)}
    folded = [ops[0] for _, _, ops in schedule_segments(replace(cao, schedule=cao.schedule | later))]
    assert [(o.operands[0].radix, o.images[0].coefficient, o.enabled) for o in folded] == [
        (4, 1, True), (2, 1, True), (1, 1, True), (1, 2, True), (1, 2, False),
    ]
    assert all(entity_tuples(o) == ((0,), (1,)) for o in folded)
    # the stored tuples take no part in equality, hashing or repr
    twin = replace(op)
    object.__setattr__(twin, "_entities", ((9,), (9,)))
    assert twin == op and hash(twin) == hash(op) and repr(twin) == repr(op)
    assert repr(op) == (
        "Operator(kind=<CarryKind.INTEGER_FLOOR: 'integer'>, "
        "operands=(Operand(entity=0, radix=Fraction(4, 1)),), "
        "images=(Image(entity=1, coefficient=Fraction(1, 1)),), enabled=True)"
    )
