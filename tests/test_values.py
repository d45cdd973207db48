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
from snsq.model import Cao, Entity, Image, Operand, Override, Violation, validate_cao
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
    Entity, Operand, Image, Override, Cao, Violation, Firing, StepRecord, RunOutcome,
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


def test_operator_caches_its_entity_tuples():
    op = INSTANCES[Cao].operators[0]
    assert op.operand_entities() is op.operand_entities()
    assert op.image_entities() is op.image_entities()
