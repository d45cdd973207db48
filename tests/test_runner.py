import csv
import gc
import io
import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as Fr
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import SAMPLES, REF7_CARRIES, REF7_STATES, build_ref7, build_signed_inflow
from corpus import PAST_THE_LIMIT_TEXT, decay_text, fed_back, random_cao, wide_cao, wide_override
from snsq import matrix_engine, model, op_engine, runner
from snsq.dsl import parse
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
    ScheduleError,
    validate_cao,
)
from snsq.rationals import format_rational
from snsq.runner import (
    BACKENDS,
    TRACE_FORMATS,
    EquivalenceReport,
    RunOutcome,
    RunResult,
    StepRecord,
    StopReason,
    check_equivalence,
    drain,
    iter_run,
    render_trace,
    run,
    write_trace,
)

RATIONAL = CarryKind.RATIONAL_EXACT


def two_loop(a, b):
    """Two entities passing their whole content around a 2-cycle."""
    return Cao(
        "loop",
        (Entity(0, "a", a), Entity(1, "b", b)),
        (
            Operator(RATIONAL, (Operand(0, 1),), (Image(1, 1),)),
            Operator(RATIONAL, (Operand(1, 1),), (Image(0, 1),)),
        ),
    )


def grow():
    """Two entities doubling each other's content: never rests or repeats."""
    return Cao(
        "grow",
        (Entity(0, "a", 1), Entity(1, "b", 1)),
        (
            Operator(RATIONAL, (Operand(0, 1),), (Image(1, 2),)),
            Operator(RATIONAL, (Operand(1, 1),), (Image(0, 2),)),
        ),
    )


def transient_loop():
    """c drains into the a-b swap once, then the swap repeats from step 1:
    (2,0,1) (1,2,0) (2,1,0) (1,2,0)."""
    return Cao(
        "tail",
        (Entity(0, "a", 2), Entity(1, "b", 0), Entity(2, "c", 1)),
        (
            Operator(RATIONAL, (Operand(0, 1),), (Image(1, 1),)),
            Operator(RATIONAL, (Operand(1, 1),), (Image(0, 1),)),
            Operator(RATIONAL, (Operand(2, 1),), (Image(0, 1),)),
        ),
    )


class TestRun:
    @pytest.mark.parametrize("backend", ["operator", "matrix"])
    def test_ref7_reaches_its_fixed_point(self, backend):
        result = run(build_ref7(), max_steps=50, backend=backend)
        outcome = result.outcome
        assert outcome.reason is StopReason.FIXED_POINT
        assert outcome.steps == 3
        assert outcome.final_state == REF7_STATES[3]
        assert outcome.violation is None and outcome.revisit_of is None
        assert len(result.records) == 4
        for k in range(3):
            assert result.records[k].state == REF7_STATES[k]
            assert result.records[k].common_carry == REF7_CARRIES[k]
        final = result.records[3]
        assert final.state == REF7_STATES[3]
        assert final.common_carry is None and final.firings == ()

    def test_operator_backend_records_firings(self):
        result = run(build_ref7(), max_steps=50)
        assert {f.operator for f in result.records[0].firings} == {0, 1, 2, 3}
        matrix = run(build_ref7(), max_steps=50, backend="matrix")
        assert matrix.records[0].firings == ()
        assert matrix.records[0].common_carry == REF7_CARRIES[0]

    def test_two_cycle_is_detected(self):
        result = run(two_loop(1, 0), max_steps=50)
        outcome = result.outcome
        assert outcome.reason is StopReason.CYCLE_DETECTED
        assert outcome.steps == 2
        assert outcome.revisit_of == 0
        assert outcome.final_state == (1, 0)
        assert [r.state for r in result.records] == [(1, 0), (0, 1), (1, 0)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cycle_after_a_transient(self, backend):
        result = run(transient_loop(), max_steps=50, backend=backend)
        outcome = result.outcome
        assert outcome.reason is StopReason.CYCLE_DETECTED
        assert outcome.steps == 3
        assert outcome.revisit_of == 1
        assert outcome.final_state == (1, 2, 0)
        assert [r.state for r in result.records] == [(2, 0, 1), (1, 2, 0), (2, 1, 0), (1, 2, 0)]

    def test_a_cycle_replays_up_to_its_first_visit(self, monkeypatch):
        # three steps of the run, then one of the replay: it stops at step 1
        calls = 0
        real_step = op_engine.step

        def counting_step(*args):
            nonlocal calls
            calls += 1
            return real_step(*args)

        monkeypatch.setattr(op_engine, "step", counting_step)
        assert run(transient_loop(), max_steps=50).outcome.revisit_of == 1
        assert calls == 4

    def test_period_one_repeat_is_a_fixed_point_not_a_cycle(self):
        # (1,1) swaps into itself; one extra step changes nothing, so the
        # fixed-point rule wins over cycle detection
        result = run(two_loop(1, 1), max_steps=50)
        assert result.outcome.reason is StopReason.FIXED_POINT
        assert result.outcome.steps == 0
        assert len(result.records) == 1

    def test_step_limit_on_growing_network(self):
        result = run(grow(), max_steps=5)
        assert result.outcome.reason is StopReason.STEP_LIMIT
        assert result.outcome.steps == 5
        assert result.outcome.final_state == (32, 32)
        assert len(result.records) == 6

    def test_fixed_point_wins_even_at_the_budget_edge(self):
        # settles at step 3 and the budget is exactly 3: the confirming
        # evaluation still runs, so this reports fixed_point, not step_limit
        result = run(build_ref7(), max_steps=3)
        assert result.outcome.reason is StopReason.FIXED_POINT
        assert result.outcome.steps == 3

    @pytest.mark.parametrize("backend", ["operator", "matrix"])
    def test_qminus_violation_stops_before_committing(self, backend):
        result = run(build_signed_inflow(loss=-5), max_steps=10, backend=backend)
        outcome = result.outcome
        assert outcome.reason is StopReason.QMINUS_VIOLATION
        assert outcome.steps == 0
        assert outcome.violation == ("s", Fr(-4))
        assert outcome.final_state == (21, 27, 5)
        assert len(result.records) == 1

    def test_violation_after_a_scheduled_change(self):
        cao = Cao(
            "late",
            (Entity(0, "a", 3), Entity(1, "t", 3)),
            (Operator(CarryKind.INTEGER_FLOOR, (Operand(0, 2),), (Image(1, -2),)),),
            mode=Mode.Q_MINUS,
            schedule={1: (Override(0, "radix", 0, Fr(1)),)},
        )
        result = run(cao, max_steps=10)
        assert result.outcome.reason is StopReason.QMINUS_VIOLATION
        assert result.outcome.steps == 1
        assert result.outcome.violation == ("t", Fr(-1))
        assert [r.state for r in result.records] == [(3, 3), (1, 1)]

    def test_zero_budget(self):
        moving = run(two_loop(1, 0), max_steps=0)
        assert moving.outcome.reason is StopReason.STEP_LIMIT
        assert moving.outcome.steps == 0
        assert len(moving.records) == 1
        settled = run(two_loop(1, 1), max_steps=0)
        assert settled.outcome.reason is StopReason.FIXED_POINT

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            run(build_ref7(), backend="quantum")
        with pytest.raises(ValueError):
            run(build_ref7(), max_steps=-1)
        with pytest.raises(ValueError):
            check_equivalence(build_ref7(), -1)

    def test_fixed_point_needs_exact_equality(self):
        # (1, 1 + 10^-40) swaps into a state that differs only in the 40th
        # decimal place: that is a 2-cycle, not a fixed point
        tiny = Fr(1, 10**40)
        result = run(two_loop(1, 1 + tiny), max_steps=50)
        assert result.outcome.reason is StopReason.CYCLE_DETECTED
        assert result.outcome.steps == 2
        assert [r.state for r in result.records] == [(1, 1 + tiny), (1 + tiny, 1), (1, 1 + tiny)]


def chain_ring(size):
    """perfbench's ``chain`` shape: ``op (e_i:2) -> (e_{i+1}:3)`` round a ring
    of integer-floor operators. Every entity starts at 2 or more, so every
    operator fires on every step and the ring never rests or repeats."""
    return Cao(
        "ring",
        tuple(Entity(i, f"e{i}", 2 + 7 * i % 30) for i in range(size)),
        tuple(
            Operator(CarryKind.INTEGER_FLOOR, (Operand(i, 2),), (Image((i + 1) % size, 3),))
            for i in range(size)
        ),
    )


def collected(records):
    """An ``iter_run`` generator's records and return value, by plain iteration."""
    out = []
    while True:
        try:
            out.append(next(records))
        except StopIteration as stop:
            return RunResult(stop.value, tuple(out))


# One network per stop reason, each reaching it within 5 steps.
STOPPING = {
    StopReason.FIXED_POINT: build_ref7(),
    StopReason.STEP_LIMIT: grow(),
    StopReason.CYCLE_DETECTED: two_loop(1, 0),
    StopReason.QMINUS_VIOLATION: build_signed_inflow(loss=-5),
}


class TestIterRun:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("reason", list(StopReason), ids=lambda r: r.value)
    def test_run_is_the_collected_stream(self, reason, backend):
        cao = STOPPING[reason]
        streamed = collected(iter_run(cao, 5, backend))
        assert streamed.outcome.reason is reason
        assert streamed == run(cao, 5, backend)
        assert drain(iter_run(cao, 5, backend)) == streamed.outcome

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_samples_and_gate_corpus(self, backend):
        samples = [parse(p.read_text(encoding="utf-8")).cao for p in sorted(SAMPLES.glob("*.sns"))]
        for cao in samples:
            assert collected(iter_run(cao, 50, backend)) == run(cao, 50, backend)
        rng = random.Random(0xC40)  # the acceptance gate's criterion-4 corpus
        for case in range(1000):
            mode = Mode.Q_PLUS if case % 2 == 0 else Mode.Q_MINUS
            cao = random_cao(rng, mode=mode, name=f"c{case}")
            assert collected(iter_run(cao, 6, backend)) == run(cao, 6, backend)

    def test_records_come_before_the_run_ends(self):
        records = iter_run(grow(), max_steps=10**12)
        first = [next(records) for _ in range(3)]
        assert first == list(run(grow(), 3).records[:3])
        records.close()

    def test_no_earlier_step_is_alive_when_the_next_is_taken(self, tmp_path, monkeypatch):
        # a streamed run holds its state and the cycle digests, never the
        # previous step's firings (16 of them on this ring)
        def live_firings():
            return sum(type(value) is op_engine.Firing for value in gc.get_objects())

        gc.collect()
        held = live_firings()  # firings that other tests' results still hold
        counts = []
        real = op_engine.step

        def counting(*args):
            counts.append(live_firings() - held)
            return real(*args)

        monkeypatch.setattr(op_engine, "step", counting)
        cao = chain_ring(16)
        assert drain(iter_run(cao, 6)).reason is StopReason.STEP_LIMIT
        write_trace(str(tmp_path / "ring.jsonl"), iter_run(cao, 6), cao.entity_names())
        assert counts == [0] * 14

    def test_bad_arguments_raise_when_first_advanced(self):
        for args in ((build_ref7(), 5, "quantum"), (build_ref7(), -1)):
            records = iter_run(*args)
            with pytest.raises(ValueError):
                next(records)

    def test_a_budget_that_is_not_an_int_raises_when_first_advanced(self):
        # k == 2.5 never holds, so a network that never rests would run on
        with pytest.raises(TypeError):
            next(iter_run(grow(), 2.5))
        with pytest.raises(TypeError):
            check_equivalence(grow(), 2.5)


def dict_run(cao, max_steps, backend):
    """The run with every state kept in a dict, keyed by the state itself: a
    reference for ``iter_run``'s cycle rule, on the same trajectory."""
    records = []
    seen = {cao.initial_state(): 0}
    trajectory = runner._trajectory(cao, backend, model.schedule_segments(cao))
    for k, state, nxt, commons, firings, violation in trajectory:
        if violation is not None:
            outcome = RunOutcome(StopReason.QMINUS_VIOLATION, k, state, violation=violation)
        elif nxt == state:
            outcome = RunOutcome(StopReason.FIXED_POINT, k, state)
        elif k == max_steps:
            outcome = RunOutcome(StopReason.STEP_LIMIT, k, state)
        else:
            records.append(StepRecord(k, state, commons, firings))
            if nxt not in seen:
                seen[nxt] = k + 1
                continue
            outcome = RunOutcome(StopReason.CYCLE_DETECTED, k + 1, nxt, revisit_of=seen[nxt])
        records.append(StepRecord(outcome.steps, outcome.final_state))
        return RunResult(outcome, tuple(records))


def cycling_cao(rng, max_ring=6, max_tail=6, name="ring"):
    """A random permutation ring with draining tails.

    The ring entities split into loops of two or more, each passing its whole
    content on (radix equal to coefficient). The tails form a chain into the
    ring, each also draining into one more earlier entity at random, so they
    empty within ``max_tail`` steps and the ring then repeats, unless floor
    carries leave it at rest. Some networks switch a ring operator off and on
    again, or retune a tail, in the first few steps only.
    """
    kind = rng.choice((RATIONAL, CarryKind.INTEGER_FLOOR))
    integer = kind is CarryKind.INTEGER_FLOOR

    def value(hi):
        return Fr(rng.randint(0, hi)) if integer else Fr(rng.randint(0, hi), rng.randint(1, 9))

    ring = list(range(rng.randint(2, max_ring)))
    tails = list(range(len(ring), len(ring) + rng.randint(0, max_tail)))
    entities = tuple(Entity(e, f"e{e}", value(30)) for e in ring + tails)
    operators = []
    rng.shuffle(ring)
    loops = []
    while ring:
        size = rng.randint(2, max(2, len(ring)))
        loops.append(ring[:size])
        ring = ring[size:]
    if len(loops[-1]) == 1:
        loops[-2].extend(loops.pop())
    for loop in loops:
        for e, nxt in zip(loop, loop[1:] + loop[:1]):
            radix = Fr(rng.choice((1, 2, 3))) if integer else rng.choice((Fr(1), Fr(2), Fr(3, 2)))
            operators.append(Operator(kind, (Operand(e, radix),), (Image(nxt, radix),)))
    ring_ops = len(operators)
    for t in tails:
        targets = {t - 1, rng.randrange(t)}
        images = tuple(Image(e, Fr(rng.randint(1, 4))) for e in sorted(targets))
        operators.append(Operator(kind, (Operand(t, 1),), images))
    schedule = {}
    if rng.random() < 0.4:
        op = rng.randrange(ring_ops)
        start = rng.randint(0, 2)
        schedule = {
            start: (Override(op, "enabled", None, False),),
            start + rng.randint(1, 3): (Override(op, "enabled", None, True),),
        }
        if tails and rng.random() < 0.5:
            tail_op = rng.randrange(ring_ops, len(operators))
            image = operators[tail_op].images[0].entity
            schedule.setdefault(1, ())
            schedule[1] += (Override(tail_op, "coeff", image, Fr(rng.randint(1, 5))),)
    cao = Cao(name, entities, tuple(operators), schedule=schedule)
    assert not validate_cao(cao), validate_cao(cao)
    return cao


def decay():
    """perfbench's ``decay`` shape: a and b fuse into c, c spreads back over
    both. Mass falls on every step and no state repeats, while the
    denominators grow by about 2 bits a step."""
    return Cao(
        "decay",
        (Entity(0, "a", Fr(700, 3)), Entity(1, "b", Fr(500, 7)), Entity(2, "c", 900)),
        (
            Operator(RATIONAL, (Operand(0, 2), Operand(1, 3)), (Image(2, 4),)),
            Operator(RATIONAL, (Operand(2, 5),), (Image(0, 2), Image(1, 2))),
        ),
    )


def cycling_networks(count, seed, **sizes):
    rng = random.Random(seed)
    cases = [two_loop(1, 0), transient_loop(), two_loop(1, 1 + Fr(1, 10**40))]
    return cases + [cycling_cao(rng, **sizes, name=f"ring{case}") for case in range(count)]


def cycles_matching_the_dict_rule(networks, steps, backend):
    """Assert that every run equals ``dict_run``'s; return how many cycled."""
    cycles = 0
    for cao in networks:
        result = run(cao, steps, backend)
        assert result == dict_run(cao, steps, backend), cao
        cycles += result.outcome.reason is StopReason.CYCLE_DETECTED
    return cycles


class TestCycleRule:
    """``iter_run`` holds one hash per state and confirms a repeated hash by an
    exact replay; its outcomes and records are those of a run that keeps every
    state. The gate's corpus never cycles; these networks are built to."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_the_dict_rule(self, backend):
        networks = cycling_networks(60, 0xC7C)
        assert cycles_matching_the_dict_rule(networks, 60, backend) >= 45

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_the_dict_rule_when_every_hash_collides(self, backend, monkeypatch):
        # every committed state is a hit: the replay runs on every step, and
        # finds nothing (the collision branch) until the state really repeats
        monkeypatch.setattr(runner, "hash", lambda state: 0, raising=False)
        networks = cycling_networks(60, 0xC7C)
        assert cycles_matching_the_dict_rule(networks, 60, backend) >= 45

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_the_cycle_set_hashes_no_fraction(self, backend, monkeypatch):
        # a Fraction's hash takes a modular inverse of its denominator; on
        # decay's states hashing them was about a fifth of a run
        calls = 0
        real = Fr.__hash__

        def counting(value):
            nonlocal calls
            calls += 1
            return real(value)

        monkeypatch.setattr(Fr, "__hash__", counting)
        assert hash(Fr(1, 3)) == real(Fr(1, 3)) and calls == 1
        calls = 0
        outcome = drain(iter_run(decay(), 1000, backend))
        assert (outcome.reason, outcome.steps) == (StopReason.STEP_LIMIT, 1000)
        assert outcome.final_state[0].denominator.bit_length() > 1500
        assert calls == 0

    @pytest.mark.slow
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_the_dict_rule_at_scale(self, backend, monkeypatch):
        monkeypatch.setattr(runner, "hash", lambda state: 0, raising=False)
        networks = cycling_networks(300, 0x5CA1E, max_ring=10, max_tail=24)
        assert cycles_matching_the_dict_rule(networks, 200, backend) >= 250


def refused_networks():
    """``decay`` changed in one way each, so that ``runner._cannot_cycle``
    must refuse it. All but the last still move for 1 000 steps; with every
    operator disabled the run rests at once."""
    base = decay()
    a, b, c = base.entities
    fuse, spread = base.operators
    with_d = (a, b, c, Entity(3, "d", 1))
    return {
        "scheduled": replace(base, schedule={1: (Override(0, "radix", 0, 2),)}),
        "conservative": replace(base, operators=(fuse, replace(spread, operands=(Operand(2, 4),)))),
        "mixed signs": replace(base, operators=(fuse, replace(spread, images=(Image(0, 3), Image(1, 3))))),
        "negative initial": replace(base, entities=(a, b, c, Entity(3, "d", -1))),
        "zero radix": replace(
            base,
            entities=with_d,
            operators=(fuse, spread, Operator(RATIONAL, (Operand(3, 0),), (Image(0, 1),), False)),
        ),
        "drained twice": replace(
            base, operators=(fuse, spread, Operator(RATIONAL, (Operand(2, 10),), (Image(0, 1),)))
        ),
        "qplus negative coefficient": replace(
            base, entities=with_d, operators=(fuse, replace(spread, images=(*spread.images, Image(3, -1))))
        ),
        "every operator disabled": replace(
            base, operators=(replace(fuse, enabled=False), replace(spread, enabled=False))
        ),
    }


REFUSED = refused_networks()


def gainy_decay():
    """``decay`` with every operator gaining mass: c takes 6 per fused carry,
    and a and b take 4 each per carry of c."""
    base = decay()
    fuse, spread = base.operators
    return replace(
        base,
        operators=(
            replace(fuse, images=(Image(2, 6),)),
            replace(spread, images=(Image(0, 4), Image(1, 4))),
        ),
    )


def digests_made(monkeypatch):
    """A counter of the ``runner._digest`` calls made from now on."""
    calls = Counter()
    real = runner._digest

    def counting(state):
        calls["digests"] += 1
        return real(state)

    monkeypatch.setattr(runner, "_digest", counting)
    return calls


def one_signed(cao, gain):
    """``cao`` with each operator's radices rescaled to sum to a half (``gain``)
    or to one and a half times its coefficients, where these sum above 0: all
    such operators then gain mass, or all lose it."""
    operators = []
    for op in cao.operators:
        coefficients = sum(im.coefficient for im in op.images)
        if coefficients > 0:
            scale = coefficients * (Fr(1, 2) if gain else Fr(3, 2)) / sum(o.radix for o in op.operands)
            op = replace(op, operands=tuple(Operand(o.entity, o.radix * scale) for o in op.operands))
        operators.append(op)
    return replace(cao, operators=tuple(operators))


def never_repeats_and_matches_the_dict_rule(seed, shape, gain):
    """Draw an unscheduled network of ``shape``, tilted to one sign by
    ``one_signed`` unless ``gain`` is None; if ``_cannot_cycle`` accepts it,
    its states never repeat within 64 steps and ``run`` is ``dict_run`` on
    both backends."""
    rng = random.Random(seed)
    cao = wide_cao(rng) if shape == "wide" else random_cao(rng, with_schedule=False)
    cao = fed_back(cao) if shape == "fed back" else cao
    cao = cao if gain is None else one_signed(cao, gain)
    assume(not validate_cao(cao) and runner._cannot_cycle(cao))
    for backend in BACKENDS:
        reference = dict_run(cao, 64, backend)
        assert reference.outcome.reason is not StopReason.CYCLE_DETECTED
        assert run(cao, 64, backend) == reference


SHAPES = st.sampled_from(("random", "fed back", "wide"))
GAINS = st.sampled_from((None, True, False))


class TestCannotCycle:
    """On a valid unscheduled network whose enabled operators all lose mass,
    or all gain it, no state comes back; a run past step 32 drops its digests."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_decay_makes_at_most_33_digests(self, backend, monkeypatch):
        calls = digests_made(monkeypatch)
        for cao in (decay(), gainy_decay()):
            assert runner._cannot_cycle(cao)
            calls.clear()
            outcome = drain(iter_run(cao, 1000, backend))
            assert (outcome.reason, outcome.steps) == (StopReason.STEP_LIMIT, 1000)
            assert calls["digests"] <= 33, cao

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", REFUSED)
    def test_a_refused_network_keeps_a_digest_per_state(self, name, backend, monkeypatch):
        cao = REFUSED[name]
        assert not runner._cannot_cycle(cao)
        calls = digests_made(monkeypatch)
        outcome = drain(iter_run(cao, 1000, backend))
        assert outcome.reason is not StopReason.CYCLE_DETECTED
        steps = 0 if name == "every operator disabled" else 1000
        assert outcome.steps == steps and calls["digests"] == steps + 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rings_still_report_cycles_found_after_step_32(self, backend):
        # a unit going round 40 entities, and random rings whose tails drain
        # for up to 40 steps: each cycle is found after the decision
        ring = Cao(
            "ring40",
            tuple(Entity(i, f"e{i}", int(i == 0)) for i in range(40)),
            tuple(Operator(RATIONAL, (Operand(i, 1),), (Image((i + 1) % 40, 1),)) for i in range(40)),
        )
        outcome = run(ring, 100, backend).outcome
        assert (outcome.reason, outcome.steps, outcome.revisit_of) == (StopReason.CYCLE_DETECTED, 40, 0)
        networks = cycling_networks(16, 0x1A7E, max_ring=12, max_tail=40)[3:]
        late = [cao for cao in networks if run(cao, 100, backend).outcome.steps > 32]
        assert cycles_matching_the_dict_rule(late, 100, backend) == len(late) >= 5

    # 30 draws; on Hypothesis 6.155, 10 are runs past step 32, 5 gaining and 5 losing
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), SHAPES, GAINS)
    def test_accepted_draws_never_repeat(self, seed, shape, gain):
        never_repeats_and_matches_the_dict_rule(seed, shape, gain)

    # 400 draws; on Hypothesis 6.155, 131 are runs past step 32, 96 gaining and 35 losing
    @pytest.mark.slow
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.integers(0, 2**32 - 1), SHAPES, GAINS)
    def test_accepted_draws_never_repeat_over_more_draws(self, seed, shape, gain):
        never_repeats_and_matches_the_dict_rule(seed, shape, gain)


class TestEquivalence:
    def test_ref7_backends_agree_until_rest(self):
        report = check_equivalence(build_ref7(), 10)
        assert report.equivalent
        assert report.steps == 3  # stops early at the shared fixed point

    def test_budget_caps_the_comparison(self):
        report = check_equivalence(build_ref7(), 2)
        assert report.equivalent and report.steps == 2

    def test_matching_violations_count_as_agreement(self):
        report = check_equivalence(build_signed_inflow(loss=-5), 5)
        assert report.equivalent and report.steps == 0

    def test_decay_takes_one_add_and_one_sub_a_step_on_both_backends(self, monkeypatch):
        # a step of decay leaves c, and whichever of a and b sets the common
        # carry, an exact 0, and an exact 0 takes its first feed itself: only
        # the other of a and b subtracts and adds. 1 000 steps take 1 001 engine steps, the last
        # telling a rest at the budget from the step limit. The matrix engine adds and
        # subtracts with Fraction's operators, the operator engine with its own _add and
        # _sub on the ints; both are counted, under one name per operation.
        calls = Counter()

        def count(owner, name, key):
            real = getattr(owner, name)

            def counted(a, b):
                calls[key] += 1
                return real(a, b)

            monkeypatch.setattr(owner, name, counted)

        for owner, add, sub in ((Fr, "__add__", "__sub__"), (op_engine, "_add", "_sub")):
            count(owner, add, "add")
            count(owner, sub, "sub")
        for backend in BACKENDS:
            calls.clear()
            outcome = drain(iter_run(decay(), 1000, backend))
            assert outcome.final_state[0].denominator.bit_length() > 1500
            assert calls == {"add": 1001, "sub": 1001}, backend
        monkeypatch.undo()
        assert check_equivalence(decay(), 1000) == EquivalenceReport(True, 1000)

    def test_state_divergence_is_localized(self, monkeypatch):
        real = op_engine.step

        def skewed(state, cao, k, operators=None):
            new, firings = real(state, cao, k, operators)
            return (new[0] + 1,) + new[1:], firings

        monkeypatch.setattr("snsq.op_engine.step", skewed)
        report = check_equivalence(build_ref7(), 3)
        assert not report.equivalent
        assert report.kind == "state"
        assert report.steps == 0 and report.entity == "i"
        assert report.operator_value == REF7_STATES[1][0] + 1
        assert report.matrix_value == REF7_STATES[1][0]

    def test_carry_divergence_is_localized(self, monkeypatch):
        real = op_engine.common_carry_vector

        def skewed(firings, size):
            vector = real(firings, size)
            return vector[:3] + (vector[3] + 1,) + vector[4:]

        monkeypatch.setattr("snsq.op_engine.common_carry_vector", skewed)
        report = check_equivalence(build_ref7(), 3)
        assert not report.equivalent
        assert report.kind == "carry" and report.entity == "s"
        assert report.operator_value == REF7_CARRIES[0][3] + 1
        assert report.matrix_value == REF7_CARRIES[0][3]

    def test_one_sided_violation_is_an_outcome_divergence(self, monkeypatch):
        def refuses(state, cao, k, operators=None):
            raise NegativeCardinalError("i", Fr(-1), k)

        monkeypatch.setattr("snsq.op_engine.step", refuses)
        report = check_equivalence(build_ref7(), 3)
        assert not report.equivalent
        assert report.kind == "outcome" and report.entity == "i"
        assert report.operator_value == Fr(-1)
        assert report.matrix_value is None


def raw_trajectory(cao, steps):
    """States 0..steps and carry vectors 0..steps-1 of ``op_engine.step`` driven
    through its own ``apply_schedule`` path, with no runner in the loop."""
    state = cao.initial_state()
    states, carries = [state], []
    for k in range(steps):
        state, firings = op_engine.step(state, cao, k)
        carries.append(op_engine.common_carry_vector(firings, cao.size))
        states.append(state)
    return states, carries


def lockstep(cao, steps):
    """Step both engines through ``model.schedule_segments`` for up to ``steps``
    steps, with no runner in the loop, asserting at every step that they agree
    on the violation, the carry vector and the state; stop at a shared
    violation. Returns the steps compared and how many of them moved the state."""
    segments, stop = model.schedule_segments(cao), 0
    state = cao.initial_state()
    moved = 0
    for k in range(steps):
        if k == stop:  # the last segment's stop is None
            _, stop, operators = next(segments)
            matrix_ops = matrix_engine.build_operators(cao, operators)
        op_err = mx_err = None
        try:
            nxt_o, firings = op_engine.step(state, cao, k, operators)
            commons_o = op_engine.common_carry_vector(firings, cao.size)
        except NegativeCardinalError as err:
            op_err = (err.entity, err.value)
        try:
            nxt_m, commons_m = matrix_engine.step_general(state, matrix_ops, cao.mode, k)
        except NegativeCardinalError as err:
            mx_err = (err.entity, err.value)
        assert op_err == mx_err, (cao.name, k)
        if op_err is not None:
            return k, moved
        assert commons_o == commons_m and nxt_o == nxt_m, (cao.name, k)
        moved += nxt_o != state
        state = nxt_o
    return steps, moved


def agree_over_long_schedules(depth):
    """Compare the engines at every one of ``depth`` steps (``lockstep``) and run
    ``check_equivalence`` on ten ``wide_cao`` networks that carry an override
    at every step up to 200 (``wide_cao`` alone schedules steps 1-19 only).
    Returns the steps compared and how many of them moved the state."""
    rng = random.Random(1)
    compared = moved = 0
    checked = []
    for case in range(10):
        base = wide_cao(rng, name=f"long{case}")
        schedule = {k: (wide_override(rng, base.operators),) for k in range(200)}
        cao = replace(base, schedule=schedule)
        assert not validate_cao(cao)
        report = check_equivalence(cao, depth)
        assert report.equivalent, report
        checked.append(report.steps)
        steps, moving = lockstep(cao, depth)
        compared += steps
        moved += moving
    # check_equivalence stops at the first still step, lockstep does not
    assert max(checked) == depth
    return compared, moved


def retuned_ring(steps):
    """Three integer entities passing their whole content around a ring, with
    the coefficient of one operator set to 2 or 3 at each of ``steps`` steps.
    The total only grows, so the trajectory never rests or repeats."""
    return Cao(
        "ring",
        (Entity(0, "a", 1), Entity(1, "b", 0), Entity(2, "c", 0)),
        tuple(
            Operator(CarryKind.INTEGER_FLOOR, (Operand(i, 1),), (Image((i + 1) % 3, 2),))
            for i in range(3)
        ),
        schedule={k: (Override(k % 3, "coeff", (k + 1) % 3, Fr(2 + k % 2)),) for k in range(steps)},
    )


# ROADMAP item 1's two networks: a run stops at a repeat or a still step
# that a later override would leave.
SWAP = replace(two_loop(1, 0), name="swap", schedule={5: (Override(1, "enabled", None, False),)})
LATE = Cao(
    "late",
    (Entity(0, "a", 4), Entity(1, "b", 0)),
    (Operator(RATIONAL, (Operand(0, 1),), (Image(1, 1),)),),
    schedule={0: (Override(0, "enabled", None, False),), 3: (Override(0, "enabled", None, True),)},
)


class TestSchedules:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_the_trajectory_steps_each_k_with_its_own_segment(self, backend):
        # drip's segments start at 0, 1 and 2; retuned_ring opens one per step
        drip = parse((SAMPLES / "drip.sns").read_text(encoding="utf-8")).cao
        for cao in (drip, retuned_ring(4)):
            steps = list(islice(runner._trajectory(cao, backend, model.schedule_segments(cao)), 6))
            raw = segment_states(cao, 6)
            assert [k for k, *_ in steps] == list(range(6))
            assert [state for _, state, *_ in steps] == raw[:6]
            stepped = [nxt for _, _, nxt, *_ in steps]
            assert stepped == raw[1:]
            assert len(set(stepped)) >= 3, stepped  # the segments step differently

    def test_each_override_is_folded_once_per_run(self, monkeypatch):
        # and the matrix operators are built once per segment, only when the
        # matrix backend is in use
        cao = retuned_ring(300)
        folds = builds = 0
        real_fold, real_build = model._overridden, matrix_engine.build_operators

        def counting_fold(op, ov):
            nonlocal folds
            folds += 1
            return real_fold(op, ov)

        def counting_build(cao, operators=None):
            nonlocal builds
            builds += 1
            return real_build(cao, operators)

        monkeypatch.setattr(model, "_overridden", counting_fold)
        monkeypatch.setattr(matrix_engine, "build_operators", counting_build)
        for backend, expected_builds in (("operator", 0), ("matrix", 300)):
            folds = builds = 0
            assert run(cao, 300, backend).outcome.reason is StopReason.STEP_LIMIT
            assert (folds, builds) == (300, expected_builds)
        folds = builds = 0
        report = check_equivalence(cao, 300)
        assert report.equivalent and report.steps == 300
        assert (folds, builds) == (300, 300)

    @pytest.mark.parametrize("backend", ["operator", "matrix"])
    def test_an_override_beyond_the_budget_never_raises(self, backend):
        # entity 2 is not an operand of operator 0, so step 6 cannot apply
        cao = replace(retuned_ring(0), schedule={6: (Override(0, "radix", 2, Fr(2)),)})
        assert run(cao, 5, backend).outcome.reason is StopReason.STEP_LIMIT
        assert check_equivalence(cao, 6).steps == 6
        with pytest.raises(ScheduleError):
            run(cao, 6, backend)
        with pytest.raises(ScheduleError):
            check_equivalence(cao, 7)

    def test_runs_follow_the_raw_trajectory_across_segments(self):
        # networks whose raw trajectory neither rests, repeats nor violates
        # within the budget, so the run must take all of its steps
        rng = random.Random(0x5E9)
        steps = 20
        followed = 0
        for case in range(8):
            cao = wide_cao(rng, with_schedule=True, name=f"seg{case}")
            try:
                states, carries = raw_trajectory(cao, steps + 1)
            except NegativeCardinalError:
                continue
            if len(set(states)) < len(states):
                continue
            followed += 1
            for backend in ("operator", "matrix"):
                result = run(cao, steps, backend)
                assert result.outcome.reason is StopReason.STEP_LIMIT
                assert result.outcome.final_state == states[steps]
                assert [r.common_carry for r in result.records] == carries[:steps] + [None]
        assert followed >= 5

    def test_backends_agree_over_long_schedules(self):
        # 321 steps compared, 308 of them moving; the full depth is the slow test
        compared, moved = agree_over_long_schedules(40)
        print(f"compared {compared} steps, {moved} of them moving")
        assert compared >= 320 and moved >= 300

    @pytest.mark.slow
    def test_backends_agree_over_long_schedules_in_full(self):
        # 1 478 steps compared, 649 of them moving; check_equivalence alone
        # compares 526, as 7 of the 10 runs rest for a step before step 65
        compared, moved = agree_over_long_schedules(200)
        print(f"compared {compared} steps, {moved} of them moving")
        assert compared >= 1450 and moved >= 600

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: the fixed-point and cycle tests ignore the schedule, so "
        "the run stops early; the fix changes scheduled corpus outputs and must rewrite "
        "perfbench/expected.json with perfbench/expected.py",
    )
    @pytest.mark.parametrize("backend", ["operator", "matrix"])
    @pytest.mark.parametrize("cao", [SWAP, LATE], ids=["swap", "late"])
    def test_scheduled_run_ends_where_the_raw_trajectory_rests(self, cao, backend):
        states, _ = raw_trajectory(cao, 8)
        result = run(cao, 8, backend)
        assert result.outcome.final_state == states[8]
        assert result.outcome.reason is StopReason.FIXED_POINT


def segment_states(cao, steps):
    """States 0..steps of the raw trajectory, stepped by ``op_engine.step`` with
    each ``model.schedule_segments`` segment's operators and no runner in the
    loop; the list ends early before a step that would drive a cardinal negative."""
    segments, stop = model.schedule_segments(cao), 0
    states = [cao.initial_state()]
    for k in range(steps):
        if k == stop:  # the last segment's stop is None
            _, stop, operators = next(segments)
        try:
            states.append(op_engine.step(states[-1], cao, k, operators)[0])
        except NegativeCardinalError:
            break
    return states


def stop_rule_outcomes(draws, cycling):
    """Check each run's outcome against the raw trajectory, on both backends:
    on ``draws`` ``random_cao`` networks and their ``fed_back`` versions at a
    budget of 12, and on ``cycling_networks(cycling, ...)`` at a budget of 24.
    Count the outcomes by (scheduled, stop reason)."""
    rng = random.Random(0x57B)
    cases = []
    for case in range(draws):
        drawn = random_cao(rng, name=f"stop{case}")
        cases += [(drawn, 12), (fed_back(drawn), 12)]
    cases += [(cao, 24) for cao in cycling_networks(cycling, 0x57C)]
    seen = Counter()
    for cao, budget in cases:
        raw = segment_states(cao, budget)
        for backend in BACKENDS:
            outcome = run(cao, budget, backend).outcome
            assert outcome.final_state == raw[outcome.steps], (cao, backend)
            # A scheduled run may stop at a rest or a repeat that a later
            # override leaves (ROADMAP item 1, the xfails above).
            if not cao.schedule and outcome.reason is StopReason.FIXED_POINT:
                assert raw[outcome.steps :] == [outcome.final_state] * (budget + 1 - outcome.steps)
            if not cao.schedule and outcome.reason is StopReason.CYCLE_DETECTED:
                # from its first visit on, the state recurs every period
                first, period = outcome.revisit_of, outcome.steps - outcome.revisit_of
                for j in range(first, budget + 1 - period):
                    assert raw[j] == raw[j + period], (cao, backend, j)
            seen[bool(cao.schedule), outcome.reason] += 1
    return seen


class TestStopRule:
    """What a run's outcome says about the raw trajectory."""

    def test_outcomes_hold_on_the_raw_trajectory(self):
        # 326 runs; 80 unscheduled fixed points and 92 unscheduled cycles, 86
        # of them on the cycling networks
        seen = stop_rule_outcomes(50, 60)
        assert seen[False, StopReason.FIXED_POINT] >= 70
        assert seen[False, StopReason.CYCLE_DETECTED] >= 85
        assert sum(seen[True, reason] for reason in StopReason) >= 50

    @pytest.mark.slow
    def test_outcomes_hold_on_the_raw_trajectory_over_more_draws(self):
        # 2 206 runs; 592 unscheduled fixed points and 454 unscheduled cycles
        seen = stop_rule_outcomes(400, 300)
        assert seen[False, StopReason.FIXED_POINT] >= 500
        assert seen[False, StopReason.CYCLE_DETECTED] >= 400


def where_check_stops(cao, steps):
    """The step ``check_equivalence(cao, steps)`` stops at, read off the raw
    trajectory: the first k whose step leaves the state unchanged or would
    drive a cardinal negative, else ``steps``; and why it stops there."""
    raw = segment_states(cao, steps)
    for k in range(steps):
        if len(raw) == k + 1:
            return k, "violation"
        if raw[k + 1] == raw[k]:
            return k, "rest"
    return steps, "budget"


class TestWhereCheckStops:
    """The step at which ``check_equivalence``'s lockstep stops."""

    def test_check_stops_where_the_raw_trajectory_rests_or_violates(self):
        rng = random.Random(0xC4EC)
        cases = []
        for case in range(48):
            drawn = random_cao(rng, name=f"check{case}")
            cases += [drawn, fed_back(drawn)]
        for case in range(16):
            for scheduled in (False, True):
                cases.append(wide_cao(rng, with_schedule=scheduled, name=f"wide{case}"))
        # 128 networks: 43 rest, 18 violate and 67 still move at the budget
        seen = Counter()
        for cao in cases:
            k, why = where_check_stops(cao, 12)
            assert check_equivalence(cao, 12).steps == k, (cao, why)
            seen[why] += 1
        print(dict(seen))
        assert seen["rest"] >= 40 and seen["violation"] >= 15 and seen["budget"] >= 50


def trace_by_hand(records, names, fmt) -> str:
    """A trace built record by record from ``format_rational``'s texts, as
    ``json.dumps`` and ``csv.writer`` write them."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["step", "entity", "cardinal"])
        for rec in records:
            writer.writerows([rec.step, name, format_rational(v)] for name, v in zip(names, rec.state))
        return buf.getvalue()

    def named(slots, values):
        return {names[e]: format_rational(v) for e, v in zip(slots, values)}

    lines = []
    for rec in records:
        obj = {"step": rec.step, "state": named(range(len(names)), rec.state)}
        if rec.common_carry is not None:
            obj["common_carry"] = named(range(len(names)), rec.common_carry)
        if rec.firings:
            obj["firings"] = [
                {
                    "op": f.operator,
                    "common": format_rational(f.common),
                    "remainders": named(f.operands, f.remainders),
                    "transformants": named(f.images, f.transformants),
                }
                for f in rec.firings
            ]
        lines.append(json.dumps(obj, separators=(",", ":")) + "\n")
    return "".join(lines)


class TestTraces:
    def test_jsonl_shape_and_values(self):
        result = run(build_ref7(), max_steps=10)
        names = build_ref7().entity_names()
        text = render_trace(result.records, names, "jsonl")
        assert text.endswith("\n")
        lines = text.splitlines()
        assert len(lines) == 4
        first = json.loads(lines[0])
        assert first["step"] == 0
        assert first["state"]["i"] == "33"
        assert first["common_carry"]["j"] == "21/8"
        assert {f["op"] for f in first["firings"]} == {0, 1, 2, 3}
        fused = next(f for f in first["firings"] if f["op"] == 0)
        assert fused["common"] == "21/8"
        assert fused["remainders"] == {"i": "27/4", "j": "0"}
        assert fused["transformants"] == {"d": "21/8", "s": "21/4"}
        last = json.loads(lines[-1])
        assert set(last) == {"step", "state"}
        assert last["state"]["h"] == "189/640"

    def test_matrix_records_render_without_firings(self):
        result = run(build_ref7(), max_steps=10, backend="matrix")
        names = build_ref7().entity_names()
        first = json.loads(render_trace(result.records, names).splitlines()[0])
        assert "firings" not in first
        assert first["common_carry"]["i"] == "21/8"

    def test_rendering_is_deterministic(self):
        names = build_ref7().entity_names()
        a = render_trace(run(build_ref7(), max_steps=10).records, names)
        b = render_trace(run(build_ref7(), max_steps=10).records, names)
        assert a == b

    def test_csv_layout(self):
        result = run(build_ref7(), max_steps=10)
        text = render_trace(result.records, build_ref7().entity_names(), "csv")
        lines = text.splitlines()
        assert lines[0] == "step,entity,cardinal"
        assert len(lines) == 1 + 4 * 7
        assert lines[1] == "0,i,33"
        assert "3,h,189/640" in lines

    def test_write_trace_round_trips_bytes(self, tmp_path):
        result = run(build_ref7(), max_steps=10)
        names = build_ref7().entity_names()
        target = tmp_path / "trace.jsonl"
        write_trace(str(target), result.records, names)
        assert target.read_text(encoding="utf-8") == render_trace(result.records, names)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_write_trace_streams_a_run(self, tmp_path, fmt, backend):
        for cao in STOPPING.values():
            target = tmp_path / f"{cao.name}.{fmt}"
            outcome = write_trace(str(target), iter_run(cao, 5, backend), cao.entity_names(), fmt)
            result = run(cao, 5, backend)
            assert outcome == result.outcome
            assert target.read_text(encoding="utf-8") == render_trace(
                result.records, cao.entity_names(), fmt
            )

    def test_a_run_that_raises_leaves_the_records_so_far(self, tmp_path):
        # step 6's override cannot apply (see TestSchedules): steps 0-5 are written
        cao = replace(retuned_ring(0), schedule={6: (Override(0, "radix", 2, Fr(2)),)})
        target = tmp_path / "partial.jsonl"
        with pytest.raises(ScheduleError):
            write_trace(str(target), iter_run(cao, 10), cao.entity_names())
        written = target.read_text(encoding="utf-8")
        assert written == render_trace(islice(iter_run(cao, 10), 6), cao.entity_names())

    def test_odd_names_render_as_the_json_and_csv_modules_do(self):
        # the renderers encode each name once and join text
        names = ("a,b", 'q"x', "new\nline", "\u00e9\t\\")
        cao = Cao(
            "odd",
            tuple(Entity(i, name, i + 1) for i, name in enumerate(names)),
            (Operator(RATIONAL, (Operand(0, 2), Operand(3, 3)), (Image(1, 1), Image(2, 1))),),
        )
        records = run(cao, 5).records
        for fmt in TRACE_FORMATS:
            assert render_trace(records, names, fmt) == trace_by_hand(records, names, fmt)

    @pytest.mark.parametrize("fmt", TRACE_FORMATS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_written_bytes_match_records_rendered_one_by_one(self, tmp_path, fmt, backend):
        # the renderer keeps an LRU of 8 texts per entity; on decay's 200 steps
        # ints recur within and across records, and the big network's records
        # hold ints past the int<->str limit
        cases = [(cao, 5) for cao in STOPPING.values()]
        cases += [(parse(decay_text(random.Random(seed))).cao, 200) for seed in range(3)]
        cases.append((parse(PAST_THE_LIMIT_TEXT).cao, 5))
        for cao, steps in cases:
            target = tmp_path / f"t.{fmt}"
            write_trace(str(target), iter_run(cao, steps, backend), cao.entity_names(), fmt)
            records = run(cao, steps, backend).records
            want = trace_by_hand(records, cao.entity_names(), fmt).encode("utf-8")
            assert target.read_bytes() == want, cao.name

    @pytest.mark.parametrize(
        "backend, fmt, conversions",
        [("operator", "jsonl", 6007), ("operator", "csv", 5003), ("matrix", "jsonl", 5005), ("matrix", "csv", 5003)],
    )
    def test_each_int_is_converted_once_while_it_recurs(self, monkeypatch, backend, fmt, conversions):
        # the LRU keeps an int's text while it recurs, so each distinct int of
        # decay's trace is converted once: 5 003 in its 1 001 states, 5 005 and
        # 6 007 with what jsonl adds (operator jsonl reads 26 005 ints in all)
        cao = parse(decay_text(random.Random(6))).cao
        calls = []
        decimal = runner._decimal
        monkeypatch.setattr(runner, "_decimal", lambda n: calls.append(n) or decimal(n))
        render_trace(iter_run(cao, 1000, backend), cao.entity_names(), fmt)
        assert len(calls) == conversions

    def test_unknown_format(self):
        assert [render_trace((), (), fmt) for fmt in TRACE_FORMATS] == ["", "step,entity,cardinal\n"]
        with pytest.raises(ValueError, match=r"'xml'; expected one of \('jsonl', 'csv'\)"):
            render_trace((), (), "xml")
