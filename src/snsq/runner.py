"""Trajectory driver: iterate steps until the state settles, repeats, or runs out.

Stop conditions, in precedence order when several hold at once; they are
one rule, ``_stop_rule``, which the runs and ``check_equivalence`` share:

* ``QMINUS_VIOLATION`` — the candidate step would push some cardinal below
  zero (only reachable in qminus mode);
* ``FIXED_POINT`` — one more step leaves the state exactly unchanged; the
  confirming evaluation happens even when the step budget is already spent,
  so a trajectory that settles right at the limit still reports a fixed
  point (on a scheduled network, also a still step before a later override);
* ``STEP_LIMIT`` — the budget is exhausted and the state is still moving;
* ``CYCLE_DETECTED`` — the newly committed state equals an earlier one at
  or after the last schedule override, where the step function stops
  changing (exact tuple equality; a period-1 repeat is reported as a fixed
  point by the rule above, never as a cycle). The run keeps one digest per
  state from there on, the hash of its (numerator, denominator) pairs; any
  digest is sound, as a repeat is confirmed, and the earlier step found, by
  replaying the run exactly. A run still going at step 32 asks once whether
  its network can cycle at all (``_cannot_cycle``): on a valid unscheduled
  network whose enabled operators all lose mass, or all gain it, the total
  of the cardinals moves strictly on every step that changes the state, so
  no state comes back, and the run drops its digests.

``iter_run`` yields the trajectory one record at a time: one record per
executed step carrying the pre-step state, the per-entity common-carry
vector, and (operator backend only) the firings, plus a final state-only
record — ``steps + 1`` records in all — and returns the ``RunOutcome``.
``run`` collects it into a ``RunResult``; ``run --trace`` writes each record
to the trace file as it is made (``write_trace``): at most one step's record
is alive while the next step is taken. ``settle`` (``fixpoint``, untraced
``run``) and the cycle replay make no record, nor on the operator backend
any firing or carry vector. Only the cycle set grows with a run, one digest
per visited state, until a run that cannot cycle drops it at step 32. The
trace renderer keeps the decimal texts of recent ints in an LRU of 8 texts
per entity, so an int is converted once while it recurs.

``check_equivalence`` drives the firing engine and the matrix engine in
lockstep and reports the first step, entity, and values where they disagree;
on a valid network they never should. It stops where ``run`` stops, a
confirmed repeat included, but never takes step N of an N-step budget. It,
``iter_run``, ``settle`` and the cycle replay each consume ``_trajectory``,
the one code that steps a backend: through each ``model.schedule_segments``
segment, building the matrix operators once per segment. ``check`` compares
``op_engine.step``, the engine that builds firings, with the matrix engine.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import operator
from collections.abc import Callable, Generator, Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from snsq import matrix_engine, op_engine
from snsq.model import Cao, NegativeCardinalError, Operator, schedule_segments, validate_cao
from snsq.op_engine import Firing, State
from snsq.rationals import _decimal

BACKENDS = ("operator", "matrix")
TRACE_FORMATS = ("jsonl", "csv")


class StopReason(Enum):
    FIXED_POINT = "fixed_point"
    STEP_LIMIT = "step_limit"
    CYCLE_DETECTED = "cycle_detected"
    QMINUS_VIOLATION = "qminus_violation"


@dataclass(frozen=True, slots=True)
class StepRecord:
    """State before step ``step``; carry vector and firings are None/empty on
    the final record (no step was taken from it)."""

    step: int
    state: State
    common_carry: State | None = None
    firings: tuple[Firing, ...] = ()


@dataclass(frozen=True, slots=True)
class RunOutcome:
    reason: StopReason
    steps: int
    final_state: State
    violation: tuple[str, Fraction] | None = None  # entity name, offending value
    revisit_of: int | None = None  # earlier step index a cycle returned to


@dataclass(frozen=True, slots=True)
class RunResult:
    outcome: RunOutcome
    records: tuple[StepRecord, ...]


def _trajectory(cao: Cao, backend: str, segments: Iterable[tuple], record: bool = True) -> Iterator[tuple]:
    """Step ``backend`` through ``segments``, the network's ``schedule_segments``,
    yielding ``(k, state, nxt, commons, firings, None)`` per step k. Only the
    operator backend fires, and without ``record`` it yields None commons and
    no firings. A step that would drive an entity negative ends the
    trajectory with ``(k, state, None, None, (), (entity, value))``."""
    if backend == "operator" and record:
        def take(ops: tuple[Operator, ...], state: State, k: int) -> tuple:
            nxt, firings = op_engine.step(state, cao, k, ops)
            return nxt, op_engine.common_carry_vector(firings, cao.size), firings
    elif backend == "operator":
        def take(ops: tuple[Operator, ...], state: State, k: int) -> tuple:
            return op_engine.next_state(state, cao, k, ops), None, ()
    else:
        def take(ops: matrix_engine.StateOperators, state: State, k: int) -> tuple:
            return *matrix_engine.step_general(state, ops, cao.mode, k), ()
    state = cao.initial_state()
    for start, stop, ops in segments:
        ops = matrix_engine.build_operators(cao, ops) if backend == "matrix" else ops
        for k in itertools.count(start) if stop is None else range(start, stop):
            violation = None
            try:
                nxt, commons, firings = take(ops, state, k)
            except NegativeCardinalError as err:  # a yield in here would keep the traceback alive
                violation = (err.entity, err.value)
            if violation is not None:
                yield k, state, None, None, (), violation
                return
            yield k, state, nxt, commons, firings, None
            del commons, firings  # so the step yielded is not alive while the next is taken
            state = nxt


def _first_visit(cao: Cao, backend: str, state: State, k: int, last: int) -> int | None:
    """The first step j, ``last`` <= j < k, at which the run is at ``state``, or
    None: the run replayed from the initial state on ``backend``, emitting nothing."""
    if last == 0 and cao.initial_state() == state:
        return 0
    replay = itertools.islice(_trajectory(cao, backend, schedule_segments(cao), record=False), k - 1)
    return next((j + 1 for j, _, replayed, _, _, _ in replay if j + 1 >= last and replayed == state), None)


def _digest(state: State) -> int:
    """The cycle set's key for ``state``: ``hash`` of its (numerator, denominator) pairs."""
    return hash(tuple([(v.numerator, v.denominator) for v in state]))


# The step at which a run asks ``_cannot_cycle``: the check costs about as
# much as 15 to 30 digests, so a run that ends sooner never pays for it.
_DECIDE_AT = 32


def _cannot_cycle(cao: Cao) -> bool:
    """True only when no run of ``cao`` can repeat a state: the network is
    unscheduled and valid, and every enabled operator's balance, the sum of
    its coefficients less the sum of its radices, has one strict sign.

    On a valid network every state and common carry c_o is non-negative, and
    a step changes the total of the cardinals by the sum of c_o times the
    balance of o. With one strict sign, a step that leaves the total as it
    was has every c_o = 0 and changes nothing, a fixed point; every other
    step moves the total strictly the same way, so no state comes back. The
    signs are taken in ints over a common denominator.
    """
    if cao.schedule:  # an override can flip a balance
        return False
    gains = set()
    for op in cao.operators:
        if not op.enabled:
            continue
        values = [im.coefficient for im in op.images] + [-o.radix for o in op.operands]
        common = math.lcm(*[v.denominator for v in values])
        balance = sum([v.numerator * (common // v.denominator) for v in values])
        if balance == 0:  # a conservative operator can carry mass round a ring
            return False
        gains.add(balance > 0)
    return len(gains) == 1 and not validate_cao(cao)


def _stop_rule(cao: Cao, backend: str, max_steps: int) -> Callable[..., RunOutcome | None]:
    """The rule that ends a run or a check: ``stop(k, state, nxt, violation)``
    is the outcome that step k of the trajectory ends it with, or None.

    A repeat counts only from ``last``, the first step of the last schedule
    segment (0 on an unscheduled network): from there on the step function no
    longer changes, so a state that comes back is a cycle. States before
    ``last`` are neither digested nor matched by the replay."""
    last = max([k for k in cao.schedule if k > 0], default=0)
    seen: set[int] | None = {_digest(cao.initial_state())} if last == 0 else set()

    def stop(k: int, state: State, nxt: State | None, violation: tuple | None) -> RunOutcome | None:
        nonlocal seen
        if violation is not None:
            return RunOutcome(StopReason.QMINUS_VIOLATION, k, state, violation=violation)
        if nxt == state:
            return RunOutcome(StopReason.FIXED_POINT, k, state)
        if k == max_steps:
            return RunOutcome(StopReason.STEP_LIMIT, k, state)
        if seen is None or k + 1 < last:
            return None
        if k == _DECIDE_AT and _cannot_cycle(cao):
            seen = None  # no state can come back: the set would only grow
            return None
        digest = _digest(nxt)
        if digest not in seen:
            seen.add(digest)
            return None
        first = _first_visit(cao, backend, nxt, k + 1, last)  # None on a digest collision
        return None if first is None else RunOutcome(StopReason.CYCLE_DETECTED, k + 1, nxt, revisit_of=first)

    return stop


def _budget(max_steps: int, backend: str) -> int:
    """``max_steps`` as an int, once it and ``backend`` are known to be valid."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    max_steps = operator.index(max_steps)
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    return max_steps


def iter_run(
    cao: Cao, max_steps: int = 1000, backend: str = "operator"
) -> Generator[StepRecord, None, RunOutcome]:
    """Drive a network from its initial state for at most ``max_steps`` steps,
    yielding each record as it is made; the generator returns the outcome.

    Of each visited state only a digest stays behind: the hash of its
    (numerator, denominator) ints, as a Fraction's own hash costs a modular
    inverse. A repeated digest is confirmed by an exact replay of the run
    (``_first_visit``), so any digest is sound: a cycle costs at most about
    twice its steps, a collision without a repeat replays the run so far, and
    a network built to collide (int hashes are not randomised) is slow, never
    wrong. At step 32 the run asks once whether the network can cycle at
    all (``_cannot_cycle``); if it cannot, the digests are dropped and no
    more are made, so such a run holds O(state) memory however long it runs.
    ``max_steps`` must be an int. Bad arguments raise when the generator is
    first advanced.
    """
    stop = _stop_rule(cao, backend, _budget(max_steps, backend))
    for k, state, nxt, commons, firings, violation in _trajectory(cao, backend, schedule_segments(cao)):
        outcome = stop(k, state, nxt, violation)
        if outcome is None or outcome.reason is StopReason.CYCLE_DETECTED:  # step k was taken
            yield StepRecord(k, state, commons, firings)
        del state, commons, firings  # so no yielded record is alive during the next step
        if outcome is not None:
            yield StepRecord(outcome.steps, outcome.final_state)
            return outcome


def settle(cao: Cao, max_steps: int = 1000, backend: str = "operator") -> RunOutcome:
    """``iter_run``'s outcome, with no record made; the operator backend steps
    by ``op_engine.next_state``, with no firing or carry vector. Bad arguments
    raise as ``iter_run``'s do."""
    stop = _stop_rule(cao, backend, _budget(max_steps, backend))
    for k, state, nxt, _, _, violation in _trajectory(cao, backend, schedule_segments(cao), record=False):
        outcome = stop(k, state, nxt, violation)
        if outcome is not None:
            return outcome
        del state  # so no earlier state is alive while the next step is taken


def drain(
    records: Iterator[StepRecord], each: Callable[[StepRecord], object] | None = None
) -> RunOutcome | None:
    """Pass every record of ``records`` to ``each`` (if given) and keep none:
    at most one record is alive while the next one is made. Returns what the
    iterator returns: an ``iter_run`` generator's outcome."""
    while True:
        try:
            record = next(records)
        except StopIteration as stop:
            return stop.value
        if each is not None:
            each(record)
        del record  # so no record is alive while the next one is made


def run(cao: Cao, max_steps: int = 1000, backend: str = "operator") -> RunResult:
    """``iter_run`` with every record collected."""
    records: list[StepRecord] = []
    outcome = drain(iter_run(cao, max_steps, backend), records.append)
    return RunResult(outcome, tuple(records))


@dataclass(frozen=True, slots=True)
class EquivalenceReport:
    """First disagreement between the two backends, if any.

    ``kind`` names what diverged: ``"carry"`` (common-carry vectors),
    ``"state"`` (post-step states), or ``"outcome"`` (one backend raised a
    negative-cardinal violation the other did not, or they blamed different
    entities/values). ``steps`` counts the steps compared alike, so on a
    disagreement it is also the index of the step that diverged.
    """

    equivalent: bool
    steps: int
    entity: str | None = None
    kind: str | None = None
    operator_value: Fraction | None = None
    matrix_value: Fraction | None = None


def check_equivalence(cao: Cao, steps: int) -> EquivalenceReport:
    """Step both backends in lockstep for up to ``steps`` steps and compare
    exactly. The check stops where ``run`` stops: at a shared rest, a matching
    violation or a confirmed repeat; it never takes step ``steps``."""
    steps = operator.index(steps)
    if steps < 0:
        raise ValueError("steps must be non-negative")
    names = cao.entity_names()
    stop = _stop_rule(cao, "operator", steps)  # either engine can replay: they agree up to a stop
    # both trajectories share one schedule fold, and neither steps past the budget
    segments = itertools.tee(schedule_segments(cao))
    operator_steps, matrix_steps = [_trajectory(cao, b, s) for b, s in zip(BACKENDS, segments)]
    for k in range(steps):
        _, state, nxt_o, commons_o, _, op_violation = next(operator_steps)
        _, _, nxt_m, commons_m, _, mx_violation = next(matrix_steps)
        if op_violation != mx_violation:  # one-sided, or another entity or value
            op_value, mx_value = [None if v is None else v[1] for v in (op_violation, mx_violation)]
            return EquivalenceReport(False, k, (op_violation or mx_violation)[0], "outcome", op_value, mx_value)
        for kind, op_values, mx_values in (("carry", commons_o, commons_m), ("state", nxt_o, nxt_m)):
            if op_values != mx_values:
                e = next(e for e in range(cao.size) if op_values[e] != mx_values[e])
                return EquivalenceReport(False, k, names[e], kind, op_values[e], mx_values[e])
        outcome = stop(k, state, nxt_o, op_violation)
        if outcome is not None:
            return EquivalenceReport(True, outcome.steps)
        del state  # so no earlier state is alive while the next step is taken
    return EquivalenceReport(True, steps)


def _renderer(names: tuple[str, ...], fmt: str) -> tuple[str, Callable[[StepRecord], str]]:
    """The header of a trace and the function that renders one record of it:
    a JSON line, or one CSV row per entity. ``text`` writes what
    ``format_rational`` writes, but keeps an LRU of 8 texts per entity (two
    records' state and carry ints), as CPython converts a big int to decimal in
    quadratic time."""
    decimal = functools.lru_cache(maxsize=8 * len(names))(_decimal)

    def text(v: Fraction) -> str:
        # Fraction's slots: its numerator and denominator properties cost more than a hit
        num, den = v._numerator, v._denominator
        return decimal(num) if den == 1 else f"{decimal(num)}/{decimal(den)}"

    if fmt == "jsonl":
        # Text joined directly, in json.dumps's key order and compact
        # separators: each name is JSON-encoded once, and a rational's text
        # (digits, "-" and "/") never needs escaping. A valid network's names
        # are unique, so no key repeats (a dict would have merged repeats).
        keys = [json.dumps(name) for name in names]
        every = range(len(names))

        def entries(slots, values: State) -> str:
            pairs = [f'{keys[e]}:"{text(v)}"' for e, v in zip(slots, values)]
            return "{" + ",".join(pairs) + "}"

        def line(rec: StepRecord) -> str:
            out = f'{{"step":{rec.step},"state":{entries(every, rec.state)}'
            if rec.common_carry is not None:
                out += f',"common_carry":{entries(every, rec.common_carry)}'
            if rec.firings:
                firings = ",".join(
                    [
                        f'{{"op":{f.operator},"common":"{text(f.common)}",'
                        f'"remainders":{entries(f.operands, f.remainders)},'
                        f'"transformants":{entries(f.images, f.transformants)}}}'
                        for f in rec.firings
                    ]
                )
                out += f',"firings":[{firings}]'
            return out + "}\n"

        return "", line
    if fmt == "csv":
        # A name is quoted as the csv module quotes a middle field; a step
        # number or a rational never needs quoting.
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")

        def csv_row(fields: list[str]) -> str:
            buf.seek(0)
            buf.truncate()
            writer.writerow(fields)
            return buf.getvalue()

        header = csv_row(["step", "entity", "cardinal"])
        cells = [csv_row(["", name, ""])[:-1] for name in names]

        def rows(rec: StepRecord) -> str:
            step = str(rec.step)
            return "".join(f"{step}{cell}{text(value)}\n" for cell, value in zip(cells, rec.state))

        return header, rows
    raise ValueError(f"unknown trace format {fmt!r}; expected one of {TRACE_FORMATS}")


def render_trace(records: Iterable[StepRecord], names: tuple[str, ...], fmt: str = "jsonl") -> str:
    """Render a trajectory as text: one JSON object per line, or flat CSV.

    All numbers are canonical rational strings, never floats, so rendering
    the same trajectory twice yields byte-identical output.
    """
    header, render = _renderer(names, fmt)
    return header + "".join(map(render, records))


def write_trace(
    path: str, records: Iterable[StepRecord], names: tuple[str, ...], fmt: str = "jsonl"
) -> RunOutcome | None:
    """Write what ``render_trace`` renders, each record as soon as ``records``
    yields it. Returns what the iterator returns: given an ``iter_run``
    generator, the run's outcome. A run that raises leaves the records so far."""
    header, render = _renderer(names, fmt)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        return drain(iter(records), lambda rec: fh.write(render(rec)))
