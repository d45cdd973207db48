"""Trajectory driver: iterate steps until the state settles, repeats, or runs out.

Stop conditions, in precedence order when several hold at once:

* ``QMINUS_VIOLATION`` — the candidate step would push some cardinal below
  zero (only reachable in qminus mode);
* ``FIXED_POINT`` — one more step leaves the state exactly unchanged; the
  confirming evaluation happens even when the step budget is already spent,
  so a trajectory that settles right at the limit still reports a fixed
  point;
* ``STEP_LIMIT`` — the budget is exhausted and the state is still moving;
* ``CYCLE_DETECTED`` — the newly committed state equals an earlier one
  (exact tuple equality; a period-1 repeat is reported as a fixed point by
  the rule above, never as a cycle). The run keeps one digest per state, the
  hash of its (numerator, denominator) pairs; any digest is sound, as a repeat
  is confirmed, and the earlier step found, by replaying the run exactly.

``iter_run`` yields the trajectory one record at a time: one record per
executed step carrying the pre-step state, the per-entity common-carry
vector, and (operator backend only) the firings, plus a final state-only
record — ``steps + 1`` records in all — and returns the ``RunOutcome``. It is
the one run loop. ``run`` collects it into a ``RunResult``; the CLI streams
it instead, keeping no records (``drain``) or writing each to the trace file
as it is made (``write_trace``): at most one step's record is alive while the
next step is taken, and only the cycle set grows with the run, one digest per
visited state. The trace renderer keeps the decimal texts of the last two
records' ints, so each distinct int is converted once across them.

``check_equivalence`` drives the firing engine and the matrix engine in
lockstep and reports the first step, entity, and values where they disagree;
on a valid network they never should.

Both consume one stepping core, ``_stepper``, the only code that folds the
schedule or numbers the steps: it steps k through each
``model.schedule_segments`` segment up to the segment's end, never reading
the schedule itself. It builds the matrix operators once per segment (matrix
backend only) and yields each k with the function that takes step k.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
from collections.abc import Callable, Generator, Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from snsq import matrix_engine, op_engine
from snsq.model import Cao, NegativeCardinalError, Operator, schedule_segments
from snsq.op_engine import Firing
from snsq.rationals import _decimal

State = tuple[Fraction, ...]

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


def _take(cao: Cao, ops: tuple[Operator, ...], matrix_ops, state: State, backend: str, k: int):
    """Step k from ``state`` on ``backend`` with one segment's operators and, for
    the matrix backend, the ``StateOperators`` built from them. Returns (next
    state, common carries, firings, None), or (None, None, (), (entity, value))
    for a step that would drive that entity negative."""
    try:
        if backend == "operator":
            nxt, firings = op_engine.step(state, cao, k, ops)
            return nxt, op_engine.common_carry_vector(firings, cao.size), firings, None
        nxt, commons = matrix_engine.step_general(state, matrix_ops, cao.mode, k)
        return nxt, commons, (), None
    except NegativeCardinalError as err:
        return None, None, (), (err.entity, err.value)


def _stepper(cao: Cao, matrix: bool):
    """Yield ``(k, take)`` for k = 0, 1, 2, ...: ``take(state, backend, k)`` is
    ``_take`` bound, once per segment, to the operators of k's segment, so it
    stays valid after later pairs are drawn. The backend may be "matrix" only
    when ``matrix`` is true."""
    for start, stop, ops in schedule_segments(cao):
        matrix_ops = matrix_engine.build_operators(cao, ops) if matrix else None
        take = functools.partial(_take, cao, ops, matrix_ops)
        for k in itertools.count(start) if stop is None else range(start, stop):
            yield k, take


def _first_visit(cao: Cao, backend: str, state: State, k: int) -> int | None:
    """The first step j < k at which the run is at ``state``, or None: the run
    replayed from the initial state on ``backend``, emitting nothing."""
    replayed = cao.initial_state()
    for _, (j, take) in zip(range(k), _stepper(cao, backend == "matrix")):
        if replayed == state:
            return j
        replayed = take(replayed, backend, j)[0]
    return None


def _digest(state: State) -> int:
    """The cycle set's key for ``state``: ``hash`` of its (numerator, denominator) pairs."""
    return hash(tuple([(v.numerator, v.denominator) for v in state]))


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
    wrong. Bad arguments raise ValueError when the generator is first advanced.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")

    state = cao.initial_state()
    seen = {_digest(state)}
    for k, take in _stepper(cao, backend == "matrix"):
        nxt, commons, firings, violation = take(state, backend, k)
        if violation is not None:
            outcome = RunOutcome(StopReason.QMINUS_VIOLATION, k, state, violation=violation)
        elif nxt == state:
            outcome = RunOutcome(StopReason.FIXED_POINT, k, state)
        elif k == max_steps:
            outcome = RunOutcome(StopReason.STEP_LIMIT, k, state)
        else:
            yield StepRecord(k, state, commons, firings)
            del commons, firings  # so the record yielded is not alive while the next step is taken
            state = nxt
            digest = _digest(state)
            if digest not in seen:
                seen.add(digest)
                continue
            first = _first_visit(cao, backend, state, k + 1)
            if first is None:  # a digest collision, not a repeat
                continue
            outcome = RunOutcome(StopReason.CYCLE_DETECTED, k + 1, state, revisit_of=first)
        yield StepRecord(outcome.steps, state)
        return outcome


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
    """Step both backends in lockstep for up to ``steps`` steps (stopping early
    at a shared fixed point or a matching violation) and compare exactly."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    names = cao.entity_names()
    state = cao.initial_state()
    # range first, so that zip stops before the stepper folds past the budget
    for _, (k, take) in zip(range(steps), _stepper(cao, True)):
        nxt_o, commons_o, _, op_violation = take(state, "operator", k)
        nxt_m, commons_m, _, mx_violation = take(state, "matrix", k)
        if op_violation is not None or mx_violation is not None:
            if op_violation == mx_violation:  # both set, same entity and value
                return EquivalenceReport(True, k)
            return EquivalenceReport(
                False,
                k,
                entity=(op_violation or mx_violation)[0],
                kind="outcome",
                operator_value=None if op_violation is None else op_violation[1],
                matrix_value=None if mx_violation is None else mx_violation[1],
            )
        for kind, op_values, mx_values in (("carry", commons_o, commons_m), ("state", nxt_o, nxt_m)):
            if op_values != mx_values:
                e = next(e for e in range(cao.size) if op_values[e] != mx_values[e])
                return EquivalenceReport(
                    False, k, names[e], kind, operator_value=op_values[e], matrix_value=mx_values[e]
                )
        if nxt_o == state:
            return EquivalenceReport(True, k)
        state = nxt_o
    return EquivalenceReport(True, steps)


def _renderer(names: tuple[str, ...], fmt: str) -> tuple[str, Callable[[StepRecord], str]]:
    """The header of a trace and the function that renders one record of it:
    a JSON line, or one CSV row per entity. ``text`` writes what
    ``format_rational`` writes, but converts each distinct int once over two
    adjacent records and keeps no other texts: CPython converts a big int to
    decimal in quadratic time."""
    texts: dict[int, str] = {}
    last: dict[int, str] = {}

    def new_text(n: int) -> str:
        texts[n] = out = last.get(n) or _decimal(n)
        return out

    def text(v: Fraction) -> str:
        # Fraction's slots: its numerator and denominator properties cost more than a hit
        num, den = v._numerator, v._denominator
        num_text = texts.get(num) or new_text(num)
        return num_text if den == 1 else f"{num_text}/{texts.get(den) or new_text(den)}"

    def next_record() -> None:
        nonlocal texts, last
        texts, last = {}, texts

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
            next_record()
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
            next_record()
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
