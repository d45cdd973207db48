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
  the rule above, never as a cycle).

``run`` records the full trajectory: one record per executed step carrying
the pre-step state, the per-entity common-carry vector, and (operator
backend only) the firings, plus a final state-only record — ``steps + 1``
records in all.

``check_equivalence`` drives the firing engine and the matrix engine in
lockstep and reports the first step, entity, and values where they disagree;
on a valid network they never should.

Both consume one stepping core, ``_stepper``. It is the only code that folds
the schedule (a ``model.schedule_segments`` segment at a time, as k reaches
it), builds the matrix operators (once per segment, matrix backend only) and
calls the engines.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from snsq import matrix_engine, op_engine
from snsq.model import Cao, NegativeCardinalError, schedule_segments
from snsq.op_engine import Firing
from snsq.rationals import format_rational

State = tuple[Fraction, ...]

BACKENDS = ("operator", "matrix")


class StopReason(Enum):
    FIXED_POINT = "fixed_point"
    STEP_LIMIT = "step_limit"
    CYCLE_DETECTED = "cycle_detected"
    QMINUS_VIOLATION = "qminus_violation"


@dataclass(frozen=True)
class StepRecord:
    """State before step ``step``; carry vector and firings are None/empty on
    the final record (no step was taken from it)."""

    step: int
    state: State
    common_carry: State | None = None
    firings: tuple[Firing, ...] = ()


@dataclass(frozen=True)
class RunOutcome:
    reason: StopReason
    steps: int
    final_state: State
    violation: tuple[str, Fraction] | None = None  # entity name, offending value
    revisit_of: int | None = None  # earlier step index a cycle returned to


@dataclass(frozen=True)
class RunResult:
    outcome: RunOutcome
    records: tuple[StepRecord, ...]


def _stepper(cao: Cao, matrix: bool):
    """Yield, for k = 0, 1, 2, ..., a function that takes step k from a state on
    a backend ("matrix" only when ``matrix`` is true), valid until the next is
    drawn. It returns (next state, common carries, firings, None), or (None,
    None, (), (entity, value)) for a step that would drive that entity negative."""
    segments = schedule_segments(cao)
    for k in itertools.count():
        if k == 0 or k in cao.schedule:
            _, ops = next(segments)
            matrix_ops = matrix_engine.build_operators(cao, ops) if matrix else None

        def take(state: State, backend: str):
            try:
                if backend == "operator":
                    nxt, firings = op_engine.step(state, cao, k, ops)
                    return nxt, op_engine.common_carry_vector(firings, cao.size), firings, None
                nxt, commons = matrix_engine.step_general(state, matrix_ops, cao.mode, k)
                return nxt, commons, (), None
            except NegativeCardinalError as err:
                return None, None, (), (err.entity, err.value)

        yield take


def run(cao: Cao, max_steps: int = 1000, backend: str = "operator") -> RunResult:
    """Drive a network from its initial state for at most ``max_steps`` steps."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")

    state = cao.initial_state()
    seen: dict[State, int] = {state: 0}
    records: list[StepRecord] = []
    k = 0
    for take in _stepper(cao, backend == "matrix"):
        nxt, commons, firings, violation = take(state, backend)
        if violation is not None:
            outcome = RunOutcome(StopReason.QMINUS_VIOLATION, k, state, violation=violation)
        elif nxt == state:
            outcome = RunOutcome(StopReason.FIXED_POINT, k, state)
        elif k == max_steps:
            outcome = RunOutcome(StopReason.STEP_LIMIT, k, state)
        else:
            records.append(StepRecord(k, state, commons, firings))
            state, k = nxt, k + 1
            # one hash of the new state; k's int is shared with its record
            first = seen.setdefault(state, k)
            if first == k:
                continue
            outcome = RunOutcome(StopReason.CYCLE_DETECTED, k, state, revisit_of=first)
        records.append(StepRecord(outcome.steps, state))
        return RunResult(outcome, tuple(records))


@dataclass(frozen=True)
class EquivalenceReport:
    """First disagreement between the two backends, if any.

    ``kind`` names what diverged: ``"carry"`` (common-carry vectors),
    ``"state"`` (post-step states), or ``"outcome"`` (one backend raised a
    negative-cardinal violation the other did not, or they blamed different
    entities/values). ``steps`` counts the steps actually compared.
    """

    equivalent: bool
    steps: int
    step: int | None = None
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
    for k, take in zip(range(steps), _stepper(cao, True)):
        nxt_o, commons_o, _, op_violation = take(state, "operator")
        nxt_m, commons_m, _, mx_violation = take(state, "matrix")
        if op_violation is not None or mx_violation is not None:
            if op_violation == mx_violation:  # both set, same entity and value
                return EquivalenceReport(True, k)
            return EquivalenceReport(
                False,
                k,
                step=k,
                entity=(op_violation or mx_violation)[0],
                kind="outcome",
                operator_value=None if op_violation is None else op_violation[1],
                matrix_value=None if mx_violation is None else mx_violation[1],
            )
        for kind, op_values, mx_values in (("carry", commons_o, commons_m), ("state", nxt_o, nxt_m)):
            for e in range(cao.size):
                if op_values[e] != mx_values[e]:
                    return EquivalenceReport(
                        False,
                        k,
                        step=k,
                        entity=names[e],
                        kind=kind,
                        operator_value=op_values[e],
                        matrix_value=mx_values[e],
                    )
        if nxt_o == state:
            return EquivalenceReport(True, k)
        state = nxt_o
    return EquivalenceReport(True, steps)


def _named(names: tuple[str, ...], values: State) -> dict[str, str]:
    return {names[e]: format_rational(values[e]) for e in range(len(names))}


def render_trace(records: tuple[StepRecord, ...], names: tuple[str, ...], fmt: str = "jsonl") -> str:
    """Render a trajectory as text: one JSON object per line, or flat CSV.

    All numbers are canonical rational strings, never floats, so rendering
    the same trajectory twice yields byte-identical output.
    """
    if fmt == "jsonl":
        lines = []
        for rec in records:
            obj: dict[str, object] = {"step": rec.step, "state": _named(names, rec.state)}
            if rec.common_carry is not None:
                obj["common_carry"] = _named(names, rec.common_carry)
            if rec.firings:
                obj["firings"] = [
                    {
                        "op": f.operator,
                        "common": format_rational(f.common),
                        "remainders": {
                            names[e]: format_rational(f.remainders[s])
                            for s, e in enumerate(f.operands)
                        },
                        "transformants": {
                            names[e]: format_rational(f.transformants[s])
                            for s, e in enumerate(f.images)
                        },
                    }
                    for f in rec.firings
                ]
            lines.append(json.dumps(obj, separators=(",", ":")))
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["step", "entity", "cardinal"])
        for rec in records:
            for e, name in enumerate(names):
                writer.writerow([rec.step, name, format_rational(rec.state[e])])
        return buf.getvalue()
    raise ValueError(f"unknown trace format {fmt!r}; expected 'jsonl' or 'csv'")


def write_trace(path: str, records: tuple[StepRecord, ...], names: tuple[str, ...], fmt: str = "jsonl") -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_trace(records, names, fmt))
