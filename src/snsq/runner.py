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

Both fold the network's schedule once per run: they read it as segments
(``model.schedule_segments``) in step order, take the next segment when k
reaches its first step, and hand the segment's operators to the engines. The
matrix backend builds its state-equation operators once per segment.
"""

from __future__ import annotations

import csv
import io
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


def run(cao: Cao, max_steps: int = 1000, backend: str = "operator") -> RunResult:
    """Drive a network from its initial state for at most ``max_steps`` steps."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")

    segments = schedule_segments(cao)
    state = cao.initial_state()
    seen: dict[State, int] = {state: 0}
    records: list[StepRecord] = []
    k = 0
    while True:
        if k == 0 or k in cao.schedule:
            _, ops = next(segments)
            if backend == "matrix":
                matrix_ops = matrix_engine.build_operators(cao, ops)
        try:
            if backend == "operator":
                nxt, firings = op_engine.step(state, cao, k, ops)
                commons = op_engine.common_carry_vector(firings, cao.size)
            else:
                nxt, commons = matrix_engine.step_general(state, matrix_ops, cao.mode, k)
                firings = ()
        except NegativeCardinalError as err:
            records.append(StepRecord(k, state))
            outcome = RunOutcome(
                StopReason.QMINUS_VIOLATION, k, state, violation=(err.entity, err.value)
            )
            return RunResult(outcome, tuple(records))
        if nxt == state:
            records.append(StepRecord(k, state))
            return RunResult(RunOutcome(StopReason.FIXED_POINT, k, state), tuple(records))
        if k == max_steps:
            records.append(StepRecord(k, state))
            return RunResult(RunOutcome(StopReason.STEP_LIMIT, k, state), tuple(records))
        records.append(StepRecord(k, state, commons, firings))
        state = nxt
        k += 1
        if state in seen:
            records.append(StepRecord(k, state))
            outcome = RunOutcome(
                StopReason.CYCLE_DETECTED, k, state, revisit_of=seen[state]
            )
            return RunResult(outcome, tuple(records))
        seen[state] = k


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
    names = cao.entity_names()
    segments = schedule_segments(cao)
    state = cao.initial_state()
    for k in range(steps):
        if k == 0 or k in cao.schedule:
            _, ops = next(segments)
            matrix_ops = matrix_engine.build_operators(cao, ops)
        op_err = mx_err = None
        nxt_o = nxt_m = None
        commons_o = commons_m = None
        try:
            nxt_o, firings = op_engine.step(state, cao, k, ops)
            commons_o = op_engine.common_carry_vector(firings, cao.size)
        except NegativeCardinalError as err:
            op_err = err
        try:
            nxt_m, commons_m = matrix_engine.step_general(state, matrix_ops, cao.mode, k)
        except NegativeCardinalError as err:
            mx_err = err
        if op_err is not None or mx_err is not None:
            same = (
                op_err is not None
                and mx_err is not None
                and (op_err.entity, op_err.value) == (mx_err.entity, mx_err.value)
            )
            if same:
                return EquivalenceReport(True, k)
            return EquivalenceReport(
                False,
                k,
                step=k,
                entity=(op_err or mx_err).entity,
                kind="outcome",
                operator_value=None if op_err is None else op_err.value,
                matrix_value=None if mx_err is None else mx_err.value,
            )
        for e in range(cao.size):
            if commons_o[e] != commons_m[e]:
                return EquivalenceReport(
                    False,
                    k,
                    step=k,
                    entity=names[e],
                    kind="carry",
                    operator_value=commons_o[e],
                    matrix_value=commons_m[e],
                )
        for e in range(cao.size):
            if nxt_o[e] != nxt_m[e]:
                return EquivalenceReport(
                    False,
                    k,
                    step=k,
                    entity=names[e],
                    kind="state",
                    operator_value=nxt_o[e],
                    matrix_value=nxt_m[e],
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
