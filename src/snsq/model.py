"""Entities, operators, and the networks they form.

A network (:class:`Cao`) is an ordered list of named entities, each holding a
non-negative exact cardinal, wired together by carry/convert operators
(:class:`Operator`). Firing an operator removes a carry-weighted amount from
its operand entities and adds coefficient-scaled transformants to its image
entities. This module owns the structural rules, the validator that enforces
them, and one derived view: the configuration matrix, which ``snsq matrix``
prints. It also folds a network's schedule into segments
(:func:`schedule_segments`), each ``(start, stop, operators)`` with the
operators holding for ``start <= k < stop``. The rules an override must keep
are written once, in ``_override_violation``: the validator reports a broken
override, and the fold raises it as a ScheduleError.

Structural rules enforced by :func:`validate_cao`:

* entity names are unique; indices are dense and follow declaration order;
* initial cardinals are non-negative;
* every radix is strictly positive;
* operands within one operator are distinct, as are images; an operator never
  maps an entity to itself;
* an entity is an operand of at most one operator (a single radix per entity
  is all the configuration matrix can express) — it may be an image of any
  number of operators;
* conversion coefficients are non-negative unless the network runs in
  :data:`Mode.Q_MINUS`;
* schedule overrides target existing operator slots and respect the radix and
  sign rules above.

Each :class:`Violation` names the element it blames by a path such as
``("operator", 1, "image", 0, "coefficient")``, so a front end can point at
that element's source text without knowing the rules.

Cycles in the operator topology are allowed; termination is the runner's
concern, not a structural property.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from snsq.rationals import as_rational, format_rational


class CarryKind(Enum):
    """How an operator turns an operand's cardinal into a partial carry."""

    RATIONAL_EXACT = "rational"  # carry = cardinal / radix, no flooring
    INTEGER_FLOOR = "integer"    # carry = floor(cardinal / radix)


class Mode(Enum):
    """Sign regime for conversion coefficients."""

    Q_PLUS = "qplus"    # coefficients >= 0; states provably stay non-negative
    Q_MINUS = "qminus"  # negative coefficients allowed; every post-step state
                        # must still be component-wise non-negative


class NegativeCardinalError(Exception):
    """A step would leave an entity's cardinal below zero (Q_MINUS post-check)."""

    def __init__(self, entity: str, value: Fraction, step: int):
        super().__init__(
            f"step {step}: cardinal of '{entity}' would become {format_rational(value)}"
        )
        self.entity = entity
        self.value = value
        self.step = step


class ScheduleError(Exception):
    """A schedule override could not be applied to the operator it names."""


@dataclass(frozen=True)
class Entity:
    """A named state variable carrying an exact, non-negative cardinal."""

    index: int
    name: str
    initial: Fraction

    def __post_init__(self):
        object.__setattr__(self, "initial", as_rational(self.initial))


@dataclass(frozen=True)
class Operand:
    """An operator input: the entity it drains and the radix dividing its cardinal."""

    entity: int
    radix: Fraction

    def __post_init__(self):
        object.__setattr__(self, "radix", as_rational(self.radix))


@dataclass(frozen=True)
class Image:
    """An operator output: the entity it feeds and the coefficient scaling the carry."""

    entity: int
    coefficient: Fraction

    def __post_init__(self):
        object.__setattr__(self, "coefficient", as_rational(self.coefficient))


@dataclass(frozen=True)
class Operator:
    """A carry/convert operator: drains its operands, feeds its images.

    Its shape (one or several operands, one or several images) is not
    stored; it follows from the counts. A disabled operator contributes zero
    carry and zero transformants, exactly as if absent for that step.
    """

    kind: CarryKind
    operands: tuple[Operand, ...]
    images: tuple[Image, ...]
    enabled: bool = True

    def __post_init__(self):
        object.__setattr__(self, "operands", tuple(self.operands))
        object.__setattr__(self, "images", tuple(self.images))

    def operand_entities(self) -> tuple[int, ...]:
        return tuple(op.entity for op in self.operands)

    def image_entities(self) -> tuple[int, ...]:
        return tuple(im.entity for im in self.images)


@dataclass(frozen=True)
class Override:
    """One scheduled parameter change; it persists until overridden again.

    ``field`` is one of ``"radix"`` (new radix for operand ``entity``),
    ``"coeff"`` (new coefficient toward image ``entity``), or ``"enabled"``
    (``entity`` is None, ``value`` is a bool).
    """

    operator: int
    field: str
    entity: int | None
    value: Fraction | bool

    def __post_init__(self):
        if self.field not in ("radix", "coeff", "enabled"):
            raise ValueError(f"unknown override field {self.field!r}")
        if self.field != "enabled":
            object.__setattr__(self, "value", as_rational(self.value))


@dataclass(frozen=True)
class Cao:
    """A named network of entities and operators, with an optional schedule.

    The schedule maps a step index to the overrides taking effect at that
    step. Overrides persist: a radix changed at step 1 stays changed until a
    later step overrides it again.
    """

    name: str
    entities: tuple[Entity, ...] = ()
    operators: tuple[Operator, ...] = ()
    mode: Mode = Mode.Q_PLUS
    schedule: dict[int, tuple[Override, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entities", tuple(self.entities))
        object.__setattr__(self, "operators", tuple(self.operators))
        object.__setattr__(
            self, "schedule", {int(k): tuple(v) for k, v in self.schedule.items()}
        )

    @property
    def size(self) -> int:
        return len(self.entities)

    def entity_names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entities)

    def initial_state(self) -> tuple[Fraction, ...]:
        return tuple(e.initial for e in self.entities)


@dataclass(frozen=True)
class Violation:
    """One structural rule broken, and the element of the network that breaks it.

    ``at`` names that element from the outside in: ``("entity", i)`` and
    ``("entity", i, "initial")``; ``("operator", o)``, ``("operator", o,
    "operand"|"image", slot)`` and that path ending in ``"radix"`` or
    ``"coefficient"``; ``("schedule", step)`` and ``("schedule", step, slot,
    "operator"|"entity"|"value")``. A slot is a position inside the operator
    or schedule step; ``i`` and ``o`` are entity and operator indices.
    """

    code: str
    message: str
    at: tuple[str | int, ...]

    def __str__(self) -> str:
        return self.message


def validate_cao(cao: Cao) -> list[Violation]:
    """Check every structural rule and return all violations (empty = valid).

    The scan never aborts early, so one pass reports everything wrong.
    """
    out: list[Violation] = []
    m = cao.size

    seen_names: dict[str, int] = {}
    for i, ent in enumerate(cao.entities):
        at = ("entity", i)
        if ent.index != i:
            out.append(
                Violation(
                    "bad-entity-index",
                    f"entity '{ent.name}' has index {ent.index}, expected {i}",
                    at,
                )
            )
        if not ent.name:
            out.append(Violation("bad-entity-name", f"entity {i} has an empty name", at))
        elif ent.name in seen_names:
            out.append(Violation("duplicate-entity", f"duplicate entity name '{ent.name}'", at))
        else:
            seen_names[ent.name] = i
        if ent.initial < 0:
            out.append(
                Violation(
                    "negative-initial",
                    f"negative initial cardinal {format_rational(ent.initial)} "
                    f"for entity '{ent.name}'",
                    (*at, "initial"),
                )
            )

    outgoing: dict[int, int] = {}  # entity index -> operator that drains it
    for oi, op in enumerate(cao.operators):
        at = ("operator", oi)
        if not op.operands:
            out.append(Violation("empty-operands", f"operator {oi} has no operands", at))
        if not op.images:
            out.append(Violation("empty-images", f"operator {oi} has no images", at))

        local_operands: set[int] = set()
        for slot, operand in enumerate(op.operands):
            e = operand.entity
            at = ("operator", oi, "operand", slot)
            if not 0 <= e < m:
                out.append(
                    Violation(
                        "bad-entity-index",
                        f"operator {oi} operand {slot} references unknown entity {e}",
                        at,
                    )
                )
                continue
            name = cao.entities[e].name
            if operand.radix <= 0:
                out.append(
                    Violation(
                        "non-positive-radix",
                        f"non-positive radix {format_rational(operand.radix)} "
                        f"for operand '{name}' of operator {oi}",
                        (*at, "radix"),
                    )
                )
            if e in local_operands:
                out.append(
                    Violation(
                        "duplicate-operand",
                        f"duplicate operand '{name}' in operator {oi}",
                        at,
                    )
                )
                continue
            local_operands.add(e)
            if e in outgoing:
                out.append(
                    Violation(
                        "multiple-outgoing",
                        f"entity '{name}' has multiple outgoing operators "
                        f"(already an operand of operator {outgoing[e]})",
                        at,
                    )
                )
            else:
                outgoing[e] = oi

        local_images: set[int] = set()
        for slot, image in enumerate(op.images):
            e = image.entity
            at = ("operator", oi, "image", slot)
            if not 0 <= e < m:
                out.append(
                    Violation(
                        "bad-entity-index",
                        f"operator {oi} image {slot} references unknown entity {e}",
                        at,
                    )
                )
                continue
            name = cao.entities[e].name
            if e in local_operands:
                out.append(
                    Violation(
                        "self-loop", f"operator {oi} maps entity '{name}' to itself", at
                    )
                )
            if e in local_images:
                out.append(
                    Violation(
                        "duplicate-image", f"duplicate image '{name}' in operator {oi}", at
                    )
                )
            local_images.add(e)
            if cao.mode is Mode.Q_PLUS and image.coefficient < 0:
                out.append(
                    Violation(
                        "negative-coefficient",
                        f"negative coefficient {format_rational(image.coefficient)} "
                        f"toward image '{name}' (qplus mode forbids signs)",
                        (*at, "coefficient"),
                    )
                )

    for step in sorted(cao.schedule):
        if step < 0:
            out.append(
                Violation(
                    "schedule-negative-step", f"negative schedule step {step}", ("schedule", step)
                )
            )
        for slot, ov in enumerate(cao.schedule[step]):
            violation = _override_violation(cao, step, slot, ov)
            if violation is not None:
                out.append(violation)
    return out


def build_configuration_matrix(cao: Cao) -> tuple[tuple[Fraction, ...], ...]:
    """The m-by-m structural summary of the network's declared operators.

    The diagonal holds each entity's radix (0 for sinks, entities that are
    operands of no operator); cell (i, j) off the diagonal holds the
    conversion coefficient carried from operand i toward image j (0 when no
    such connection exists). Fan-in operators replicate each image
    coefficient across all of their operand rows. Rows and columns follow
    ``cao.entity_names()``.

    Disabled operators contribute no cells (their operands show radix 0 like
    sinks), exactly as if absent. Declaration order of operators does not
    affect the result: each entity is drained by at most one operator, so
    every cell has a single writer.
    """
    m = cao.size
    zero = Fraction(0)
    grid = [[zero] * m for _ in range(m)]
    for op in cao.operators:
        if not op.enabled:
            continue
        for operand in op.operands:
            grid[operand.entity][operand.entity] = operand.radix
            for image in op.images:
                grid[operand.entity][image.entity] = image.coefficient
    return tuple(tuple(row) for row in grid)


def _entity_name(cao: Cao, e: int) -> str:
    return cao.entities[e].name if e in range(cao.size) else f"#{e}"


def _override_violation(cao: Cao, step: int, slot: int, ov: Override) -> Violation | None:
    """The rule that override ``slot`` of schedule step ``step`` breaks, or None.

    Overrides change values, never which entities an operator reads or feeds,
    so checking against the declared operators holds for every segment. A
    message is built only for a broken override.
    """
    at = ("schedule", step, slot)
    if not 0 <= ov.operator < len(cao.operators):
        problem = f"schedule step {step} targets unknown operator {ov.operator}"
        return Violation("schedule-bad-operator", problem, (*at, "operator"))
    op, e = cao.operators[ov.operator], ov.entity
    if ov.field == "enabled":
        if not isinstance(ov.value, bool):
            problem = f"schedule step {step}: enabled override needs a boolean"
            return Violation("schedule-bad-value", problem, (*at, "value"))
    elif ov.field == "radix":
        if e not in op.operand_entities():
            name = _entity_name(cao, e)
            problem = f"schedule step {step}: '{name}' is not an operand of operator {ov.operator}"
            return Violation("schedule-not-operand", problem, (*at, "entity"))
        if ov.value <= 0:
            radix, name = format_rational(ov.value), _entity_name(cao, e)
            problem = f"schedule step {step}: non-positive radix {radix} for operand '{name}'"
            return Violation("schedule-non-positive-radix", problem, (*at, "value"))
    elif e not in op.image_entities():  # coeff
        name = _entity_name(cao, e)
        problem = f"schedule step {step}: '{name}' is not an image of operator {ov.operator}"
        return Violation("schedule-not-image", problem, (*at, "entity"))
    elif cao.mode is Mode.Q_PLUS and ov.value < 0:
        coefficient, name = format_rational(ov.value), _entity_name(cao, e)
        problem = (
            f"schedule step {step}: negative coefficient {coefficient} toward image '{name}' "
            "(qplus mode forbids signs)"
        )
        return Violation("schedule-negative-coefficient", problem, (*at, "value"))
    return None


def _overridden(op: Operator, ov: Override) -> Operator:
    """``op`` with ``ov`` applied; ``ov`` breaks no rule of ``_override_violation``."""
    if ov.field == "enabled":
        return Operator(op.kind, op.operands, op.images, ov.value)
    e, value = ov.entity, ov.value
    if ov.field == "radix":
        new = tuple(Operand(e, value) if o.entity == e else o for o in op.operands)
        return Operator(op.kind, new, op.images, op.enabled)
    new = tuple(Image(e, value) if i.entity == e else i for i in op.images)
    return Operator(op.kind, op.operands, new, op.enabled)


def schedule_segments(cao: Cao) -> Iterator[tuple[int, int | None, tuple[Operator, ...]]]:
    """The schedule as ``(start, stop, operators)`` segments, in step order.

    A segment's operators hold for ``start <= k < stop``; the last segment's
    ``stop`` is None, and each ``stop`` is the next segment's ``start``, so
    the segments tile the steps 0, 1, 2, .... Overrides at steps 0 and below
    fold into the step-0 segment; every later schedule step starts a segment
    of its own. Each override is folded once, in step order then slot order,
    and only when the consumer asks for its segment: an override the consumer
    never reaches never raises. An unscheduled network yields the single
    segment ``(0, None, cao.operators)``. An override that breaks a rule of
    :func:`validate_cao` raises ScheduleError with the validator's message;
    a validated network never does.
    """
    keys = sorted(cao.schedule)
    ops = cao.operators
    start = folded = 0
    while True:
        while folded < len(keys) and keys[folded] <= start:
            step = keys[folded]
            for slot, ov in enumerate(cao.schedule[step]):
                violation = _override_violation(cao, step, slot, ov)
                if violation is not None:
                    raise ScheduleError(violation.message)
                i = ov.operator
                ops = ops[:i] + (_overridden(ops[i], ov),) + ops[i + 1 :]
            folded += 1
        stop = keys[folded] if folded < len(keys) else None
        yield start, stop, ops
        if stop is None:
            return
        start = stop


def apply_schedule(cao: Cao, step: int) -> tuple[Operator, ...]:
    """The operators in effect at ``step``: those of the :func:`schedule_segments`
    segment that holds it (a step below 0 reads the first). The base network is
    never modified; without a schedule this is ``cao.operators`` itself."""
    for _, stop, ops in schedule_segments(cao):
        if stop is None or step < stop:
            return ops
