"""Entities, operators, and the networks they form.

A network (:class:`Cao`) is an ordered list of named entities, each holding a
non-negative exact cardinal, wired together by carry/convert operators
(:class:`Operator`). Firing an operator removes a carry-weighted amount from
its operand entities and adds coefficient-scaled transformants to its image
entities. This module owns the structural rules, the validator that enforces
them, and two derived views: the configuration matrix, which ``snsq matrix``
prints, and the carry partition, which groups the matrix backend's carries.
It also folds a network's schedule into piecewise-constant segments
(:func:`schedule_segments`); a run folds each override once and reads the
operators of the segment it is in, instead of re-folding steps 0..k on every
step.

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

Cycles in the operator topology are allowed; termination is the runner's
concern, not a structural property.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace
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


class OperatorForm(Enum):
    """Shape of an operator, derived from its valence (operand and image counts)."""

    L = "L"  # one operand, one image
    D = "D"  # one operand, several images (distribution)
    F = "F"  # several operands, one image (fusion)
    M = "M"  # several operands, several images


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

    The form is not stored; it follows from the operand/image counts. A
    disabled operator contributes zero carry and zero transformants, exactly
    as if absent for that step.
    """

    kind: CarryKind
    operands: tuple[Operand, ...]
    images: tuple[Image, ...]
    enabled: bool = True

    def __post_init__(self):
        object.__setattr__(self, "operands", tuple(self.operands))
        object.__setattr__(self, "images", tuple(self.images))

    @property
    def valence(self) -> tuple[int, int]:
        return len(self.operands), len(self.images)

    @property
    def form(self) -> OperatorForm:
        w, v = self.valence
        if w <= 1:
            return OperatorForm.L if v <= 1 else OperatorForm.D
        return OperatorForm.F if v <= 1 else OperatorForm.M

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
    """One structural rule broken, with enough locus to point at source text.

    ``operand``/``image``/``override`` are slot positions inside the operator
    or schedule step they accompany; ``entity`` is an entity index.
    """

    code: str
    message: str
    entity: int | None = None
    operator: int | None = None
    operand: int | None = None
    image: int | None = None
    step: int | None = None
    override: int | None = None

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
        if ent.index != i:
            out.append(
                Violation(
                    "bad-entity-index",
                    f"entity '{ent.name}' has index {ent.index}, expected {i}",
                    entity=i,
                )
            )
        if not ent.name:
            out.append(Violation("bad-entity-name", f"entity {i} has an empty name", entity=i))
        elif ent.name in seen_names:
            out.append(
                Violation(
                    "duplicate-entity",
                    f"duplicate entity name '{ent.name}'",
                    entity=i,
                )
            )
        else:
            seen_names[ent.name] = i
        if ent.initial < 0:
            out.append(
                Violation(
                    "negative-initial",
                    f"negative initial cardinal {format_rational(ent.initial)} "
                    f"for entity '{ent.name}'",
                    entity=i,
                )
            )

    def ent_name(e: int) -> str:
        return cao.entities[e].name if 0 <= e < m else f"#{e}"

    outgoing: dict[int, int] = {}  # entity index -> operator that drains it
    for oi, op in enumerate(cao.operators):
        if not op.operands:
            out.append(Violation("empty-operands", f"operator {oi} has no operands", operator=oi))
        if not op.images:
            out.append(Violation("empty-images", f"operator {oi} has no images", operator=oi))

        local_operands: set[int] = set()
        for slot, operand in enumerate(op.operands):
            e = operand.entity
            if not 0 <= e < m:
                out.append(
                    Violation(
                        "bad-entity-index",
                        f"operator {oi} operand {slot} references unknown entity {e}",
                        operator=oi,
                        operand=slot,
                    )
                )
                continue
            if operand.radix <= 0:
                out.append(
                    Violation(
                        "non-positive-radix",
                        f"non-positive radix {format_rational(operand.radix)} "
                        f"for operand '{ent_name(e)}' of operator {oi}",
                        operator=oi,
                        operand=slot,
                        entity=e,
                    )
                )
            if e in local_operands:
                out.append(
                    Violation(
                        "duplicate-operand",
                        f"duplicate operand '{ent_name(e)}' in operator {oi}",
                        operator=oi,
                        operand=slot,
                        entity=e,
                    )
                )
                continue
            local_operands.add(e)
            if e in outgoing:
                out.append(
                    Violation(
                        "multiple-outgoing",
                        f"entity '{ent_name(e)}' has multiple outgoing operators "
                        f"(already an operand of operator {outgoing[e]})",
                        operator=oi,
                        operand=slot,
                        entity=e,
                    )
                )
            else:
                outgoing[e] = oi

        local_images: set[int] = set()
        for slot, image in enumerate(op.images):
            e = image.entity
            if not 0 <= e < m:
                out.append(
                    Violation(
                        "bad-entity-index",
                        f"operator {oi} image {slot} references unknown entity {e}",
                        operator=oi,
                        image=slot,
                    )
                )
                continue
            if e in local_operands:
                out.append(
                    Violation(
                        "self-loop",
                        f"operator {oi} maps entity '{ent_name(e)}' to itself",
                        operator=oi,
                        image=slot,
                        entity=e,
                    )
                )
            if e in local_images:
                out.append(
                    Violation(
                        "duplicate-image",
                        f"duplicate image '{ent_name(e)}' in operator {oi}",
                        operator=oi,
                        image=slot,
                        entity=e,
                    )
                )
            local_images.add(e)
            if cao.mode is Mode.Q_PLUS and image.coefficient < 0:
                out.append(
                    Violation(
                        "negative-coefficient",
                        f"negative coefficient {format_rational(image.coefficient)} "
                        f"toward image '{ent_name(e)}' (qplus mode forbids signs)",
                        operator=oi,
                        image=slot,
                        entity=e,
                    )
                )

    for step in sorted(cao.schedule):
        overrides = cao.schedule[step]
        if step < 0:
            out.append(
                Violation("schedule-negative-step", f"negative schedule step {step}", step=step)
            )
        for slot, ov in enumerate(overrides):
            if not 0 <= ov.operator < len(cao.operators):
                out.append(
                    Violation(
                        "schedule-bad-operator",
                        f"schedule step {step} targets unknown operator {ov.operator}",
                        step=step,
                        override=slot,
                        operator=ov.operator,
                    )
                )
                continue
            op = cao.operators[ov.operator]
            if ov.field == "enabled":
                if not isinstance(ov.value, bool):
                    out.append(
                        Violation(
                            "schedule-bad-value",
                            f"schedule step {step}: enabled override needs a boolean",
                            step=step,
                            override=slot,
                            operator=ov.operator,
                        )
                    )
                continue
            if ov.field == "radix":
                if ov.entity not in op.operand_entities():
                    out.append(
                        Violation(
                            "schedule-not-operand",
                            f"schedule step {step}: '{ent_name(ov.entity)}' is not an "
                            f"operand of operator {ov.operator}",
                            step=step,
                            override=slot,
                            operator=ov.operator,
                        )
                    )
                elif ov.value <= 0:
                    out.append(
                        Violation(
                            "schedule-non-positive-radix",
                            f"schedule step {step}: non-positive radix "
                            f"{format_rational(ov.value)} for operand "
                            f"'{ent_name(ov.entity)}'",
                            step=step,
                            override=slot,
                            operator=ov.operator,
                        )
                    )
            else:  # coeff
                if ov.entity not in op.image_entities():
                    out.append(
                        Violation(
                            "schedule-not-image",
                            f"schedule step {step}: '{ent_name(ov.entity)}' is not an "
                            f"image of operator {ov.operator}",
                            step=step,
                            override=slot,
                            operator=ov.operator,
                        )
                    )
                elif cao.mode is Mode.Q_PLUS and ov.value < 0:
                    out.append(
                        Violation(
                            "schedule-negative-coefficient",
                            f"schedule step {step}: negative coefficient "
                            f"{format_rational(ov.value)} toward image "
                            f"'{ent_name(ov.entity)}' (qplus mode forbids signs)",
                            step=step,
                            override=slot,
                            operator=ov.operator,
                        )
                    )
    return out


@dataclass(frozen=True)
class ConfigurationMatrix:
    """The m-by-m structural summary of a network.

    The diagonal holds each entity's radix (0 for sinks, entities that are
    operands of no operator); cell (i, j) off the diagonal holds the
    conversion coefficient carried from operand i toward image j (0 when no
    such connection exists). Fan-in operators replicate each image
    coefficient across all of their operand rows.
    """

    names: tuple[str, ...]
    cells: tuple[tuple[Fraction, ...], ...]

    @property
    def size(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class CarryPartition:
    """Grouping of entities for the common-carry minimum.

    ``groups[k]`` is the operand entity tuple of operator ``k`` (declaration
    order), so fan-in operators yield multi-entity groups and single-operand
    operators yield singletons. ``sinks`` are the entities in no group; their
    common carry is pinned to zero.
    """

    size: int
    groups: tuple[tuple[int, ...], ...]
    sinks: tuple[int, ...]


def build_configuration_matrix(
    cao: Cao, operators: tuple[Operator, ...] | None = None
) -> ConfigurationMatrix:
    """Derive the configuration matrix, optionally from effective operators.

    Disabled operators contribute no cells (their operands show radix 0 like
    sinks), which is what makes a scheduled disable behave exactly like the
    operator being absent. Declaration order of operators does not affect the
    result: each entity is drained by at most one operator, so every cell has
    a single writer.
    """
    ops = cao.operators if operators is None else tuple(operators)
    m = cao.size
    zero = Fraction(0)
    grid = [[zero] * m for _ in range(m)]
    for op in ops:
        if not op.enabled:
            continue
        for operand in op.operands:
            grid[operand.entity][operand.entity] = operand.radix
            for image in op.images:
                grid[operand.entity][image.entity] = image.coefficient
    return ConfigurationMatrix(cao.entity_names(), tuple(tuple(row) for row in grid))


def carry_partition(cao: Cao) -> CarryPartition:
    """Group entities by the operator that drains them; the rest are sinks.

    The partition reflects declared topology only: schedules may retune or
    disable operators but never move an entity between groups.
    """
    groups = tuple(op.operand_entities() for op in cao.operators)
    grouped = {e for g in groups for e in g}
    sinks = tuple(e for e in range(cao.size) if e not in grouped)
    return CarryPartition(cao.size, groups, sinks)


def _overridden(op: Operator, ov: Override, mode: Mode) -> Operator:
    if ov.field == "enabled":
        return replace(op, enabled=bool(ov.value))
    if ov.field == "radix":
        if ov.value <= 0:
            raise ScheduleError(f"non-positive radix override {format_rational(ov.value)}")
        for slot, operand in enumerate(op.operands):
            if operand.entity == ov.entity:
                new = op.operands[:slot] + (replace(operand, radix=ov.value),) + op.operands[slot + 1 :]
                return replace(op, operands=new)
        raise ScheduleError(f"entity {ov.entity} is not an operand of the operator")
    if mode is Mode.Q_PLUS and ov.value < 0:
        raise ScheduleError(f"negative coefficient override {format_rational(ov.value)}")
    for slot, image in enumerate(op.images):
        if image.entity == ov.entity:
            new = op.images[:slot] + (replace(image, coefficient=ov.value),) + op.images[slot + 1 :]
            return replace(op, images=new)
    raise ScheduleError(f"entity {ov.entity} is not an image of the operator")


def schedule_segments(cao: Cao) -> Iterator[tuple[int, tuple[Operator, ...]]]:
    """The schedule as ``(first_step, operators)`` segments, in step order.

    A segment's operators hold from its first step until the next segment
    begins. Overrides at steps 0 and below fold into the step-0 segment;
    every later schedule step opens a segment of its own, so a consumer
    stepping k = 0, 1, 2, ... takes the next segment exactly when k is 0 or
    a schedule step. Each override is folded once, in step order then slot
    order, and only when the consumer asks for its segment: an override the
    consumer never reaches never raises. An unscheduled network yields the
    single segment ``(0, cao.operators)``. Structurally inapplicable
    overrides raise ScheduleError; a validated network never triggers that.
    """
    keys = sorted(cao.schedule)
    ops = cao.operators
    start = folded = 0
    while True:
        while folded < len(keys) and keys[folded] <= start:
            for ov in cao.schedule[keys[folded]]:
                i = ov.operator
                if not 0 <= i < len(ops):
                    raise ScheduleError(
                        f"unknown operator {i} in schedule step {keys[folded]}"
                    )
                ops = ops[:i] + (_overridden(ops[i], ov, cao.mode),) + ops[i + 1 :]
            folded += 1
        yield start, ops
        if folded == len(keys):
            return
        start = keys[folded]


def apply_schedule(cao: Cao, step: int) -> tuple[Operator, ...]:
    """Effective operator parameters at the given step: the operators of the
    last :func:`schedule_segments` segment that begins at or before it.

    Overrides persist until overridden again, and the base network is never
    modified. Without a schedule this returns ``cao.operators`` itself.
    """
    segments = schedule_segments(cao)
    _, ops = next(segments)
    for _ in range(sum(0 < k <= step for k in cao.schedule)):
        _, ops = next(segments)
    return ops
