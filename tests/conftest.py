from __future__ import annotations

import random
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))

from corpus import fed_back, random_cao, wide_cao
from snsq.model import Cao, CarryKind, Entity, Image, Mode, Operand, Operator

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def build_ref7() -> Cao:
    """Seven entities, one operator of each shape, rational carries.

    Same network as samples/allforms7.sns; built by hand here so the DSL is
    not in the loop when the engines are under test.
    """
    return Cao(
        "allforms7",
        entities=(
            Entity(0, "i", 33),
            Entity(1, "j", 21),
            Entity(2, "d", 0),
            Entity(3, "s", 0),
            Entity(4, "g", 0),
            Entity(5, "u", 0),
            Entity(6, "h", 0),
        ),
        operators=(
            Operator(
                CarryKind.RATIONAL_EXACT,
                (Operand(0, 10), Operand(1, 8)),
                (Image(2, 1), Image(3, 2)),
            ),
            Operator(CarryKind.RATIONAL_EXACT, (Operand(2, 8),), (Image(4, 2),)),
            Operator(
                CarryKind.RATIONAL_EXACT,
                (Operand(3, 10),),
                (Image(4, 1), Image(5, 3)),
            ),
            Operator(
                CarryKind.RATIONAL_EXACT,
                (Operand(4, 4), Operand(5, 2)),
                (Image(6, 1),),
            ),
        ),
    )


# Hand-computed trajectory of ref7, frozen before the engines were written.
REF7_STATES = (
    (Fr(33), Fr(21), Fr(0), Fr(0), Fr(0), Fr(0), Fr(0)),
    (Fr(27, 4), Fr(0), Fr(21, 8), Fr(21, 4), Fr(0), Fr(0), Fr(0)),
    (Fr(27, 4), Fr(0), Fr(0), Fr(0), Fr(189, 160), Fr(63, 40), Fr(0)),
    (Fr(27, 4), Fr(0), Fr(0), Fr(0), Fr(0), Fr(63, 64), Fr(189, 640)),
)

# Per-entity common-carry vectors for the three moving steps above.
REF7_CARRIES = (
    (Fr(21, 8), Fr(21, 8), Fr(0), Fr(0), Fr(0), Fr(0), Fr(0)),
    (Fr(0), Fr(0), Fr(21, 64), Fr(21, 40), Fr(0), Fr(0), Fr(0)),
    (Fr(0), Fr(0), Fr(0), Fr(0), Fr(189, 640), Fr(189, 640), Fr(0)),
)


def build_signed_inflow(loss=-1) -> Cao:
    """Two integer carries feeding s, one with a negative coefficient.

    With the default loss of -1 a step lands s at 5 + 6 - 3 = 8; a loss of
    -5 would drive s to -4 and must be refused.
    """
    return Cao(
        "signed_inflow",
        entities=(Entity(0, "i", 21), Entity(1, "j", 27), Entity(2, "s", 5)),
        operators=(
            Operator(CarryKind.INTEGER_FLOOR, (Operand(0, 10),), (Image(2, 3),)),
            Operator(CarryKind.INTEGER_FLOOR, (Operand(1, 8),), (Image(2, loss),)),
        ),
        mode=Mode.Q_MINUS,
    )


def densify(cells: dict[tuple[int, int], Fr], m: int) -> tuple[tuple[Fr, ...], ...]:
    """The m-by-m grid of a table given as ``(row, column)`` cells, 0 where absent."""
    return tuple(tuple(cells.get((i, j), Fr(0)) for j in range(m)) for i in range(m))


@st.composite
def drawn_networks(draw):
    """A seeded ``random_cao`` draw of up to 64 entities in either mode, with
    or without a schedule, as drawn or ``fed_back``; or a ``wide_cao`` draw."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(("random", "fed_back", "wide")))
    if shape == "wide":
        return wide_cao(rng, with_schedule=draw(st.booleans()))
    cao = random_cao(
        rng,
        max_entities=draw(st.integers(2, 64)),
        mode=draw(st.sampled_from(tuple(Mode))),
        with_schedule=draw(st.booleans()),
    )
    return fed_back(cao) if shape == "fed_back" else cao


@pytest.fixture
def ref7() -> Cao:
    return build_ref7()


@pytest.fixture
def signed_inflow() -> Cao:
    return build_signed_inflow()


@pytest.fixture
def samples_dir() -> Path:
    return SAMPLES
