"""snsq — exact-rational simulation of carry/convert operator networks.

State lives in named entities as non-negative rationals; operators drain
their operands by radix-scaled common carries and feed coefficient-scaled
transformants to their images, all synchronously. Two independent step
implementations (per-operator firings and a matrix state equation) must
agree exactly, and a small text format round-trips definitions.
"""

from snsq.dsl import Diagnostic, ParseResult, serialize
from snsq.model import Cao, CarryKind, Entity, Image, Operand, Operator
from snsq.runner import (
    EquivalenceReport,
    RunOutcome,
    RunResult,
    StepRecord,
    StopReason,
    check_equivalence,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "Cao",
    "CarryKind",
    "Diagnostic",
    "Entity",
    "EquivalenceReport",
    "Image",
    "Operand",
    "Operator",
    "ParseResult",
    "RunOutcome",
    "RunResult",
    "StepRecord",
    "StopReason",
    "check_equivalence",
    "run",
    "serialize",
    "__version__",
]
