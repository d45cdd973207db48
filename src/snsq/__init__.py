"""snsq — exact-rational simulation of carry/convert operator networks.

State lives in named entities as non-negative rationals; operators drain
their operands by radix-scaled common carries and feed coefficient-scaled
transformants to their images, all synchronously. Two independent step
implementations (per-operator firings and a matrix state equation) must
agree exactly, and a small text format round-trips definitions.
"""

from snsq.dsl import Diagnostic, ParseResult, Span, parse, serialize
from snsq.matrix_engine import (
    StateOperators,
    build_operators,
    effective_operators,
    step_general,
    transfer_matrix,
)
from snsq.model import (
    Cao,
    CarryKind,
    CarryPartition,
    ConfigurationMatrix,
    Entity,
    Image,
    Mode,
    NegativeCardinalError,
    Operand,
    Operator,
    OperatorForm,
    Override,
    ScheduleError,
    Violation,
    apply_schedule,
    build_configuration_matrix,
    carry_partition,
    validate_cao,
)
from snsq.op_engine import Firing, common_carry_vector, fire_operator, partial_carry, step
from snsq.rationals import (
    Rational,
    as_rational,
    floor_to_integer,
    format_rational,
    parse_rational,
)
from snsq.runner import (
    EquivalenceReport,
    RunOutcome,
    RunResult,
    StepRecord,
    StopReason,
    check_equivalence,
    render_trace,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "Cao",
    "CarryKind",
    "CarryPartition",
    "ConfigurationMatrix",
    "Diagnostic",
    "Entity",
    "EquivalenceReport",
    "Firing",
    "Image",
    "Mode",
    "NegativeCardinalError",
    "Operand",
    "Operator",
    "OperatorForm",
    "Override",
    "ParseResult",
    "Rational",
    "RunOutcome",
    "RunResult",
    "ScheduleError",
    "Span",
    "StateOperators",
    "StepRecord",
    "StopReason",
    "Violation",
    "apply_schedule",
    "as_rational",
    "build_configuration_matrix",
    "build_operators",
    "carry_partition",
    "check_equivalence",
    "common_carry_vector",
    "effective_operators",
    "fire_operator",
    "floor_to_integer",
    "format_rational",
    "parse",
    "parse_rational",
    "partial_carry",
    "render_trace",
    "run",
    "serialize",
    "step",
    "step_general",
    "transfer_matrix",
    "validate_cao",
    "__version__",
]
