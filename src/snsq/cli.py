"""Command-line front end.

Subcommands::

    snsq validate FILE                 parse + structural check, silent when clean
    snsq run FILE --steps N            run and print the final state
    snsq fixpoint FILE [--max-steps N] run until the trajectory settles
    snsq matrix FILE                   print the structural matrices and groups
    snsq check FILE --steps N          cross-check the two step backends

Exit codes: 0 success; 1 the file failed to read, parse, or validate, or
the trace could not be written; 2 a step would drive a cardinal negative
(qminus violation); 3 the two backends disagreed; 64 (``EX_USAGE``) a usage
error, such as an unknown subcommand or a missing or negative step budget;
141 (128 + SIGPIPE) the reader closed stdout before the output was written,
as ``snsq matrix FILE | head`` does, with nothing on stderr. Diagnostics and violation details go to stderr, results to stdout.

``run`` and ``fixpoint`` keep no trajectory in memory: ``run --trace``
writes each record to the file as the run makes it.

A call builds only the subparser of the verb it names, since argparse set-up
outweighs the stepping of a small network; help, no arguments, an unknown
verb or an option before the verb build all five.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from snsq import dsl, matrix_engine, runner
from snsq.model import Cao, build_configuration_matrix
from snsq.rationals import format_rational


EX_USAGE = 64  # sysexits.h; 2 is the qminus violation's code
EX_PIPE = 141  # a shell's status for a process that SIGPIPE ended


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on their own exit code; subparsers inherit it."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _load(path: str) -> tuple[Cao | None, int]:
    """Parse and validate a file; print diagnostics. Returns (cao, exit_code)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        print(f"snsq: cannot read {path}: {err.strerror}", file=sys.stderr)
        return None, 1
    except UnicodeDecodeError as err:
        reason = f"not UTF-8 text ({err.reason} at byte {err.start})"
        print(f"snsq: cannot read {path}: {reason}", file=sys.stderr)
        return None, 1
    result = dsl.parse(text)
    for diag in result.diagnostics:
        print(f"{path}:{diag}", file=sys.stderr)
    if result.cao is None:
        return None, 1
    return result.cao, 0


def _step_budget(text: str) -> int:
    """argparse type for ``--steps`` and ``--max-steps``: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid step budget: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"step budget must be non-negative, got {value}")
    return value


def _print_state(names: tuple[str, ...], state: tuple[Fraction, ...]) -> None:
    for name, value in zip(names, state):
        print(f"{name} = {format_rational(value)}")


def _cmd_validate(args: argparse.Namespace, cao: Cao) -> int:
    return 0  # loading the file is the whole check


def _cmd_run(args: argparse.Namespace, cao: Cao) -> int:
    records = runner.iter_run(cao, max_steps=args.steps, backend=args.backend)
    if args.trace:
        try:
            outcome = runner.write_trace(args.trace, records, cao.entity_names(), args.format)
        except OSError as err:
            print(f"snsq: cannot write {args.trace}: {err.strerror}", file=sys.stderr)
            return 1
    else:
        outcome = runner.drain(records)
    if outcome.reason is runner.StopReason.QMINUS_VIOLATION:
        entity, value = outcome.violation
        print(
            f"{args.file}: step {outcome.steps} would drive '{entity}' to "
            f"{format_rational(value)}; stopping at the last valid state",
            file=sys.stderr,
        )
        _print_state(cao.entity_names(), outcome.final_state)
        return 2
    _print_state(cao.entity_names(), outcome.final_state)
    return 0


def _cmd_fixpoint(args: argparse.Namespace, cao: Cao) -> int:
    outcome = runner.drain(runner.iter_run(cao, max_steps=args.max_steps, backend=args.backend))
    print(f"{outcome.reason.value} after {outcome.steps} steps")
    if outcome.reason is runner.StopReason.QMINUS_VIOLATION:
        entity, value = outcome.violation
        print(
            f"{args.file}: '{entity}' would reach {format_rational(value)}",
            file=sys.stderr,
        )
        return 2
    return 0


def _fmt_table(title: str, header: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    grid = [header, *rows]
    widths = [max(len(row[c]) for row in grid) for c in range(len(header))]
    lines = [title]
    for row in grid:
        lines.append("  " + "  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)))
    return "\n".join(lines)


def _cmd_matrix(args: argparse.Namespace, cao: Cao) -> int:
    ops = matrix_engine.build_operators(cao)
    names = ops.names

    def matrix_rows(matrix) -> list[tuple[str, ...]]:
        return [
            (names[i], *(format_rational(cell) for cell in row))
            for i, row in enumerate(matrix)
        ]

    def diagonal_rows(values: tuple[Fraction, ...]) -> list[tuple[str, ...]]:
        return [
            (names[i], *(format_rational(v) if j == i else "0" for j in range(len(names))))
            for i, v in enumerate(values)
        ]

    header = ("", *names)
    config = build_configuration_matrix(cao)
    sections = [
        _fmt_table("configuration", header, matrix_rows(config.cells)),
        _fmt_table("radix diagonal", header, diagonal_rows(ops.radix)),
        _fmt_table("inverse radix diagonal", header, diagonal_rows(ops.inverse_radix)),
        _fmt_table("transfer", header, matrix_rows(matrix_engine.transfer_matrix(ops))),
    ]
    groups = ["carry groups"]
    for gi, group in enumerate(ops.partition.groups):
        members = ", ".join(names[e] for e in group)
        groups.append(f"  group {gi}: {members}")
    if ops.partition.sinks:
        groups.append("  sinks: " + ", ".join(names[e] for e in ops.partition.sinks))
    sections.append("\n".join(groups))
    print("\n\n".join(sections))
    return 0


def _cmd_check(args: argparse.Namespace, cao: Cao) -> int:
    report = runner.check_equivalence(cao, args.steps)
    if report.equivalent:
        print(f"backends agree for {report.steps} steps")
        return 0

    def fmt(value: Fraction | None) -> str:
        return "violation-free" if value is None else format_rational(value)

    print(
        f"{args.file}: backends diverge at step {report.step} "
        f"({report.kind} of '{report.entity}'): "
        f"operator={fmt(report.operator_value)} matrix={fmt(report.matrix_value)}",
        file=sys.stderr,
    )
    return 3


_BACKEND = ("--backend", {"choices": runner.BACKENDS, "default": "operator"})

# (name, help, options, handler): every verb takes a FILE, then its options,
# each a (flag, add_argument keywords) pair.
_VERBS = (
    ("validate", "parse a network file and check its structure", (), _cmd_validate),
    ("run", "run a network and print the final state", (
        ("--steps", {"type": _step_budget, "required": True, "help": "step budget"}),
        _BACKEND,
        ("--trace", {"metavar": "PATH", "help": "write the trajectory to PATH"}),
        ("--format", {"choices": ("jsonl", "csv"), "default": "jsonl"}),
    ), _cmd_run),
    ("fixpoint", "run until the state settles, repeats, or hits the budget", (
        ("--max-steps", {"type": _step_budget, "default": 1000}),
        _BACKEND,
    ), _cmd_fixpoint),
    ("matrix", "print the structural matrices and carry groups", (), _cmd_matrix),
    ("check", "run both backends in lockstep and compare", (
        ("--steps", {"type": _step_budget, "required": True}),
    ), _cmd_check),
)
# argparse's own metavar for all five; a one-verb parser's would name one
_EVERY_VERB = "{" + ",".join(name for name, *_ in _VERBS) + "}"


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The snsq parser, with only the subparser that ``argv[0]`` names.

    With no ``argv``, or one whose first word is no verb (help, no arguments,
    an unknown verb, an option first), it holds all five. With one verb, the
    top-level usage line still lists all five, as argparse would print it.
    """
    parser = _Parser(
        prog="snsq",
        description="Exact-rational simulator for carry/convert operator networks.",
    )
    verbs = [verb for verb in _VERBS if argv and verb[0] == argv[0]] or _VERBS
    sub = parser.add_subparsers(
        dest="command", required=True, **({} if verbs is _VERBS else {"metavar": _EVERY_VERB})
    )
    for name, help_text, options, handler in verbs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    cao, status = _load(args.file)
    if cao is None:
        return status
    try:
        status = args.func(args, cao)
        sys.stdout.flush()
    except BrokenPipeError:
        # Python ignores SIGPIPE. Point stdout at devnull so that the flush
        # at exit cannot fail again (the recipe in the signal module's docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EX_PIPE
    return status
