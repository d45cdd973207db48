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
as ``snsq matrix FILE | head`` does, with nothing on stderr. Diagnostics and
violation details go to stderr, results to stdout.

``run`` and ``fixpoint`` keep no trajectory in memory: ``run --trace``
writes each record to the file as the run makes it.

The parser is built once per process, on the first ``main`` call, and every
later call reuses it, since argparse set-up outweighs the stepping of a small
network. Help width and the output streams are read when text is printed.
"""

from __future__ import annotations

import argparse
import functools
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


def _load(path: str) -> Cao | None:
    """Parse and validate a file; print diagnostics. Returns None on failure."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        print(f"snsq: cannot read {path}: {err.strerror}", file=sys.stderr)
        return None
    except UnicodeDecodeError as err:
        reason = f"not UTF-8 text ({err.reason} at byte {err.start})"
        print(f"snsq: cannot read {path}: {reason}", file=sys.stderr)
        return None
    result = dsl.parse(text)
    for diag in result.diagnostics:
        print(f"{path}:{diag}", file=sys.stderr)
    return result.cao


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
    violated = outcome.reason is runner.StopReason.QMINUS_VIOLATION
    if violated:
        entity, value = outcome.violation
        print(
            f"{args.file}: step {outcome.steps} would drive '{entity}' to "
            f"{format_rational(value)}; stopping at the last valid state",
            file=sys.stderr,
        )
    _print_state(cao.entity_names(), outcome.final_state)
    return 2 if violated else 0


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


def _print_table(title: str, names: tuple[str, ...], cells: dict[tuple[int, int], Fraction]) -> None:
    """A square table of rationals under ``title``, its rows and columns named by ``names``,
    printed a row at a time from its ``(row, column)`` cells (an absent cell is 0)."""
    # an entity name is never empty, so no column is narrower than a "0" cell
    widths = [len(name) for name in names]
    rows = [[] for _ in names]
    for (i, j), value in cells.items():
        text = format_rational(value)
        rows[i].append((j, text))
        widths[j] = max(widths[j], len(text))
    zeros = ["0".rjust(w) for w in widths]
    label = max(map(len, names), default=0)
    print(title)
    print("  " + "  ".join(["".rjust(label), *map(str.rjust, names, widths)]))
    for name, row in zip(names, rows):
        line = zeros.copy()
        for j, text in row:
            line[j] = text.rjust(widths[j])
        print("  " + "  ".join([name.rjust(label), *line]))


def _cmd_matrix(args: argparse.Namespace, cao: Cao) -> int:
    ops = matrix_engine.build_operators(cao)
    names = ops.names
    for title, cells in (
        ("configuration", build_configuration_matrix(cao)),
        ("radix diagonal", {(e, e): v for e, v in enumerate(ops.radix)}),
        ("inverse radix diagonal", {(e, e): v for e, v in enumerate(ops.inverse_radix)}),
        ("transfer", matrix_engine.transfer_matrix(ops)),
    ):
        _print_table(title, names, cells)
        print()
    print("carry groups")
    for gi, group in enumerate(ops.partition):
        print(f"  group {gi}: " + ", ".join(names[e] for e in group))
    grouped = {e for group in ops.partition for e in group}
    sinks = [name for e, name in enumerate(names) if e not in grouped]
    if sinks:
        print("  sinks: " + ", ".join(sinks))
    return 0


def _cmd_check(args: argparse.Namespace, cao: Cao) -> int:
    report = runner.check_equivalence(cao, args.steps)
    if report.equivalent:
        print(f"backends agree for {report.steps} steps")
        return 0

    def fmt(value: Fraction | None) -> str:
        return "violation-free" if value is None else format_rational(value)

    print(
        f"{args.file}: backends diverge at step {report.steps} "
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
        ("--format", {"choices": runner.TRACE_FORMATS, "default": "jsonl"}),
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


def build_parser() -> argparse.ArgumentParser:
    """The snsq parser, with all five verbs."""
    parser = _Parser(
        prog="snsq",
        description="Exact-rational simulator for carry/convert operator networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, options, handler in _VERBS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=handler)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """This process's parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    cao = _load(args.file)
    if cao is None:
        return 1
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
