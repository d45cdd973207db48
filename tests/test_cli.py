import errno
import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from conftest import SAMPLES
from corpus import PAST_THE_LIMIT_TEXT, decay_text, random_cao, ring_text, wide_cao
from snsq import cli, runner
from snsq.cli import build_parser, main
from snsq.dsl import parse, serialize
from snsq.matrix_engine import build_operators
from snsq.rationals import format_rational
from snsq.runner import EquivalenceReport

ALLFORMS = str(SAMPLES / "allforms7.sns")
SIGNED = str(SAMPLES / "signed_inflow.sns")
DRIP = str(SAMPLES / "drip.sns")

BAD_QMINUS = """\
cao "crash" mode qminus kind integer {
    entity i = 21;
    entity j = 27;
    entity s = 5;
    op (i:10) -> (s:3);
    op (j:8) -> (s:-5);
}
"""


@pytest.fixture
def bad_qminus_file(tmp_path):
    path = tmp_path / "crash.sns"
    path.write_text(BAD_QMINUS, encoding="utf-8")
    return str(path)


class TestValidate:
    @pytest.mark.parametrize("path", [ALLFORMS, SIGNED, DRIP])
    def test_clean_files_are_silent(self, capsys, path):
        assert main(["validate", path]) == 0
        out = capsys.readouterr()
        assert out.out == "" and out.err == ""

    def test_broken_file(self, capsys, tmp_path):
        path = tmp_path / "broken.sns"
        path.write_text('cao "x" {\n    entity a = 1\n}\n', encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:3:1: error:" in err

    def test_structurally_invalid_file(self, capsys, tmp_path):
        path = tmp_path / "neg.sns"
        path.write_text(
            'cao "x" {\n    entity a = 1;\n    entity b = 0;\n    op (a:0) -> (b:1);\n}\n',
            encoding="utf-8",
        )
        assert main(["validate", str(path)]) == 1
        assert "non-positive radix" in capsys.readouterr().err

    def test_missing_file(self, capsys, tmp_path):
        assert main(["validate", str(tmp_path / "nope.sns")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "bytes.sns"
        path.write_bytes(b"\xff\xfe")
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"snsq: cannot read {path}: not UTF-8 text (invalid start byte at byte 0)\n"

    def test_a_leading_byte_order_mark_is_dropped(self, capsys, tmp_path):
        path = tmp_path / "bom.sns"
        path.write_bytes(b"\xef\xbb\xbf" + (SAMPLES / "drip.sns").read_bytes())
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().err == ""
        path.write_bytes(b'\xef\xbb\xbfcao "t" { $ }\n')
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == f"{path}:1:11: error: unexpected character '$'\n"  # columns as without it


class TestRun:
    def test_final_state_lines(self, capsys):
        assert main(["run", ALLFORMS, "--steps", "10"]) == 0
        out = capsys.readouterr().out
        assert "i = 27/4" in out
        assert "u = 63/64" in out
        assert "h = 189/640" in out

    def test_matrix_backend_prints_the_same_state(self, capsys):
        assert main(["run", ALLFORMS, "--steps", "10"]) == 0
        operator_out = capsys.readouterr().out
        assert main(["run", ALLFORMS, "--steps", "10", "--backend", "matrix"]) == 0
        assert capsys.readouterr().out == operator_out

    def test_violation_exits_2_with_last_valid_state(self, capsys, bad_qminus_file):
        assert main(["run", bad_qminus_file, "--steps", "5"]) == 2
        out = capsys.readouterr()
        assert "would drive 's' to -4" in out.err
        assert "s = 5" in out.out  # initial state is the last valid one

    def test_jsonl_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(["run", ALLFORMS, "--steps", "10", "--trace", str(trace)]) == 0
        lines = trace.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        assert json.loads(lines[-1])["state"]["h"] == "189/640"

    def test_state_past_the_int_str_limit(self, capsys, tmp_path):
        path = tmp_path / "big.sns"
        path.write_text(PAST_THE_LIMIT_TEXT, encoding="utf-8")
        trace = tmp_path / "t.jsonl"
        assert main(["run", str(path), "--steps", "5", "--trace", str(trace)]) == 0
        c = "1" + "0" * 8000  # 8001 digits, past the 4300-digit default limit
        assert capsys.readouterr().out == f"a = 0\nb = 0\nc = {c}\n"
        last = trace.read_text(encoding="utf-8").splitlines()[-1]
        assert json.loads(last)["state"]["c"] == c

    def test_csv_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.csv"
        code = main(
            ["run", DRIP, "--steps", "10", "--trace", str(trace), "--format", "csv"]
        )
        assert code == 0
        lines = trace.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "step,entity,cardinal"
        assert "3,cup,3" in lines

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_trace(self, capsys, tmp_path, where):
        trace, code = {
            "missing_dir": (tmp_path / "nonexistent" / "t.jsonl", errno.ENOENT),
            "directory": (tmp_path, errno.EISDIR),
        }[where]
        assert main(["run", DRIP, "--steps", "3", "--trace", str(trace)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"snsq: cannot write {trace}: {os.strerror(code)}\n"


LOOP = """\
cao "loop" {
    entity a = 1;
    entity b = 0;
    op (a:1) -> (b:1);
    op (b:1) -> (a:1);
}
"""

# c drains into the a-b swap once, then the swap repeats from step 1
TAIL = """\
cao "tail" {
    entity a = 2;
    entity b = 0;
    entity c = 1;
    op (a:1) -> (b:1);
    op (b:1) -> (a:1);
    op (c:1) -> (a:1);
}
"""


class TestStreamedTrace:
    """``run --trace`` writes records as the run makes them; the file holds
    the bytes ``render_trace`` gives for the collected run."""

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("backend", ["operator", "matrix"])
    @pytest.mark.parametrize("network", ["fixed_point", "qminus_violation", "cycle_detected"])
    def test_bytes_match_the_collected_run(self, capsys, tmp_path, network, backend, fmt):
        text = {
            "fixed_point": (SAMPLES / "allforms7.sns").read_text(encoding="utf-8"),
            "qminus_violation": BAD_QMINUS,
            "cycle_detected": LOOP,
        }[network]
        path = tmp_path / "net.sns"
        path.write_text(text, encoding="utf-8")
        trace = tmp_path / f"t.{fmt}"
        argv = ["run", str(path), "--steps", "10", "--backend", backend, "--trace", str(trace)]
        assert main([*argv, "--format", fmt]) == (2 if network == "qminus_violation" else 0)
        cao = parse(text).cao
        result = runner.run(cao, 10, backend)
        assert result.outcome.reason.value == network
        assert trace.read_bytes() == runner.render_trace(
            result.records, cao.entity_names(), fmt
        ).encode("utf-8")


def traced_peak(fn) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_keeps_no_records(capsys, tmp_path):
    # the records of 1000 steps outweigh a streamed run's peak, traced or not,
    # more than 10 to 1: the trace renderer keeps an LRU of 8 texts per entity,
    # and one that kept every record's would peak near the records themselves
    path = tmp_path / "decay.sns"
    path.write_text(decay_text(random.Random(6)), encoding="utf-8")
    cao = parse(path.read_text(encoding="utf-8")).cao
    collected = traced_peak(lambda: runner.run(cao, 1000))
    main(["run", str(path), "--steps", "1"])  # argparse's one-time build stays out of the peaks
    for trace in ([], ["--trace", str(tmp_path / "t.jsonl")]):
        streamed = traced_peak(lambda: main(["run", str(path), "--steps", "1000", *trace]))
        assert capsys.readouterr().out.startswith("a = ")
        assert streamed < collected / 10, (trace, streamed, collected)


def test_run_keeps_no_states(capsys, tmp_path):
    # the cycle test holds at most one hash per visited state, not the state;
    # a run of decay, which cannot cycle, drops even those at step 32
    path = tmp_path / "decay.sns"
    path.write_text(decay_text(random.Random(6)), encoding="utf-8")
    cao = parse(path.read_text(encoding="utf-8")).cao
    states = {record.state for record in runner.run(cao, 1000).records}
    assert len(states) == 1001
    held = sum(
        sys.getsizeof(state)
        + sum(sys.getsizeof(v) + sys.getsizeof(v.numerator) + sys.getsizeof(v.denominator) for v in state)
        for state in states
    )
    del states
    streamed = traced_peak(lambda: main(["run", str(path), "--steps", "1000"]))
    assert capsys.readouterr().out.startswith("a = ")
    assert streamed < held / 2, (streamed, held)


class TestFixpoint:
    def test_settling_network(self, capsys):
        assert main(["fixpoint", ALLFORMS]) == 0
        assert capsys.readouterr().out == "fixed_point after 3 steps\n"

    def test_drip_settles_after_three(self, capsys):
        assert main(["fixpoint", DRIP, "--max-steps", "9"]) == 0
        assert capsys.readouterr().out == "fixed_point after 3 steps\n"

    def test_cycle(self, capsys, tmp_path):
        path = tmp_path / "loop.sns"
        path.write_text(LOOP, encoding="utf-8")
        assert main(["fixpoint", str(path)]) == 0
        assert capsys.readouterr().out == "cycle_detected after 2 steps\n"

    def test_cycle_after_a_transient(self, capsys, tmp_path):
        path = tmp_path / "tail.sns"
        path.write_text(TAIL, encoding="utf-8")
        for backend in ("operator", "matrix"):
            assert main(["fixpoint", str(path), "--backend", backend]) == 0
            assert capsys.readouterr().out == "cycle_detected after 3 steps\n"

    def test_step_limit(self, capsys, tmp_path):
        path = tmp_path / "grow.sns"
        path.write_text(
            'cao "grow" {\n'
            "    entity a = 1;\n"
            "    entity b = 1;\n"
            "    op (a:1) -> (b:2);\n"
            "    op (b:1) -> (a:2);\n"
            "}\n",
            encoding="utf-8",
        )
        assert main(["fixpoint", str(path), "--max-steps", "4"]) == 0
        assert capsys.readouterr().out == "step_limit after 4 steps\n"

    def test_violation_exits_2(self, capsys, bad_qminus_file):
        assert main(["fixpoint", bad_qminus_file]) == 2
        out = capsys.readouterr()
        assert out.out == "qminus_violation after 0 steps\n"
        assert "'s' would reach -4" in out.err


# Full stdout of `snsq matrix samples/allforms7.sns`, pinned byte for byte:
# the tables are kept as sparse cells and printed row by row, in O(m + nnz)
# memory, and the display must not drift with the storage.
ALLFORMS_MATRIX = """\
configuration
      i  j  d   s  g  u  h
  i  10  0  1   2  0  0  0
  j   0  8  1   2  0  0  0
  d   0  0  8   0  2  0  0
  s   0  0  0  10  1  3  0
  g   0  0  0   0  4  0  1
  u   0  0  0   0  0  2  1
  h   0  0  0   0  0  0  0

radix diagonal
      i  j  d   s  g  u  h
  i  10  0  0   0  0  0  0
  j   0  8  0   0  0  0  0
  d   0  0  8   0  0  0  0
  s   0  0  0  10  0  0  0
  g   0  0  0   0  4  0  0
  u   0  0  0   0  0  2  0
  h   0  0  0   0  0  0  0

inverse radix diagonal
        i    j    d     s    g    u  h
  i  1/10    0    0     0    0    0  0
  j     0  1/8    0     0    0    0  0
  d     0    0  1/8     0    0    0  0
  s     0    0    0  1/10    0    0  0
  g     0    0    0     0  1/4    0  0
  u     0    0    0     0    0  1/2  0
  h     0    0    0     0    0    0  0

transfer
       i   j   d    s   g   u  h
  i  -10   0   0    0   0   0  0
  j    0  -8   0    0   0   0  0
  d    1   0  -8    0   0   0  0
  s    0   2   0  -10   0   0  0
  g    0   0   2    1  -4   0  0
  u    0   0   0    3   0  -2  0
  h    0   0   0    0   1   0  0

carry groups
  group 0: i, j
  group 1: d
  group 2: s
  group 3: g, u
  sinks: h
"""

# The same for the scheduled integer sample (the declared radices, not a
# segment's) and for the qminus sample with a negative coefficient.
OTHER_MATRICES = {
    DRIP: """\
configuration
        tank  cup
  tank     4    1
   cup     0    0

radix diagonal
        tank  cup
  tank     4    0
   cup     0    0

inverse radix diagonal
        tank  cup
  tank   1/4    0
   cup     0    0

transfer
        tank  cup
  tank    -4    0
   cup     1    0

carry groups
  group 0: tank
  sinks: cup
""",
    SIGNED: """\
configuration
      i  j   s
  i  10  0   3
  j   0  8  -1
  s   0  0   0

radix diagonal
      i  j  s
  i  10  0  0
  j   0  8  0
  s   0  0  0

inverse radix diagonal
        i    j  s
  i  1/10    0  0
  j     0  1/8  0
  s     0    0  0

transfer
       i   j  s
  i  -10   0  0
  j    0  -8  0
  s    3  -1  0

carry groups
  group 0: i
  group 1: j
  sinks: s
""",
}


class TestMatrix:
    def test_golden_output(self, capsys):
        assert main(["matrix", ALLFORMS]) == 0
        assert capsys.readouterr().out == ALLFORMS_MATRIX

    @pytest.mark.parametrize("path", list(OTHER_MATRICES), ids=["drip", "signed_inflow"])
    def test_golden_output_of_the_other_samples(self, path, capsys):
        assert main(["matrix", path]) == 0
        assert capsys.readouterr().out == OTHER_MATRICES[path]

    def test_tables(self, capsys):
        assert main(["matrix", ALLFORMS]) == 0
        out = capsys.readouterr().out
        for title in ("configuration", "radix diagonal", "inverse radix diagonal", "transfer", "carry groups"):
            assert title in out
        assert "group 0: i, j" in out
        assert "group 3: g, u" in out
        assert "sinks: h" in out
        assert "-10" in out  # transfer diagonal
        assert "1/10" in out  # inverse radix


def dense_matrix_output(cao) -> str:
    """`snsq matrix` stdout as printed from dense m-by-m grids of every table:
    the reference that the sparse, row-by-row printer must match byte for byte."""
    m, names, zero = cao.size, cao.entity_names(), Fraction(0)
    configuration = [[zero] * m for _ in range(m)]
    for op in cao.operators:
        if op.enabled:
            for operand in op.operands:
                configuration[operand.entity][operand.entity] = operand.radix
                for image in op.images:
                    configuration[operand.entity][image.entity] = image.coefficient
    ops = build_operators(cao)

    def diagonal(values):
        return [[v if j == i else zero for j in range(m)] for i, v in enumerate(values)]

    transfer = diagonal([-r for r in ops.radix])
    for image, representative, coefficient in ops.conversion:
        transfer[image][representative] += coefficient

    def table(title, grid):
        rows = [("", *names)] + [(n, *map(format_rational, row)) for n, row in zip(names, grid)]
        widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
        lines = ["  " + "  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)) for row in rows]
        return "\n".join([title, *lines])

    groups = ["carry groups"]
    groups += [f"  group {g}: " + ", ".join(names[e] for e in group) for g, group in enumerate(ops.partition)]
    grouped = {e for group in ops.partition for e in group}
    if len(grouped) < m:
        groups.append("  sinks: " + ", ".join(n for e, n in enumerate(names) if e not in grouped))
    sections = [
        table("configuration", configuration),
        table("radix diagonal", diagonal(ops.radix)),
        table("inverse radix diagonal", diagonal(ops.inverse_radix)),
        table("transfer", transfer),
        "\n".join(groups),
    ]
    return "\n\n".join(sections) + "\n"


def _differential_networks():
    """(id, network text): the samples, an empty network and seeded draws of
    2 to 64 entities; coefficients of 0 are drawn too, and stored as cells."""
    cases = [(path.stem, path.read_text(encoding="utf-8")) for path in sorted(SAMPLES.glob("*.sns"))]
    cases.append(("empty", 'cao "empty" {\n}\n'))
    rng = random.Random(2101)
    cases += [(f"random{case}", serialize(random_cao(rng, max_entities=64))) for case in range(30)]
    cases += [(f"wide{case}", serialize(wide_cao(rng, with_schedule=case % 2 == 0))) for case in range(10)]
    return cases


DIFFERENTIAL = _differential_networks()


class TestMatrixAgainstDenseGrids:
    @pytest.mark.parametrize("text", [text for _, text in DIFFERENTIAL], ids=[i for i, _ in DIFFERENTIAL])
    def test_stdout_matches_the_dense_reference(self, text, tmp_path, capsys):
        path = tmp_path / "net.sns"
        path.write_text(text, encoding="utf-8")
        assert main(["matrix", str(path)]) == 0
        assert capsys.readouterr().out == dense_matrix_output(parse(text).cao)

    def test_the_draws_reach_every_kind_of_cell(self):
        caos = [parse(text).cao for _, text in DIFFERENTIAL]
        images = [image for cao in caos for op in cao.operators for image in op.images]
        assert sum(image.coefficient == 0 for image in images) >= 5
        assert sum(image.coefficient < 0 for image in images) >= 5
        assert sum(len(op.operands) > 1 for cao in caos for op in cao.operators) >= 20
        assert max(cao.size for cao in caos) >= 60

    @pytest.mark.slow
    def test_a_thousand_entity_ring(self, tmp_path, capsys):
        path = tmp_path / "ring.sns"
        path.write_text(ring_text(1000), encoding="utf-8")
        assert main(["matrix", str(path)]) == 0
        assert capsys.readouterr().out == dense_matrix_output(parse(ring_text(1000)).cao)

    def test_memory_grows_with_entities_not_cells(self, tmp_path, monkeypatch):
        # an m-entity ring's tables have 4m² cells but only ~5m non-zero ones;
        # stdout discards its writes, as capsys would keep the O(m²) text
        peaks = {}
        for m in (250, 500):
            path = tmp_path / f"ring{m}.sns"
            path.write_text(ring_text(m), encoding="utf-8")
            with open(os.devnull, "w", encoding="utf-8") as sink, monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", sink)
                peaks[m] = traced_peak(lambda: main(["matrix", str(path)]))
        assert peaks[500] < 4_000_000, peaks
        assert peaks[500] / peaks[250] < 3, peaks


class TestCheck:
    def test_agreement(self, capsys):
        assert main(["check", ALLFORMS, "--steps", "6"]) == 0
        assert capsys.readouterr().out == "backends agree for 3 steps\n"

    def test_divergence_exits_3(self, capsys, monkeypatch):
        fake = EquivalenceReport(
            False, 2, entity="g", kind="carry",
            operator_value=None, matrix_value=None,
        )
        monkeypatch.setattr("snsq.cli.runner.check_equivalence", lambda cao, steps: fake)
        assert main(["check", ALLFORMS, "--steps", "6"]) == 3
        err = capsys.readouterr().err
        assert "diverge at step 2" in err and "carry of 'g'" in err


class TestArgumentErrors:
    # Usage errors exit 64 (EX_USAGE), not argparse's 2, which a qminus
    # violation already means; the text on stderr is argparse's own.
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64
        err = capsys.readouterr().err
        assert err.startswith("usage: snsq ")
        assert "\nsnsq: error: argument command: invalid choice: 'frobnicate'" in err

    def test_run_requires_steps(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", ALLFORMS])
        assert exc.value.code == 64
        err = capsys.readouterr().err
        assert err.endswith("snsq run: error: the following arguments are required: --steps\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", ALLFORMS, "--steps", "-1"],
            ["fixpoint", ALLFORMS, "--max-steps", "-2"],
            ["check", ALLFORMS, "--steps", "-3"],
        ],
        ids=["run", "fixpoint", "check"],
    )
    def test_negative_budget_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"step budget must be non-negative, got {argv[-1]}" in captured.err


# Each verb's argv, with every kind of usage error and both help forms; F is
# a clean sample, M a file that does not exist.
PINNED_ARGV = [
    "validate -h", "run -h", "fixpoint -h", "matrix -h", "check -h", "-h", "--help",
    "", "frobnicate", "RUN F --steps 3", "--steps 3 run F", "-- run F --steps 3",
    "-x run F", "run F --steps 3 extra", "validate F F", "matrix F --steps 3",
    "run F", "check F", "validate", "run F --steps 3 --backend gpu",
    "run F --steps 3 --format xml", "fixpoint F --backend gpu", "run F --step 3",
    "check F --step 2", "fixpoint F --max 4", "run F --steps=4", "check F --steps=4",
    "run F --steps -1", "fixpoint F --max-steps -2", "check F --steps -3",
    "run F --steps x", "run F --steps 3 --trace", "run F --steps 3 -h",
    "validate M", "run M --steps 3", "check M --steps 2", "validate F",
    "run F --steps 3", "run F --steps 3 --backend matrix", "fixpoint F",
    "fixpoint F --max-steps 2 --backend matrix", "matrix F", "check F --steps 6",
]

SNSQ_HELP = """\
usage: snsq [-h] {validate,run,fixpoint,matrix,check} ...

Exact-rational simulator for carry/convert operator networks.

positional arguments:
  {validate,run,fixpoint,matrix,check}
    validate            parse a network file and check its structure
    run                 run a network and print the final state
    fixpoint            run until the state settles, repeats, or hits the
                        budget
    matrix              print the structural matrices and carry groups
    check               run both backends in lockstep and compare

options:
  -h, --help            show this help message and exit
"""

RUN_HELP = """\
usage: snsq run [-h] --steps STEPS [--backend {operator,matrix}]
                [--trace PATH] [--format {jsonl,csv}]
                file

positional arguments:
  file

options:
  -h, --help            show this help message and exit
  --steps STEPS         step budget
  --backend {operator,matrix}
  --trace PATH          write the trajectory to PATH
  --format {jsonl,csv}
"""

VERBS = ["validate", "run", "fixpoint", "matrix", "check"]


def call(entry, argv, capsys) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI call."""
    try:
        code = entry(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParserText:
    """``main`` reuses one parser per process; what it prints must not tell."""

    @pytest.mark.parametrize("columns", ["80", "200"])
    @pytest.mark.parametrize("line", PINNED_ARGV)
    def test_same_as_the_full_parser(self, capsys, monkeypatch, tmp_path, line, columns):
        # the parser built at the other width, then used for every other line
        # first, prints what a freshly built one prints
        paths = {"F": DRIP, "M": str(tmp_path / "missing.sns")}

        def argv(text: str) -> list[str]:
            return [paths.get(word, word) for word in text.split()]

        cli._parser.cache_clear()
        monkeypatch.setenv("COLUMNS", "80" if columns == "200" else "200")
        at = PINNED_ARGV.index(line)
        for other in PINNED_ARGV[at + 1 :] + PINNED_ARGV[:at]:  # builds, then runs the rest
            call(main, argv(other), capsys)
        monkeypatch.setenv("COLUMNS", columns)
        reused = call(main, argv(line), capsys)
        monkeypatch.setattr("snsq.cli._parser", build_parser)  # a fresh parser per call
        assert reused == call(main, argv(line), capsys)

    @pytest.mark.parametrize(
        "argv, text",
        [(["--help"], SNSQ_HELP), (["run", "--help"], RUN_HELP)],
        ids=["snsq", "run"],
    )
    def test_help_text(self, capsys, monkeypatch, argv, text):
        monkeypatch.setenv("COLUMNS", "80")
        assert call(main, argv, capsys) == (0, text, "")


def test_main_builds_the_parser_once(capsys, monkeypatch, tmp_path, bad_qminus_file):
    builds = []

    def counted():
        builds.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr("snsq.cli.build_parser", counted)
    calls = [
        ["run", DRIP, "--steps", "3"],
        ["run", DRIP, "--steps", "-1"],
        ["--help"],
        ["run", bad_qminus_file, "--steps", "5"],
        ["validate", str(tmp_path / "missing.sns")],
    ]
    assert [call(main, argv, capsys)[0] for argv in calls] == [0, 64, 0, 2, 1]
    assert len(builds) == 1


def test_module_entry_point_usage_error():
    # main(None) reads sys.argv; the usage line still lists every verb
    proc = subprocess.run(
        [sys.executable, "-m", "snsq", "run", DRIP, "--steps", "3", "extra"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "COLUMNS": "80"},
    )
    assert proc.returncode == 64
    assert proc.stdout == ""
    assert proc.stderr == (
        "usage: snsq [-h] {validate,run,fixpoint,matrix,check} ...\n"
        "snsq: error: unrecognized arguments: extra\n"
    )


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "snsq", "fixpoint", ALLFORMS],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "fixed_point after 3 steps\n"


def test_closed_stdout_exits_141_quietly(tmp_path):
    # 128 entities: the matrix tables (~350 KB) fill the pipe long before the
    # reader closes it, so the write fails with EPIPE
    path = tmp_path / "chain.sns"
    path.write_text(ring_text(128), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "snsq", "matrix", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.read(13) == b"configuration"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
