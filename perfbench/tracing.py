"""Per-layer spans, recorded from outside the program.

``installed`` wraps each layer's public function wherever an snsq module holds
it. Several modules import functions by name (``op_engine`` and
``matrix_engine`` import ``apply_schedule``, ``dsl`` imports ``validate_cao``,
``cli`` and ``runner`` import ``format_rational``), so patching only the
defining module would miss those calls. Every wrapped call becomes a span
(name, start, end, parent) kept in memory; ``layer_metrics`` reduces the
spans of one round to per-layer times, self times, counts and shares.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

# Span name, defining module, function.
LAYERS = (
    ("cli.build_parser", "snsq.cli", "build_parser"),
    ("dsl.parse", "snsq.dsl", "parse"),
    ("model.validate", "snsq.model", "validate_cao"),
    ("model.apply_schedule", "snsq.model", "apply_schedule"),
    ("op_engine.step", "snsq.op_engine", "step"),
    ("matrix_engine.step_general", "snsq.matrix_engine", "step_general"),
    ("matrix_engine.effective_operators", "snsq.matrix_engine", "effective_operators"),
    ("matrix_engine.build_operators", "snsq.matrix_engine", "build_operators"),
    ("runner.run", "snsq.runner", "run"),
    ("runner.check", "snsq.runner", "check_equivalence"),
    ("runner.render_trace", "snsq.runner", "render_trace"),
)
# Called too often for a span each; only counted.
COUNTED = (("rationals.format_rational", "snsq.rationals", "format_rational"),)

# Per-layer time metric -> the layer it measures; ``_self_s`` metrics and
# ``cli.self_s`` take self time, the others inclusive time. The benchmark
# names each verb call's span ``verb.<verb>``; together they are layer ``cli``.
TIMES = {
    "cli.build_parser_s": "cli.build_parser",
    "dsl.parse_s": "dsl.parse",
    "model.validate_s": "model.validate",
    "model.apply_schedule_s": "model.apply_schedule",
    "op_engine.step_s": "op_engine.step",
    "op_engine.step_self_s": "op_engine.step",
    "matrix_engine.step_general_s": "matrix_engine.step_general",
    "matrix_engine.effective_operators_s": "matrix_engine.effective_operators",
    "matrix_engine.build_operators_s": "matrix_engine.build_operators",
    "runner.run_self_s": "runner.run",
    "runner.check_self_s": "runner.check",
    "runner.render_trace_s": "runner.render_trace",
    "cli.self_s": "cli",
}
COUNTS = {
    "dsl.parse_calls": "count",
    "model.apply_schedule_calls": "count",
    "op_engine.step_calls": "count",
    "op_engine.firings": "count",
    "matrix_engine.step_general_calls": "count",
    "matrix_engine.effective_operators_calls": "count",
    "matrix_engine.build_operators_calls": "count",
    "runner.records_retained": "count",
    "runner.trace_bytes": "bytes",
    "rationals.format_rational_calls": "count",
    "rationals.max_num_bits": "bits",
    "rationals.max_den_bits": "bits",
}


def share_name(metric: str) -> str:
    return metric[: -len("_s")] + "_share"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "s" for name in TIMES}
    units.update({share_name(name): "%" for name in TIMES})
    units.update(COUNTS)
    units["trace.overhead_s"] = "s"
    return units


def _observe_step(tracer: Tracer, result) -> None:
    tracer.counts["op_engine.firings"] += len(result[1])


def _observe_run(tracer: Tracer, result) -> None:
    tracer.counts["runner.records_retained"] += len(result.records)
    for value in result.outcome.final_state:
        tracer.bits("rationals.max_num_bits", abs(value.numerator).bit_length())
        tracer.bits("rationals.max_den_bits", value.denominator.bit_length())


OBSERVERS = {"op_engine.step": _observe_step, "runner.run": _observe_run}


class Tracer:
    """Spans and counters of one traced round, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def bits(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], value)

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def count(self, name: str, fn):
        key = name + "_calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every snsq module's reference to a layer function through ``tracer``."""
    modules = [m for n, m in sys.modules.items() if n == "snsq" or n.startswith("snsq.")]
    patched = []
    try:
        for wrap, table in ((tracer.wrap, LAYERS), (tracer.count, COUNTED)):
            for name, defining, attr in table:
                original = getattr(sys.modules[defining], attr)
                replacement = wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, replacement)
                            patched.append((module, key, original))
        yield tracer
    finally:
        for module, key, original in reversed(patched):
            setattr(module, key, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times, self times, call counts and shares of one traced round.

    A span's self time is its duration minus its children's (spans nest, one
    thread). A layer's share is its time over the time of the verbs it ran in.
    """
    spans = tracer.spans
    duration = [end - start for _, start, end, _ in spans]
    children = [0.0] * len(spans)
    root = list(range(len(spans)))
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent] += duration[i]
            root[i] = root[parent]
    total: defaultdict[str, float] = defaultdict(float)
    own: defaultdict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    verbs: defaultdict[str, set[int]] = defaultdict(set)
    for i, (name, _, _, _) in enumerate(spans):
        layer = "cli" if name.startswith("verb.") else name
        total[layer] += duration[i]
        own[layer] += duration[i] - children[i]
        calls[layer] += 1
        verbs[layer].add(root[i])

    out: dict[str, float] = {}
    for metric, layer in TIMES.items():
        value = own[layer] if metric.endswith("_self_s") or layer == "cli" else total[layer]
        verb_time = sum(duration[r] for r in verbs[layer])
        out[metric] = value
        out[share_name(metric)] = 100.0 * value / verb_time if verb_time else 0.0
    for metric in COUNTS:
        layer = metric.removesuffix("_calls")
        out[metric] = calls[layer] if layer in calls else tracer.counts[metric]
    return out


def verb_breakdown(tracers: list[Tracer]) -> dict[str, dict[str, float]]:
    """Inclusive time of every layer inside each verb, with the verb's own total,
    summed over rounds."""
    out: defaultdict[str, defaultdict[str, float]] = defaultdict(lambda: defaultdict(float))
    for tracer in tracers:
        spans = tracer.spans
        root = list(range(len(spans)))
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                root[i] = root[parent]
            out[spans[root[i]][0]][name] += end - start
    return out
