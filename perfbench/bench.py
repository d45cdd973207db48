"""Timing loop, output checks and metrics of one benchmark run.

One process, no worker threads. Every verb call is ``snsq.cli.main`` called
in-process on a generated file, with stdout and stderr captured; its exit
code and stdout are checked against the expected output after the clock
stops. ``gc.collect()`` runs before each timed call and GC stays enabled.
tracemalloc runs only in the separate, untimed memory pass. End-to-end
rounds take each call's CPU time and read it at a fixed machine pace (see
``speed``).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import speed
import tracing
from workloads import VALIDATE_REPEATS, VERBS, Network, Workload, argv, expect

# End-to-end metric -> (unit, verb whose passes it is taken from).
END_TO_END = {
    "setup_s": ("s", "validate"),
    "run_s": ("s", "run"),
    "run_matrix_s": ("s", "run_matrix"),
    "fixpoint_s": ("s", "fixpoint"),
    "check_s": ("s", "check"),
    "trace_s": ("s", "trace"),
    "check_p50_ms": ("ms", None),
    "check_p99_ms": ("ms", None),
    "peak_mem_mb": ("MB", None),
}


def invoke(
    cli_main,
    args: list[str],
    tracer: tracing.Tracer | None = None,
    span: str = "verb",
    clock=time.perf_counter,
):
    """Call the CLI in-process; returns (exit code, stdout, stderr, seconds on ``clock``).

    An exception escaping ``main`` is a failed call, reported as exit code
    ``raised`` with its traceback in the captured stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        index = tracer.begin(span) if tracer is not None else -1
        start = clock()
        try:
            code = cli_main(args)
        except Exception:
            code = "raised"
            traceback.print_exc()
        seconds = clock() - start
        if tracer is not None:
            tracer.end(index)
    return code, out.getvalue(), err.getvalue(), seconds


def _trace_ends_with(path: str, stdout: str) -> bool:
    """The trace's final record holds the state that ``run`` printed."""
    with open(path, "rb") as fh:
        fh.seek(max(0, os.path.getsize(path) - (1 << 20)))
        last = fh.read().decode("utf-8").rstrip("\n").rsplit("\n", 1)[-1]
    printed = dict(line.split(" = ", 1) for line in stdout.splitlines())
    return json.loads(last).get("state") == printed


class Session:
    """The verb calls of one run on one workload, with their pass/fail tally."""

    def __init__(self, workload: Workload, workdir: Path) -> None:
        from snsq.cli import main

        self.main = main
        self.workload = workload
        self.trace_path = str(workdir / "trace.jsonl")
        self.attempted = 0
        self.failed = 0

    def call(
        self,
        net: Network,
        verb: str,
        tracer: tracing.Tracer | None = None,
        gauge: speed.Gauge | None = None,
    ) -> float:
        args = argv(verb, net.path, self.workload.steps, self.trace_path)
        if verb == "trace" and os.path.exists(self.trace_path):
            # Removed just before the call, not after the last one, so the
            # page-cache pages it frees are still at hand when the new trace
            # is written. Removed right after, what a corpus trace call costs
            # over a plain run call varied 2x between runs of the same code
            # (0.25-0.41 ms against 0.16-0.18 ms), likely because the guest
            # hands free pages back to the host and fetching them again is slow.
            os.remove(self.trace_path)
        if gauge is not None:
            gauge.before_call()
        gc.collect()
        clock = time.perf_counter if gauge is None else speed.CLOCK
        code, out, err, seconds = invoke(self.main, args, tracer, f"verb.{verb}", clock)
        if gauge is not None:
            gauge.record(seconds)
        self.attempted += 1
        ok = expect(code, out) == net.expected[verb]
        if verb == "trace":
            if os.path.exists(self.trace_path):
                if tracer is not None:
                    tracer.counts["runner.trace_bytes"] += os.path.getsize(self.trace_path)
                ok = ok and _trace_ends_with(self.trace_path, out)
            else:
                ok = False
        if not ok:
            self.failed += 1
            if self.failed <= 3:
                print(
                    f"perfbench: snsq {' '.join(args)}: got {expect(code, out)}, "
                    f"expected {net.expected[verb]}\n{err[-2000:]}",
                    file=sys.stderr,
                )
        return seconds

    def _plan(self):
        """(file index, file, verb) of each call in a round, files the outer loop."""
        for i, net in enumerate(self.workload.networks):
            for verb in VERBS:
                n = VALIDATE_REPEATS[self.workload.name] if verb == "validate" else 1
                for _ in range(n):
                    yield i, net, verb

    def round(
        self,
        tracer: tracing.Tracer | None = None,
        gauged: bool = False,
        deadline: float | None = None,
    ) -> dict[str, list[list[float]]]:
        """Every verb on every file once (validate several times), or the calls
        that start before ``deadline``; per verb, each file's call times: wall
        seconds, or CPU seconds at the reference pace if ``gauged``.

        Files are the outer loop, so each verb's calls spread over the whole
        round and all verbs see the same machine conditions.
        """
        gauge = speed.Gauge() if gauged else None
        times: dict[str, list[list[float]]] = {
            verb: [[] for _ in self.workload.networks] for verb in VERBS
        }
        slots = []
        for i, net, verb in self._plan():
            if deadline is not None and time.perf_counter() >= deadline:
                break
            slots.append((verb, i, len(times[verb][i])))
            times[verb][i].append(self.call(net, verb, tracer, gauge))
        if gauge is not None:
            for (verb, i, k), seconds in zip(slots, gauge.scaled()):
                times[verb][i][k] = seconds
        return times

    def peak_memory_mb(self) -> float:
        """Largest tracemalloc peak of one ``snsq run`` call, in 10^6 bytes."""
        peak = 0
        tracemalloc.start()
        try:
            for net in self.workload.networks:
                gc.collect()
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                self.call(net, "run")
                peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        return peak / 1e6


def _rounds(run_round, seconds: float) -> list:
    """Repeat ``run_round`` while another round of median length still fits."""
    start = time.perf_counter()
    results, lengths = [], []
    while not results or time.perf_counter() - start + statistics.median(lengths) <= seconds:
        t0 = time.perf_counter()
        results.append(run_round())
        lengths.append(time.perf_counter() - t0)
    return results


def end_to_end(session: Session, seconds: float) -> tuple[dict[str, float], list[str]]:
    """Untraced rounds: pass time per verb, check latency percentiles, peak memory.

    Rounds repeat until ``seconds`` have passed; the first runs whole, a later
    one stops there. Each call is read at the reference pace, and each file
    counts at its median call, so neither a spell of outside load nor a single
    stalled call moves a metric. A verb's time is the sum over files;
    ``setup_s`` is validate's, so on single-file workloads it is the median of
    many validate calls.
    """
    calls: dict[str, list[list[float]]] = {
        verb: [[] for _ in session.workload.networks] for verb in VERBS
    }
    deadline = time.perf_counter() + seconds
    rounds = 0
    while not rounds or time.perf_counter() < deadline:
        times = session.round(gauged=True, deadline=deadline if rounds else None)
        for verb in VERBS:
            for per_file, new in zip(calls[verb], times[verb]):
                per_file.extend(new)
        rounds += 1
    peak = session.peak_memory_mb()

    def per_file(verb: str) -> list[float]:
        """Each file's median call."""
        return [statistics.median(samples) for samples in calls[verb]]

    values = {
        metric: sum(per_file(verb)) for metric, (_, verb) in END_TO_END.items() if verb is not None
    }
    checks = per_file("check")
    values["check_p50_ms"] = 1e3 * statistics.median(checks)
    values["check_p99_ms"] = 1e3 * (
        statistics.quantiles(checks, n=100, method="inclusive")[98] if len(checks) > 1 else checks[0]
    )
    values["peak_mem_mb"] = peak
    files = len(checks)
    notes = {
        metric: f"sum over {files} file(s) of each one's median call; {sum(map(len, calls[verb]))} calls"
        for metric, (_, verb) in END_TO_END.items()
        if verb is not None
    }
    n = sum(map(len, calls["check"]))
    notes["check_p50_ms"] = f"median over {files} file(s) of each one's median call; {n} calls"
    notes["check_p99_ms"] = f"99th percentile over {files} file(s) of each one's median call; {n} calls"
    notes["peak_mem_mb"] = "largest peak of one untimed run call"
    lines = [
        f"  {metric:<14} {values[metric]:>12.6g} {unit:<3} {notes[metric]}"
        for metric, (unit, _) in END_TO_END.items()
    ]
    lines.append(f"  times are CPU seconds at the pace where speed.reference_work takes {speed.REFERENCE_S} s")
    return values, lines


def per_layer(session: Session, seconds: float, spans_path: Path) -> tuple[dict[str, float], list[str]]:
    """Alternate untraced and traced rounds; per-layer medians over the traced ones."""

    def pair():
        untraced = session.round()
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = session.round(tracer)
        return untraced, traced, tracer

    pairs = _rounds(pair, seconds)
    tracers = [tracer for _, _, tracer in pairs]
    layers = [tracing.layer_metrics(tracer) for tracer in tracers]
    values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    def seconds_in(times: list[list[float]]) -> float:
        return sum(map(sum, times))

    overhead = {
        verb: statistics.median(seconds_in(traced[verb]) for _, traced, _ in pairs)
        - statistics.median(seconds_in(untraced[verb]) for untraced, _, _ in pairs)
        for verb in VERBS
    }
    values["trace.overhead_s"] = sum(overhead.values())

    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write("round,name,start,end,parent\n")
        for r, tracer in enumerate(tracers):
            for name, start, end, parent in tracer.spans:
                fh.write(f"{r},{name},{start:.9f},{end:.9f},{parent}\n")

    totals = tracing.verb_breakdown(tracers)
    lines = [f"  per verb, summed over {len(tracers)} traced rounds; tracing overhead per round:"]
    for verb in VERBS:
        inside = totals[f"verb.{verb}"]
        whole = inside.pop(f"verb.{verb}")
        lines.append(f"    {verb:<12} {whole:10.4f} s   overhead {overhead[verb]:+.4f} s")
        for name, t in sorted(inside.items(), key=lambda kv: -kv[1]):
            lines.append(f"      {name:<34} {t:10.4f} s {100 * t / whole:6.1f} % of {verb}")
    return values, lines
