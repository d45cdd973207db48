"""snsq benchmark: the CLI verbs, timed in-process on seeded network files.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 20 --trace 0

Run it from the root of an snsq checkout; it imports the program from
``src/`` and the gate's corpus generator from ``tests/corpus.py``. Inputs
and traces go to a temporary directory in the checkout that is removed at
the end. With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer ones (spans are also written to
``.perfbench-spans/``). The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("chain", "decay", "retune", "corpus")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/snsq/cli.py", "tests/corpus.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not an snsq checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import bench
    import tracing
    import workloads

    # A terminated run still removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    began = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        try:
            workload = workloads.build(args.workload, args.seed, Path(tmp))
        except workloads.WorkloadError as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 1
        for note in workload.notes:
            print(f"perfbench: {note}", file=sys.stderr)
        # Set-up objects leave the collector's view, so the gc.collect() before
        # each call is cheap and a verb's own collections scan what it made.
        gc.freeze()
        session = bench.Session(workload, Path(tmp))
        if args.trace:
            spans = ROOT / ".perfbench-spans" / f"{args.workload}-seed{args.seed}.csv"
            values, lines = bench.per_layer(session, args.seconds, spans)
            units = tracing.per_layer_units()
        else:
            values, lines = bench.end_to_end(session, args.seconds)
            units = {name: unit for name, (unit, _) in bench.END_TO_END.items()}

    print(
        f"{args.workload} seed {args.seed}: {len(workload.networks)} file(s), "
        f"{workload.steps} steps, {time.perf_counter() - began:.1f} s"
    )
    print("\n".join(lines))
    share = session.failed / session.attempted
    print(f"  failed_share   {share:>12.6g}     {session.failed} of {session.attempted} verb calls")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
