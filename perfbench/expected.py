"""Write perfbench/expected.json, the outputs the benchmark checks verb calls against.

    python3 perfbench/expected.py

Run it from the root of an snsq checkout, and only when the program's
outputs change on purpose. It records, at the checkout's commit:

* ``corpus``: for each of the gate's 1000 networks, in generation order, the
  exit code and stdout digest of ``run``, ``fixpoint`` and ``check``. It
  cross-checks them as it goes: ``validate`` is clean, both backends print
  the same state, ``check`` exits 0, and ``run`` prints the state of the raw
  N-step trajectory except on the scheduled networks where the runner stops
  early (ROADMAP item 1); those are listed under ``early_stop``.
* ``pins``: the ``run`` output of ``chain``, ``decay`` and ``retune`` for
  seeds 0-31, from the raw trajectory.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bench import invoke  # noqa: E402
from workloads import (  # noqa: E402
    EXPECTED_PATH,
    GENERATORS,
    PINNED_SEEDS,
    STEPS,
    argv,
    expect,
    gate_corpus,
    raw_final_state,
    state_text,
    write_network,
)

from snsq import op_engine  # noqa: E402
from snsq.cli import main as cli_main  # noqa: E402
from snsq.model import NegativeCardinalError  # noqa: E402


def raw_outcome(cao, steps: int) -> str:
    """Expected ``run`` output from ``steps`` raw steps, stopping at a violation."""
    state = cao.initial_state()
    for k in range(steps):
        try:
            state, _ = op_engine.step(state, cao, k)
        except NegativeCardinalError:
            return expect(2, state_text(cao, state))
    return expect(0, state_text(cao, state))


def corpus_expected() -> dict:
    steps = STEPS["corpus"]
    out: dict = {"steps": steps, "early_stop": [], "run": [], "fixpoint": [], "check": []}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for i, cao in enumerate(gate_corpus()):
            path = str(Path(tmp) / f"{cao.name}.sns")
            write_network(cao, Path(path))
            got = {}
            for verb in ("validate", "run", "run_matrix", "fixpoint", "check"):
                code, stdout, _, _ = invoke(cli_main, argv(verb, path, steps))
                got[verb] = expect(code, stdout)
            if got["validate"] != expect(0, ""):
                sys.exit(f"{cao.name}: validate is not clean")
            if got["run_matrix"] != got["run"]:
                sys.exit(f"{cao.name}: the backends print different states")
            if not got["check"].startswith("0:"):
                sys.exit(f"{cao.name}: check exits {got['check']}")
            if got["run"] != raw_outcome(cao, steps):
                if not cao.schedule:
                    sys.exit(f"{cao.name}: run differs from the raw trajectory")
                out["early_stop"].append(i)
            for verb in ("run", "fixpoint", "check"):
                out[verb].append(got[verb])
    return out


def main() -> None:
    corpus = corpus_expected()
    codes = Counter(entry.split(":")[0] for entry in corpus["run"])
    print(f"corpus: run exit codes {dict(codes)}, {len(corpus['early_stop'])} early stops")
    pins = {
        name: {
            str(seed): expect(0, state_text(cao, raw_final_state(cao, STEPS[name])))
            for seed in PINNED_SEEDS
            for cao in [make(random.Random(seed))]
        }
        for name, make in GENERATORS.items()
    }
    EXPECTED_PATH.write_text(json.dumps({"corpus": corpus, "pins": pins}, indent=1) + "\n")
    print(f"wrote {EXPECTED_PATH.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
