"""Seeded benchmark inputs and the expected output of every verb call.

A workload is a set of `.sns` files, written into a work directory before
any timing starts, and a step budget N. Each file is paired with the expected
exit code and stdout digest of every verb the benchmark calls on it:

* ``chain``, ``decay`` and ``retune`` take their expectations from the raw
  trajectory: N calls of ``op_engine.step`` outside the runner. The generators
  are built so that this trajectory keeps moving for N + 1 steps (``chain``
  gains mass on every step, ``decay`` and ``retune`` lose it), and
  ``raw_final_state`` refuses one that does not. So every verb's output is
  known in advance: the state after N steps from ``run`` on both backends,
  ``step_limit after N steps`` from ``fixpoint`` and ``backends agree for N
  steps`` from ``check``. A runner that stops early is counted as failing.
* ``corpus`` is the acceptance gate's criterion-4 set; its expected outputs
  are committed in ``expected.json`` (see ``expected.py``). The same file
  pins the ``run`` output of the seeded workloads for seeds 0-31, so a change
  of trajectory shows even though the raw trajectory moves with it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from snsq import dsl, op_engine
from snsq.model import Cao, CarryKind, Entity, Image, Mode, Operand, Operator, Override

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

STEPS = {"chain": 5, "decay": 1000, "retune": 300, "corpus": 6}

# A single-file workload repeats its validate pass so that setup_s is a
# median over many short calls.
VALIDATE_REPEATS = {"chain": 10, "decay": 10, "retune": 10, "corpus": 1}

VERBS = ("validate", "run", "run_matrix", "fixpoint", "check", "trace")

CHAIN_SIZE = 128
CORPUS_SEED = 0xC40
CORPUS_SIZE = 1000
PINNED_SEEDS = range(32)
RETUNE_RADICES = (2, 3, 4, 5)


class WorkloadError(Exception):
    """A generated workload breaks an assumption its expected outputs rest on."""


@dataclass(frozen=True)
class Network:
    """One generated file and the expected ``exit:digest`` of each verb on it."""

    path: str
    expected: dict[str, str]


@dataclass(frozen=True)
class Workload:
    name: str
    steps: int
    networks: tuple[Network, ...]
    notes: tuple[str, ...] = ()


def argv(verb: str, path: str, steps: int, trace_path: str | None = None) -> list[str]:
    """Command line of one verb call, as a user would type it after ``snsq``."""
    n = str(steps)
    return {
        "validate": ["validate", path],
        "run": ["run", path, "--steps", n],
        "run_matrix": ["run", path, "--steps", n, "--backend", "matrix"],
        "fixpoint": ["fixpoint", path, "--max-steps", n],
        "check": ["check", path, "--steps", n],
        "trace": ["run", path, "--steps", n, "--trace", str(trace_path)],
    }[verb]


def expect(code: object, stdout: str) -> str:
    """The form every expected output takes: exit code and a stdout digest."""
    return f"{code}:{hashlib.sha256(stdout.encode()).hexdigest()[:16]}"


def state_text(cao: Cao, state: tuple[Fraction, ...]) -> str:
    """What ``snsq run`` prints for a final state."""
    return "".join(f"{name} = {value}\n" for name, value in zip(cao.entity_names(), state))


def sns_text(cao: Cao) -> str:
    """The network as `.sns` text, written here so the inputs do not depend on
    the serializer under test."""
    names = cao.entity_names()
    lines = [f'cao "{cao.name}" mode {cao.mode.value} {{']
    lines += [f"    entity {e.name} = {e.initial};" for e in cao.entities]
    for op in cao.operators:
        lhs = ", ".join(f"{names[o.entity]}:{o.radix}" for o in op.operands)
        rhs = ", ".join(f"{names[i.entity]}:{i.coefficient}" for i in op.images)
        lines.append(f"    op {op.kind.value} ({lhs}) -> ({rhs});")
    for step in sorted(cao.schedule):
        body = []
        for ov in cao.schedule[step]:
            if ov.field == "enabled":
                body.append(f"op {ov.operator} enabled = {str(ov.value).lower()};")
            else:
                body.append(f"op {ov.operator} {ov.field} {names[ov.entity]} = {ov.value};")
        lines.append(f"    at {step} {{ {' '.join(body)} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def chain(rng: random.Random) -> Cao:
    """Ring ``op (e_i:2) -> (e_{i+1}:3)`` over integers of at most 5 bits.

    Every entity starts at 2 or more, so each step moves some carry and adds
    at least one unit of mass: the trajectory never rests or repeats.
    """
    m = CHAIN_SIZE
    entities = tuple(Entity(i, f"e{i}", rng.randint(2, 31)) for i in range(m))
    operators = tuple(
        Operator(CarryKind.INTEGER_FLOOR, (Operand(i, 2),), (Image((i + 1) % m, 3),))
        for i in range(m)
    )
    return Cao("chain", entities, operators)


def decay(rng: random.Random) -> Cao:
    """Fuse a and b into c, then spread c back over a and b.

    Each step loses common*(2+3-4) + c*(1-(2+2)/5) of mass and c, a and b
    stay positive, so the trajectory never rests or repeats while the
    denominators grow by about 2 bits per step.
    """
    entities = tuple(
        Entity(i, name, Fraction(rng.randint(200, 999), rng.randint(1, 9)))
        for i, name in enumerate("abc")
    )
    operators = (
        Operator(CarryKind.RATIONAL_EXACT, (Operand(0, 2), Operand(1, 3)), (Image(2, 4),)),
        Operator(CarryKind.RATIONAL_EXACT, (Operand(2, 5),), (Image(0, 2), Image(1, 2))),
    )
    return Cao("decay", entities, operators)


def retune(rng: random.Random) -> Cao:
    """``decay`` with the radix of a overridden at every step 0..N.

    Every radix in RETUNE_RADICES keeps a's radix + 3 above the coefficient 4,
    so mass still falls on every step.
    """
    base = decay(rng)
    schedule = {
        k: (Override(0, "radix", 0, rng.choice(RETUNE_RADICES)),)
        for k in range(STEPS["retune"] + 1)
    }
    return Cao("retune", base.entities, base.operators, base.mode, schedule)


GENERATORS = {"chain": chain, "decay": decay, "retune": retune}


def gate_corpus() -> list[Cao]:
    """The acceptance gate's criterion-4 networks, from tests/corpus.py unchanged."""
    spec = importlib.util.spec_from_file_location("snsq_gate_corpus", ROOT / "tests" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    rng = random.Random(CORPUS_SEED)
    return [
        module.random_cao(rng, mode=Mode.Q_PLUS if case % 2 == 0 else Mode.Q_MINUS, name=f"c{case}")
        for case in range(CORPUS_SIZE)
    ]


def _key(state: tuple[Fraction, ...]) -> tuple[tuple[int, int], ...]:
    return tuple((v.numerator, v.denominator) for v in state)


def raw_final_state(cao: Cao, steps: int) -> tuple[Fraction, ...]:
    """State after ``steps`` raw ``op_engine.step`` calls.

    Refuses a trajectory that comes to rest within steps + 1 steps (the
    runner confirms a fixed point one step past its budget) or revisits a
    state, because then the runner stops early by design.
    """
    state = cao.initial_state()
    seen = {_key(state)}
    for k in range(steps + 1):
        nxt, _ = op_engine.step(state, cao, k)
        if nxt == state:
            raise WorkloadError(f"{cao.name} comes to rest at step {k}")
        if k < steps:
            if _key(nxt) in seen:
                raise WorkloadError(f"{cao.name} revisits a state at step {k + 1}")
            seen.add(_key(nxt))
            state = nxt
    return state


def write_network(cao: Cao, path: Path) -> None:
    """Write the network's text and check that it parses back to the same network."""
    text = sns_text(cao)
    parsed = dsl.parse(text)
    if parsed.cao != cao:
        raise WorkloadError(f"{path.name} does not parse back to the generated network")
    path.write_text(text, encoding="utf-8")


def _expected(run: str, fixpoint: str, check: str) -> dict[str, str]:
    """Per verb; both backends and the traced run print the same state."""
    return {
        "validate": expect(0, ""),
        "run": run,
        "run_matrix": run,
        "fixpoint": fixpoint,
        "check": check,
        "trace": run,
    }


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's files under ``workdir`` and their expected outputs."""
    committed = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    steps = STEPS[name]
    if name == "corpus":
        golden = committed["corpus"]
        if golden["steps"] != steps:
            raise WorkloadError("expected.json was written for another corpus step budget")
        caos = gate_corpus()
        order = list(range(len(caos)))
        random.Random(seed).shuffle(order)
        networks = []
        for i in order:
            path = workdir / f"{caos[i].name}.sns"
            write_network(caos[i], path)
            expected = _expected(golden["run"][i], golden["fixpoint"][i], golden["check"][i])
            networks.append(Network(str(path), expected))
        return Workload(name, steps, tuple(networks))

    cao = GENERATORS[name](random.Random(seed))
    path = workdir / f"{name}.sns"
    write_network(cao, path)
    run = expect(0, state_text(cao, raw_final_state(cao, steps)))
    notes = ()
    pinned = committed["pins"][name].get(str(seed))
    if pinned is not None and pinned != run:
        notes = (f"the raw {steps}-step state differs from the committed one for seed {seed}",)
        run = pinned
    expected = _expected(
        run,
        expect(0, f"step_limit after {steps} steps\n"),
        expect(0, f"backends agree for {steps} steps\n"),
    )
    return Workload(name, steps, (Network(str(path), expected),), notes)
