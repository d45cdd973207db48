"""perfbench's tracer (``perfbench/tracing.py``) finds each layer function by
name. A function renamed or deleted in ``src/`` would make every traced
benchmark run raise, so the names it reads are checked here. The tracer is
loaded from its file and nothing under ``perfbench/`` is changed."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    tracing = load_tracing()
    rows = tracing.LAYERS + tracing.COUNTED
    assert len(rows) > 10
    for name, defining, attr in rows:
        assert callable(getattr(importlib.import_module(defining), attr, None)), (name, defining, attr)


def test_the_tracer_installs_and_restores():
    tracing = load_tracing()
    for _, defining, _ in tracing.LAYERS + tracing.COUNTED:
        importlib.import_module(defining)
    snsq = {n: dict(vars(m)) for n, m in sys.modules.items() if n == "snsq" or n.startswith("snsq.")}
    with tracing.installed(tracing.Tracer()):
        pass
    assert snsq == {n: dict(vars(sys.modules[n])) for n in snsq}
