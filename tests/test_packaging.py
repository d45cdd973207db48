"""The package metadata names code that exists.

The tests import ``snsq`` from the source tree, so they would not notice a
console script pointing at a missing function, or package discovery looking
in the wrong directory; an installed ``snsq`` would then fail to start.
"""

import importlib
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))


def test_console_script_resolves_to_a_callable():
    target = PROJECT["project"]["scripts"]["snsq"]
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr)), target


def test_package_discovery_finds_snsq():
    where = PROJECT["tool"]["setuptools"]["packages"]["find"]["where"]
    assert [w for w in where if (ROOT / w / "snsq" / "__init__.py").is_file()], where
