"""The package docstring and the declared entry points name only code
that exists."""

import importlib
import re
from pathlib import Path

import pytest

import ome_rdf

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_documented_modules_import():
    modules = re.findall(r":mod:`([\w.]+)`", ome_rdf.__doc__)
    assert modules
    for name in modules:
        importlib.import_module(name)


def test_entry_points_import():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), target
