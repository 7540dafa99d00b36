"""Source-level guards over the package modules."""

import ast
import builtins
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "diffbank"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


@pytest.mark.parametrize("stem", MODULES)
def test_every_raised_exception_class_is_in_scope(stem):
    # a raise of a name the module never imports fails as a NameError, not
    # as the documented error and exit code
    module = importlib.import_module(f"diffbank.{stem}" if stem != "__init__" else "diffbank")
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    missing = [f"{stem}.py:{node.lineno} raises {node.exc.func.id}"
               for node in ast.walk(tree)
               if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
               and isinstance(node.exc.func, ast.Name)
               and not hasattr(module, node.exc.func.id)
               and not hasattr(builtins, node.exc.func.id)]
    assert not missing


@pytest.mark.parametrize("stem", MODULES)
def test_no_module_reads_the_environment(stem):
    # a setting is a config key, validated with the rest, never a variable
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    reads = [f"{stem}.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
             or isinstance(node, ast.ImportFrom) and node.module == "os"
             and {a.name for a in node.names} & {"environ", "getenv"}]
    assert not reads
