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


# names a module imports only so that perfbench's tracer can rebind them in
# that module (``BINDINGS`` in perfbench/spans.py); ROADMAP item 7's cost
# meter is what removes them
TRACER_ONLY = {
    "experiment": {"chebyshev_bank", "jacobi_bank", "legendre_bank", "monomial_bank",
                   "batched_lanczos", "ritz_bank", "ritz_bank_as_hopbank"},
    "calibration": {"spmm"},
    "hrp": {"spmm", "ritz_bank"},
}


def test_the_only_unused_imports_are_the_tracer_bindings():
    unused = {}
    for stem in MODULES:
        tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        # a name in __all__ is used by whoever imports it from the module
        exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for elt in node.value.elts}
        if imported - used - exported:
            unused[stem] = imported - used - exported
    assert unused == TRACER_ONLY


def test_physical_memory_is_checked_where_each_size_is_first_known():
    # the CSR arrays, the synthetic pre-draw and the model each check their
    # own size; experiment.memory_plan counts and checks every operator,
    # calibration, bank and stage-boundary byte, so a new hand sum fails here
    callers = set()
    for stem in MODULES:
        tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and any(
                    isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_fits"
                    for node in ast.walk(func)):
                callers.add(f"{stem}.{func.name}")
    assert callers == {"graph.build_graph", "synth._sbm_edges", "hrp.build_model",
                       "experiment.memory_plan"}
