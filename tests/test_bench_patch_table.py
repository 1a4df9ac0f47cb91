"""The benchmark traces a run by swapping package attributes that it names
in `bench/worker.py` (`patch_table`).  A change to the package that drops
one of them fails here, and not only in `python3 bench/run.py --smoke`.
A package module imports a name it never uses only because the table wraps
it there."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def worker():
    # the bench modules import each other by bare name (`import workloads`);
    # no bytecode is written, so the test leaves bench/ as it found it
    sys.path.insert(0, str(BENCH))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        yield importlib.import_module("worker")
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(BENCH))


def test_every_wrapped_attribute_exists(worker):
    # worker imports workloads, whose entries name the package functions
    # the benchmark calls itself
    table = worker.patch_table()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in table if not hasattr(owner, attr)]
    assert table
    assert missing == []


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "minkcurv"


def unused_imports(source):
    """Names a module binds by import and never reads."""
    module_tree = ast.parse(source)
    imports = [node for node in ast.walk(module_tree)
               if isinstance(node, ast.Import)
               or isinstance(node, ast.ImportFrom) and node.module != "__future__"]
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in imports for alias in node.names}
    read = {node.id for node in ast.walk(module_tree) if isinstance(node, ast.Name)}
    return bound - read


def test_the_scan_sees_unused_imports():
    src = ("from __future__ import annotations\nimport numpy as np\nimport os.path\n"
           "from .mesh import Field, Mesh\n\ndef f(m: Mesh):\n    return np.zeros(1)\n")
    assert unused_imports(src) == {"os", "Field"}


@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE.glob("*.py")
                                        if p.stem != "__init__"))
def test_every_unused_import_is_wrapped(worker, name):
    module = importlib.import_module(f"minkcurv.{name}")
    wrapped = {attr for owner, attr, _, _ in worker.patch_table() if owner is module}
    dead = unused_imports((PACKAGE / f"{name}.py").read_text())
    assert dead <= wrapped, f"{name} imports {sorted(dead - wrapped)} and never uses them"
