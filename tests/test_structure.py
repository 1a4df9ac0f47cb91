"""Package layout: modules import each other in one direction only.

The order is mesh -> nonlinearity -> energy -> solver -> verify -> cli; a
module may import package modules that come earlier, never later, and no
module imports inside a function body (the usual way to hide a cycle).
`svg` imports no package module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "minkcurv"
ORDER = ["mesh", "nonlinearity", "energy", "solver", "verify", "cli"]
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(), filename=f"{name}.py")


def package_imports(module_tree):
    """Names of the package modules a module imports."""
    found = set()
    for node in ast.walk(module_tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "minkcurv" if node.level else ""
            base = ".".join(filter(None, [base, node.module]))
            dotted = ([f"minkcurv.{alias.name}" for alias in node.names]
                      if base == "minkcurv" else [base])
        else:
            continue
        found.update(d.split(".")[1] for d in dotted if d.startswith("minkcurv."))
    return found


def test_every_module_is_placed():
    assert set(MODULES) == set(ORDER) | {"__init__", "svg"}


@pytest.mark.parametrize("name", MODULES)
def test_no_import_inside_a_function(name):
    local = []
    for fn in ast.walk(tree(name)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local += [f"line {node.lineno}" for node in ast.walk(fn)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert local == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "__init__"])
def test_imports_follow_the_layer_order(name):
    imported = package_imports(tree(name))
    if name == "svg":
        assert imported == set()
        return
    allowed = set(ORDER[:ORDER.index(name)])
    if name == "cli":
        allowed.add("svg")
    assert imported <= allowed, f"{name} imports {sorted(imported - allowed)}"


def test_the_scan_sees_relative_and_absolute_imports():
    src = ("from .energy import psi\nfrom . import svg\n"
           "import minkcurv.verify\nfrom minkcurv.solver import x\n")
    assert package_imports(ast.parse(src)) == {"energy", "svg", "verify", "solver"}


def test_solver_draws_no_random_numbers():
    # the certificate is an exact bound, not a sample; only verify samples
    names = {node.id for node in ast.walk(tree("solver")) if isinstance(node, ast.Name)}
    random_attrs = [node.lineno for node in ast.walk(tree("solver"))
                    if isinstance(node, ast.Attribute) and node.attr == "random"]
    assert "random" not in names and random_attrs == []
    assert "random" not in {alias.name.split(".")[0] for node in ast.walk(tree("solver"))
                            if isinstance(node, (ast.Import, ast.ImportFrom))
                            for alias in node.names}


def attribute_reads(module_tree, attr):
    """Innermost enclosing function name ("<module>" at top level) of every
    read of `.attr`, and of every string constant equal to `attr`."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Attribute) and node.attr == attr and isinstance(node.ctx, ast.Load):
            found.append(where)
        if isinstance(node, ast.Constant) and node.value == attr:
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(module_tree, "<module>")
    return found


def test_only_element_gradients_reads_the_gradient_operator():
    # one gradient path: every element gradient is a call the bench can count
    reads = {(name, where) for name in MODULES
             for where in attribute_reads(tree(name), "gradient_operator")}
    assert reads == {("mesh", "element_gradients")}


def test_the_attribute_scan_sees_nested_reads_and_strings():
    src = ("class A:\n    def __init__(self):\n        self.op = 1\n"
           "def f(m):\n    def g():\n        return m.op\n    return g\n"
           "x = getattr(m, 'op')\n")
    assert attribute_reads(ast.parse(src), "op") == ["g", "<module>"]
