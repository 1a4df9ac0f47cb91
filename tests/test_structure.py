"""Package layout: modules import each other in one direction only.

The order is mesh -> nonlinearity -> energy -> solver -> verify -> cli; a
module may import package modules that come earlier, never later, and no
module imports inside a function body (the usual way to hide a cycle).
`svg` imports no package module.
"""

import ast
import os
import re
import subprocess
import sys
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


def external_imports(module_tree):
    """Dotted names of the absolute imports of a module: each `import a.b`,
    and each `from a import b` as both `a` and `a.b`."""
    found = set()
    for node in ast.walk(module_tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def imports_scipy_spatial(module_tree):
    return sorted(d for d in external_imports(module_tree)
                  if d == "scipy.spatial" or d.startswith("scipy.spatial."))


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_scipy_spatial(name):
    # nearest-boundary distances are one sweep in mesh; a k-d tree would
    # load scipy.spatial into every process that imports the package
    assert imports_scipy_spatial(tree(name)) == []


def test_the_scan_sees_scipy_spatial():
    for src in ("from scipy.spatial import cKDTree\n", "import scipy.spatial\n",
                "from scipy import spatial\n", "import scipy.spatial.distance as d\n",
                "def f():\n    from scipy.spatial import KDTree\n"):
        assert imports_scipy_spatial(ast.parse(src)) != [], src
    sparse_only = "import scipy.sparse as sp\nfrom scipy import sparse\n"
    assert imports_scipy_spatial(ast.parse(sparse_only)) == []


def test_importing_the_package_leaves_scipy_spatial_out():
    code = ("import sys, minkcurv, minkcurv.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'spatial']))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


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



# what keeps values between calls: weak references, memoizers, empty containers
KEEPERS = {"weakref", "WeakKeyDictionary", "WeakValueDictionary", "finalize",
           "cache", "lru_cache", "cached_property"}
EMPTY = re.compile(r"\{\}|\[(None(, )?)*\]|(dict|list|set)\(\)")


def kept_state(module_tree):
    """First source line of each top-level statement that can keep values
    between calls: one naming a weak reference or a memoizer, or an
    assignment of an empty container or a list of Nones."""
    found = []
    for top in module_tree.body:
        names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(top)
                 if isinstance(n, (ast.Name, ast.Attribute))}
        names |= {a.name for n in ast.walk(top) if isinstance(n, ast.ImportFrom)
                  for a in n.names} | {getattr(top, "module", None)}
        empty = isinstance(top, ast.Assign) and EMPTY.fullmatch(ast.unparse(top.value))
        if names & KEEPERS or empty:
            found.append(ast.unparse(top).splitlines()[0])
    return found


def mesh_stores(module_tree):
    """Attribute assignments on a variable named `mesh`."""
    return [ast.unparse(n) for n in ast.walk(module_tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
            and isinstance(n.value, ast.Name) and n.value.id == "mesh"]


def test_per_mesh_data_has_one_cache():
    # derived data lives in the mesh, behind mesh.per_mesh; the one weak
    # container is the process-wide K0 slot, which holds at most one factor
    kept = {(name, line) for name in MODULES for line in kept_state(tree(name))}
    assert kept == {("solver", "_K0 = weakref.WeakKeyDictionary()")}
    assert [line for name in MODULES for line in mesh_stores(tree(name))] == []
    reads = {(name, where) for name in MODULES
             for where in attribute_reads(tree(name), "_derived")}
    # `cached` is per_mesh's wrapper
    assert reads == {("mesh", "cached"), ("mesh", "__getstate__")}


def test_the_state_scans_see_the_old_caches():
    src = ("import weakref\nfrom functools import lru_cache\nfrom weakref import ref\n"
           "_distance_cache = weakref.WeakKeyDictionary()\n_SLOT = [None, None]\n"
           "_seen = {}\n_built = set()\nCONST = {'a': 1}\nLIMIT = 64\n"
           "@lru_cache\ndef g(m):\n    return m\n"
           "def f(mesh, stats):\n    mesh._x = 1\n    stats.y = 2\n"
           "def h(mesh):\n    return weakref.ref(mesh)\n")
    assert kept_state(ast.parse(src)) == [
        "from functools import lru_cache", "from weakref import ref",
        "_distance_cache = weakref.WeakKeyDictionary()", "_SLOT = [None, None]",
        "_seen = {}", "_built = set()", "@lru_cache", "def h(mesh):"]
    assert mesh_stores(ast.parse(src)) == ["mesh._x"]


def _number(node):
    return (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def margin_literals(module_tree):
    """Every place that spells a feasibility margin as a number: the default
    of a parameter, a keyword argument or an assigned value whose name holds
    "margin" (any case), and the small literal of an inline bound `1 - <literal>`."""
    found = []
    for node in ast.walk(module_tree):
        if isinstance(node, ast.arguments):
            params = node.posonlyargs + node.args
            pairs = list(zip(params[len(params) - len(node.defaults):], node.defaults))
            pairs += zip(node.kwonlyargs, node.kw_defaults)
            found += [f"{arg.arg}={ast.unparse(default)}" for arg, default in pairs
                      if "margin" in arg.arg.lower() and default is not None and _number(default)]
        elif isinstance(node, ast.keyword) and "margin" in (node.arg or "").lower():
            found += [ast.unparse(node)] if _number(node.value) else []
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and _number(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [getattr(t, "id", getattr(t, "attr", "")) for t in targets]
            found += [ast.unparse(node)] if any("margin" in n.lower() for n in names) else []
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
              and _number(node.left) and node.left.value == 1
              and _number(node.right) and 0 < node.right.value < 1e-3):
            found.append(ast.unparse(node))
    return found


def test_one_feasibility_margin():
    # solver and checker differentiate psi at the same distance from the
    # constraint surface: one constant in energy, every margin default is it
    found = {(name, text) for name in MODULES for text in margin_literals(tree(name))}
    assert found == {("energy", "FEASIBILITY_MARGIN = 1e-12")}


def test_the_margin_scan_sees_the_old_margins():
    src = ("def psi_gradient(mesh, field, margin: float = 1e-9):\n"
           "    return (1.0 - margin) ** 2\n"
           "def f(mesh, *, margin=1e-12):\n    return g(mesh, margin=1e-12)\n"
           "class Opts:\n    working_margin: float = 1e-12\n"
           "def h(g2):\n    self.margin = 1e-9\n    return g2 > (1.0 - 1e-09) ** 2\n"
           "def k(x, margin=FEASIBILITY_MARGIN, tol=1e-9):\n"
           "    return g(x, margin=margin) + (1 - x) + (1.0 - 0.5) + (2.0 - 1e-9)\n")
    assert sorted(margin_literals(ast.parse(src))) == sorted([
        "margin=1e-09", "margin=1e-12", "margin=1e-12", "working_margin: float = 1e-12",
        "self.margin = 1e-09", "1.0 - 1e-09"])


# scipy's factorizations and direct solves, and the LAPACK band solves
FACTORIZATIONS = {"splu", "spilu", "factorized", "spsolve", "solveh_banded", "solve_banded",
                  "cholesky_banded", "cho_factor", "lu_factor", "get_lapack_funcs", "ptsv",
                  "pbsv", "dptsv", "dpbsv", "pttrf", "pttrs", "pbtrf", "pbtrs", "dpttrf",
                  "dpttrs", "dpbtrf", "dpbtrs"}


def call_sites(module_tree, names):
    """(callee, innermost enclosing function name) of every call of a name in
    `names`, plain or as an attribute."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            if callee in names:
                found.append((callee, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(module_tree, "<module>")
    return found


def test_one_factor_function():
    # every matrix a Newton step or the K0 slot solves with is factored by
    # solver._factor, the one place that knows the band and SuperLU settings
    sites = {(name, *site) for name in MODULES for site in call_sites(tree(name), FACTORIZATIONS)}
    assert sites == {("solver", "get_lapack_funcs", "_factor"), ("solver", "splu", "_factor")}


def test_the_call_scan_sees_the_old_factor_sites():
    src = ("def _k0(ws):\n    return lambda rhs: solveh_banded(band, rhs)\n"
           "def step(m):\n    d = linalg.solveh_banded(b, r)\n    return _factor(m).solve(r)\n"
           "def _factor(m):\n    return splu(m)\n"
           "def _band(b, r):\n    pbsv, = get_lapack_funcs(('pbsv',), (b,))\n"
           "    return pbsv(b, r)\n"
           "def _tridiagonal(d, e, r):\n    return lapack.dptsv(d, e, r)[2]\n")
    assert sorted(call_sites(ast.parse(src), FACTORIZATIONS)) == [
        ("dptsv", "_tridiagonal"), ("get_lapack_funcs", "_band"), ("pbsv", "_band"),
        ("solveh_banded", "_k0"), ("solveh_banded", "step"), ("splu", "_factor")]


def window_sites(module_tree):
    """Innermost functions that call both `envelopes` and `mesh_size`: the
    places where the mesh size can become an envelope window."""
    calls = set(call_sites(module_tree, {"envelopes", "mesh_size"}))
    return {where for callee, where in calls
            if callee == "envelopes" and ("mesh_size", where) in calls}


def test_one_certificate():
    # the solver's certificate, `verify` and the pinned stages' acceptance
    # read the operator value m and the h-window brackets from one place each
    gradients = {(name, *site) for name in MODULES
                 for site in call_sites(tree(name), {"psi_gradient"})}
    assert gradients == {("solver", "psi_gradient", "_operator_value")}
    windows = {(name, where) for name in MODULES for where in window_sites(tree(name))}
    assert windows == {("solver", "windowed_envelopes")}


def test_the_certificate_scans_see_the_old_sites():
    src = ("def inclusion_residual(mesh, u, spec, margin):\n"
           "    lo, hi = windowed_envelopes(mesh, spec, u.values)\n"
           "    grad = energy.psi_gradient(mesh, u, margin=margin)\n"
           "def windowed_envelopes(mesh, spec, values):\n"
           "    return envelopes(spec, mesh.nodes, values, mesh.mesh_size())\n"
           "def _certificate(mesh, spec, values):\n"
           "    m = -psi_gradient(mesh, values) / mesh.node_weight\n"
           "    h = mesh.mesh_size()\n"
           "    lo0, hi0 = nonlinearity.envelopes(spec, mesh.nodes, values, 0.0)\n"
           "    return envelopes(spec, mesh.nodes, values, h)\n"
           "def write_report(mesh):\n    return mesh.mesh_size()\n")
    assert sorted(call_sites(ast.parse(src), {"psi_gradient"})) == [
        ("psi_gradient", "_certificate"), ("psi_gradient", "inclusion_residual")]
    assert window_sites(ast.parse(src)) == {"windowed_envelopes", "_certificate"}


def caught_names(module_tree):
    """Names of the exception classes the `except` clauses of a module name."""
    found = set()
    for node in ast.walk(module_tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            found.update(getattr(t, "id", getattr(t, "attr", None)) for t in types)
    return found


def imported_names(module_tree):
    """Every name a module's import statements bind or load from a module."""
    return {alias.name for node in ast.walk(module_tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


def test_only_the_solver_handles_inner_solve_errors():
    # solve_inclusion ends every inner breakdown in a verdict, so no caller
    # of it has an InnerSolveError left to handle
    assert {name for name in MODULES if "InnerSolveError" in caught_names(tree(name))} == {
        "solver"}
    assert "InnerSolveError" not in imported_names(tree("cli"))


def test_the_except_scan_sees_the_old_handlers():
    src = ("from .solver import InnerSolveError, SolveResult\n"
           "def _sweep_one(config):\n    try:\n        return run(config)\n"
           "    except InnerSolveError as exc:\n        return None\n"
           "def main():\n    try:\n        return handler()\n"
           "    except solver.InnerSolveError:\n        return 2\n"
           "    except (ValueError, OSError) as err:\n        return 1\n"
           "    except:\n        return 3\n")
    assert caught_names(ast.parse(src)) == {"InnerSolveError", "ValueError", "OSError"}
    assert imported_names(ast.parse(src)) == {"InnerSolveError", "SolveResult"}
    assert caught_names(ast.parse("try:\n    f()\nexcept ValueError:\n    pass\n")) == {
        "ValueError"}
