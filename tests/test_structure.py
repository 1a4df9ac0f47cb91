"""Package layout: modules import each other in one direction only.

The order is mesh -> nonlinearity -> energy -> solver -> verify -> cli; a
module may import package modules that come earlier, never later, and no
module imports inside a function body (the usual way to hide a cycle).
`svg` imports no package module.  Decisions kept in one place are pinned
here too: among them, only the solver's entry points take `SolverOptions`,
and the settings that became module constants are no config keys.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from minkcurv.cli import main

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
    # the certificates are exact bounds and a deterministic suite, not
    # samples: neither the solver nor verify reads `random` or calls
    # `random_feasible_field` (verify imports it only for the bench's tracing)
    for name in ("solver", "verify"):
        names = {node.id for node in ast.walk(tree(name)) if isinstance(node, ast.Name)}
        random_attrs = [node.lineno for node in ast.walk(tree(name))
                        if isinstance(node, ast.Attribute) and node.attr == "random"]
        assert "random" not in names and random_attrs == [], name
        assert "random_feasible_field" not in names, name
        assert "random" not in {alias.name.split(".")[0] for node in ast.walk(tree(name))
                                if isinstance(node, (ast.Import, ast.ImportFrom))
                                for alias in node.names}, name


def attribute_reads(module_tree, attr):
    """Innermost enclosing function name ("<module>" at top level) of every
    read of `.attr` or of the bare name `attr`, and of every string constant
    equal to `attr`."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        named = (isinstance(node, ast.Attribute) and node.attr == attr
                 or isinstance(node, ast.Name) and node.id == attr)
        if named and isinstance(node.ctx, ast.Load):
            found.append(where)
        if isinstance(node, ast.Constant) and node.value == attr:
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(module_tree, "<module>")
    return found


def gradient_operator_readers(trees):
    """(module, function) of every read of `gradient_operator` in `trees`,
    a dict of module name to syntax tree."""
    return {(name, where) for name, module_tree in trees.items()
            for where in attribute_reads(module_tree, "gradient_operator")}


# G's readers: the mesh's gradient and its transpose, and the solver's Newton
# workspace, which restricts G to its interior coordinates once per mesh
GRADIENT_OPERATOR_READERS = {("mesh", "element_gradients"), ("mesh", "_gradient_transpose"),
                             ("solver", "_newton_workspace")}


def test_only_element_gradients_reads_the_gradient_operator():
    # one gradient path: every element gradient, and every sum back onto the
    # nodes, is a call of `element_gradients` or `gradient_adjoint`, or in
    # Newton's interior coordinates a product with the workspace's
    # restriction of G; `gradient_adjoint` reads G through its per-mesh
    # transpose, which nothing else reads
    reads = gradient_operator_readers({name: tree(name) for name in MODULES})
    assert reads == GRADIENT_OPERATOR_READERS
    transposes = {(name, where) for name in MODULES
                  for where in attribute_reads(tree(name), "_gradient_transpose")}
    assert transposes == {("mesh", "gradient_adjoint")}


def test_the_reader_scan_sees_a_stray_reader():
    # a second restriction elsewhere in the solver is a reader too
    trees = {name: tree(name) for name in MODULES}
    trees["solver"] = ast.parse(
        "def _newton_workspace(mesh):\n    G = mesh.gradient_operator\n"
        "def _flux_start(mesh, e):\n    return mesh.gradient_operator[:, order] @ e\n")
    assert gradient_operator_readers(trees) == GRADIENT_OPERATOR_READERS | {("solver", "_flux_start")}


def test_the_attribute_scan_sees_bare_names():
    src = "def f(m):\n    def g():\n        return op(m)\n    return g\nop = 1\nx = op\n"
    assert attribute_reads(ast.parse(src), "op") == ["g", "<module>"]


def test_the_attribute_scan_sees_nested_reads_and_strings():
    src = ("class A:\n    def __init__(self):\n        self.op = 1\n"
           "def f(m):\n    def g():\n        return m.op\n    return g\n"
           "x = getattr(m, 'op')\n")
    assert attribute_reads(ast.parse(src), "op") == ["g", "<module>"]



def cube_divisions(module_tree):
    """Innermost enclosing function name of every division by a cube, `x / y ** 3`,
    or by a square `x / (y * y)` of one expression: the r^-3 factor that sets the
    area Hessian apart from the area gradient."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            right = node.right
            cube = (isinstance(right, ast.BinOp) and isinstance(right.op, ast.Pow)
                    and isinstance(right.right, ast.Constant) and right.right.value == 3)
            square = (isinstance(right, ast.BinOp) and isinstance(right.op, ast.Mult)
                      and ast.dump(right.left) == ast.dump(right.right))
            if cube or square:
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(module_tree, "<module>")
    return found


def test_one_home_for_the_area_hessian():
    # the basis gradients are read where they are made and by the area
    # kernel, and the kernel alone forms the Hessian's coefficients: its
    # product and the element blocks that the solver assembles
    readers = {name for name in MODULES if attribute_reads(tree(name), "basis_gradients")}
    assert readers == {"mesh", "energy"}
    sites = {(name, where) for name in MODULES for where in cube_divisions(tree(name))}
    assert sites == {("energy", "area_hessian_product"), ("energy", "area_hessian_blocks")}


def test_the_cube_scan_sees_the_old_assembly():
    src = ("def _area_hessian(mesh, ws, root, g):\n"
           "    h = (m / root) * ws.stiffness + ((m / root ** 3) * BgT)[:, None, :]\n"
           "def product(p):\n    tilt = (weight / (root * root))[:, None] * g\n"
           "def other(r, q):\n    return (r / q) ** 3 + r ** 3 / q + r / (q * r) + (r / q) ** 2\n")
    assert cube_divisions(ast.parse(src)) == ["_area_hessian", "product"]


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


def identifiers(module_tree):
    """Every name a module binds, reads or passes as a string: names,
    attributes, parameters, function and class names, string constants."""
    found = set()
    for node in ast.walk(module_tree):
        found.update(value for value in (
            getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "arg", None),
            getattr(node, "name", None), getattr(node, "value", None)) if isinstance(value, str))
    return found


def weighted_distance_sites(module_tree):
    """Innermost functions that call `_bracket_distance` and read
    `node_weight`: the places that can sum a w-weighted bracket distance."""
    calls = {where for _, where in call_sites(module_tree, {"_bracket_distance"})}
    return calls & set(attribute_reads(module_tree, "node_weight"))


def test_one_gate():
    # rho's gate accepts a pinned stage as it accepts a run: no per-node
    # kink tolerance is left, and rho's weighted sum has one home, which
    # `_certificate` and `_inner_solve` both call
    assert not any("_KINK_TOL" in identifiers(tree(name)) for name in MODULES)
    sites = {(name, where) for name in MODULES for where in weighted_distance_sites(tree(name))}
    assert sites == {("solver", "_weighted_distance")}


def test_the_gate_scans_see_the_old_sites():
    src = ("_KINK_TOL = 1e-8\n"
           "def _certificate(mesh, spec, values):\n"
           "    interior = mesh.interior_nodes\n"
           "    return float(np.dot(mesh.node_weight[interior],\n"
           "                        _bracket_distance(mesh, m, lo0, hi0)[interior]))\n"
           "def _inner_solve(mesh, e, kinks):\n"
           "    def accept(trial):\n"
           "        w = mesh.node_weight\n"
           "        return (w * solver._bracket_distance(mesh, m, lo, hi)).sum() <= tol\n"
           "    return _bracket_distance(mesh, m, *kinks.subdifferential(e)).max() <= _KINK_TOL\n"
           "def inclusion_residual(mesh, u, spec):\n"
           "    return _bracket_distance(mesh, m, lo, hi)\n")
    assert weighted_distance_sites(ast.parse(src)) == {"_certificate", "accept"}
    for old in (src, "def test(monkeypatch):\n    monkeypatch.setattr(solver, '_KINK_TOL', 0)\n",
                "def f(x):\n    return solver._KINK_TOL * x\n",
                "def f(x, _KINK_TOL=1e-8):\n    return x\n"):
        assert "_KINK_TOL" in identifiers(ast.parse(old))


def ladder_entry(module_tree):
    """For a module's `_inner_solve`: per `except` handler, whether its `try`
    body passes `pinned=` (the pinned trial), and the line of every read of
    the name `first` (an entry stage computed from the start)."""
    fn = next(node for node in ast.walk(module_tree)
              if isinstance(node, ast.FunctionDef) and node.name == "_inner_solve")
    handlers = [any(isinstance(n, ast.keyword) and n.arg == "pinned"
                    for stmt in node.body for n in ast.walk(stmt))
                for node in ast.walk(fn) if isinstance(node, ast.Try) for _ in node.handlers]
    first_reads = [node.lineno for node in ast.walk(fn) if isinstance(node, ast.Name)
                   and node.id == "first" and isinstance(node.ctx, ast.Load)]
    return handlers, first_reads


def test_one_way_into_the_kinked_ladder():
    # every kinked inner solve starts at gamma = 0.01 from its start: no
    # entry stage is read off the start, and a failed unpinned stage is not
    # caught to start the ladder over; the one handler is the pinned trial's
    assert ladder_entry(tree("solver")) == ([True], [])


# `_inner_solve` as it was with the entry rule and its restart from gamma = 1
OLD_INNER_SOLVE = """
def _inner_solve(mesh, e, initial, kinks, stats_sink, tol):
    e = _right_hand_side(mesh, e)
    l1_tol = 0.1 * tol if kinks.level.size == 0 else math.inf
    values = initial if initial[mesh.interior_nodes].any() else _flux_start(mesh, e)
    first = 0  # skip the stages whose band holds every node the start has above a level
    if kinks.level.size:
        t = values - kinks.level
        above = (t > 0.0) & (kinks.jump > 0.0)
        t, jump = t[above], kinks.jump[above]
        while t.size and first < _MAX_STAGES - 1 and (t < 0.01 ** first * jump).all():
            first += 1
    stage = first
    while stage < _MAX_STAGES:
        gamma = 0.01 ** stage
        try:
            values, stats = _solve_prescribed(mesh, e, initial=values, kinks=kinks, gamma=gamma,
                                              l1_tol=l1_tol, stats_sink=stats_sink)
        except InnerSolveError:
            if stage == 0 or stage > first:
                raise
            stage = first = 0
            continue
        stage += 1
        band = stats.band
        pinned = band.any(axis=0)
        if not pinned.any():
            return values
        trial = np.where(pinned, kinks.level[band.argmax(axis=0), np.arange(len(values))], values)
        try:
            trial, stats = _solve_prescribed(mesh, e, initial=trial, kinks=kinks, gamma=gamma,
                                             pinned=pinned, stats_sink=stats_sink)
        except InnerSolveError:
            continue
        m = _operator_value(mesh, Field(mesh, trial, dirichlet_zero=True)) - e
        if (_weighted_distance(mesh, m, *kinks.subdifferential(trial))
                <= tol * (1.0 + abs(stats.objectives[-1]))):
            return trial
        values = trial
    return values
"""


def test_the_ladder_scan_sees_the_old_entry_and_restart():
    handlers, first_reads = ladder_entry(ast.parse(OLD_INNER_SOLVE))
    assert handlers == [False, True]  # the restart, then the pinned trial
    assert len(first_reads) == 4  # twice in the entry loop, `stage = first`, the restart


ESTIMATOR_NAMES = {"_DELTA", "_SAMPLES", "approximate"}


def undeclared_jump_tests(module_tree):
    """Lines of every `is` / `is not` comparison of something that reads
    `jumps` with None: a branch for a rule that declares no jumps."""
    found = []
    for node in ast.walk(module_tree):
        if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot))
                                                 for op in node.ops):
            operands = [node.left, *node.comparators]
            if (any(isinstance(o, ast.Constant) and o.value is None for o in operands)
                    and any("jumps" in identifiers(o) for o in operands)):
                found.append(node.lineno)
    return found


def test_every_rule_declares_its_jumps():
    # the envelopes come from declared jumps only: no branch for a rule
    # without them, and neither the sampling estimator's settings nor its flag
    for name in MODULES:
        assert undeclared_jump_tests(tree(name)) == [], name
        assert identifiers(tree(name)) & ESTIMATOR_NAMES == set(), name


# `envelopes` and `bracket` as they were with the estimator for black-box rules
OLD_ENVELOPES = """
_DELTA, _SAMPLES = 1e-4, 64
def envelopes(spec, nodes, values, window):
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    k = len(values)
    if spec.jumps is None:
        t = np.linspace(values - _DELTA, values + _DELTA, _SAMPLES, axis=1)
        f = _per_node(spec.evaluate(np.repeat(nodes, _SAMPLES, axis=0), t.ravel()),
                      t.size).reshape(k, _SAMPLES)
        return f.min(axis=1), f.max(axis=1)
    f = _per_node(spec.evaluate(nodes, values), k)
    level, left, right = jump_limits(spec, nodes)
    on = values == level
    use = np.vstack([~on.any(axis=0), on | (np.abs(values - level) <= window)])
    return (np.where(use, np.vstack([f, np.minimum(left, right)]), np.inf).min(axis=0),
            np.where(use, np.vstack([f, np.maximum(left, right)]), -np.inf).max(axis=0))
def bracket(spec, x, s):
    lo, hi = envelopes(spec, *_one_row(x, s), 0.0)
    return Bracket(float(lo[0]), float(hi[0]), approximate=spec.jumps is None)
"""


def test_the_jump_scan_sees_the_old_estimator():
    old = ast.parse(OLD_ENVELOPES)
    assert undeclared_jump_tests(old) == [7, 20]
    assert identifiers(old) & ESTIMATOR_NAMES == ESTIMATOR_NAMES
    for src in ("def f(jumps):\n    return None is not jumps\n",
                "def f(spec):\n    return (spec.jumps or ()) if spec.jumps is not None else ()\n"):
        assert len(undeclared_jump_tests(ast.parse(src))) == 1
    # a None test of something else, and a tuple test of the jumps, are no such branch
    assert undeclared_jump_tests(ast.parse(
        "def f(spec):\n    return spec.exact_primitive is None or spec.jumps == ()\n")) == []


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


REMOVED_OPTIONS = {"inner_tol", "max_inner", "max_outer"}


def option_readers(module_tree):
    """Innermost enclosing function name of every parameter named `opts` and
    of every read of `.inner_tol`, `.max_inner` or `.max_outer`."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if any(param.arg == "opts" for param in params):
                found.append(where)
        if (isinstance(node, ast.Attribute) and node.attr in REMOVED_OPTIONS
                and isinstance(node.ctx, ast.Load)):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(module_tree, "<module>")
    return found


def test_only_the_entry_points_take_solver_options():
    # the Newton layer reads no options: the inner tolerance and the caps
    # are solver constants, and the inner l1 stop arrives as a number
    readers = {(name, where) for name in MODULES for where in option_readers(tree(name))}
    assert readers == {("solver", "_start"), ("solver", "solve_prescribed"),
                       ("solver", "solve_inclusion")}


def test_the_option_scan_sees_the_old_sites():
    src = ("def _solve_prescribed(mesh, e, opts, initial=None):\n"
           "    for _ in range(opts.max_inner + 1):\n        pass\n"
           "def _inner_solve(mesh, e, opts, initial, kinks):\n"
           "    return 0.1 * opts.outer_tol\n"
           "def _escape_probe(mesh, spec, opts, u):\n    return u\n"
           "def solve_inclusion(mesh, spec, *, opts=None):\n"
           "    def rest(values):\n        return values < opts.max_outer\n"
           "    return rest\n"
           "def floor(config):\n    return 0.1 * config.solver.inner_tol\n")
    assert option_readers(ast.parse(src)) == [
        "_solve_prescribed", "_solve_prescribed", "_inner_solve", "_escape_probe",
        "solve_inclusion", "rest", "floor"]


def boundary_gathers(module_tree):
    """Innermost enclosing function name of every subscript of `nodes` (a
    name or an attribute) by an index that reads `boundary_nodes`: the
    marked nodes' coordinates, where a straight-line distance sweep starts."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Subscript)
                and getattr(node.value, "attr", getattr(node.value, "id", None)) == "nodes"
                and attribute_reads(node.slice, "boundary_nodes")):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(module_tree, "<module>")
    return found


# the readers of the one distance to the boundary: the uniform bound, the
# distance cones, the slack bound and the workspace's free-part check
PATH_LENGTH_READERS = {("mesh", "inradius"), ("mesh", "boundary_distance_cone"),
                       ("verify", "_slack_bound"), ("solver", "_newton_workspace")}


def test_one_distance_to_the_boundary():
    # inradius (so the energy bounds and the brute-force grid) and the
    # distance cones read the edge-path field; no function gathers the
    # marked nodes' coordinates for a second, straight-line distance
    assert {(name, where) for name in MODULES for where in boundary_gathers(tree(name))} == set()
    readers = {(name, where) for name in MODULES
               for where in attribute_reads(tree(name), "_boundary_path_length")}
    assert readers == PATH_LENGTH_READERS


# the straight-line sweep that `inradius` and the distance cones used to read
OLD_BOUNDARY_DISTANCE = """
@per_mesh
def _boundary_distance(mesh: Mesh) -> np.ndarray:
    x = mesh.nodes[mesh.interior_nodes]
    columns = [np.ascontiguousarray(x[:, k]) for k in range(mesh.dim)]
    least = np.full(len(x), np.inf)
    total, term = np.empty(len(x)), np.empty(len(x))
    for b in mesh.nodes[mesh.boundary_nodes].tolist():
        np.subtract(columns[0], b[0], out=total)
        np.multiply(total, total, out=total)
        for column, b_k in zip(columns[1:], b[1:]):
            np.subtract(column, b_k, out=term)
            np.multiply(term, term, out=term)
            np.add(total, term, out=total)
        np.minimum(least, total, out=least)
    dist = np.sqrt(least)
    dist.setflags(write=False)
    return dist
"""


def test_the_distance_scan_sees_the_old_sweep():
    assert boundary_gathers(ast.parse(OLD_BOUNDARY_DISTANCE)) == ["_boundary_distance"]
    src = ("def brute(mesh, nodes, i):\n    b = nodes[mesh.boundary_nodes[i]]\n"
           "def field(mesh, vals):\n    vals[mesh.boundary_nodes] = 0.0\n"
           "    return mesh.nodes[mesh.interior_nodes], mesh.boundary_nodes[0]\n")
    assert boundary_gathers(ast.parse(src)) == ["brute"]


RUN_CONFIG = ("domain.kind = interval\ndomain.a = -1\ndomain.b = 1\ndomain.n = 8\n"
              "nonlinearity.kind = neg_sign\n")


@pytest.mark.parametrize("key", ["solver.inner_tol", "solver.max_inner", "solver.max_outer",
                                 "verify.residual_tol", "verify.vi_tol", "verify.analytic_tol"])
def test_removed_settings_are_unknown_keys(tmp_path, capsys, key):
    # the solver's inner tolerance and caps and the checker's pass
    # thresholds are module constants, which no config sets
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CONFIG + f"{key} = 1\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["solve", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:6: key {key!r} is unknown or not used")
    assert not (tmp_path / "out").exists()
