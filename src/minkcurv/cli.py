"""Batch front end: solve, verify, sweep, and mesh-info subcommands.

Runs are configured by a flat ``key = value`` text file with dotted section
keys (``domain.kind = interval``), chosen over positional flags so a run can
be archived and replayed byte-identically.  Outputs are a full-precision
CSV of the nodal solution, a flat key-value report, and optional SVG plots.

Exit codes: 0 success/converged, 1 configuration or input error,
2 solver non-convergence or failed verification checks (results are still
written).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from . import svg
from .energy import bounds, total_energy
from .mesh import (Field, Mesh, MeshError, build_disk_mesh, build_interval_mesh,
                   build_rectangle_mesh, read_mesh)
from .nonlinearity import NonlinearitySpec, from_catalog
from .solver import InnerSolveError, SolveResult, SolverOptions, solve_inclusion
from .verify import analytic_radial, format_report, verification_report


class ConfigError(ValueError):
    """Bad configuration; message names the file, line, or field."""


# -- config parsing -----------------------------------------------------------


def parse_flat_config(path) -> dict:
    """Parse ``key = value`` lines into {key: (value, lineno)}."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    out = {}
    for no, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{no}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{no}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{no}: duplicate key {key!r}")
        out[key] = (value, no)
    return out


_KNOWN_KEYS = {
    "domain.kind", "domain.a", "domain.b", "domain.n",
    "domain.lx", "domain.ly", "domain.nx", "domain.ny",
    "domain.radius", "domain.refinement", "domain.path",
    "nonlinearity.kind", "nonlinearity.a", "nonlinearity.b", "nonlinearity.s0",
    "nonlinearity.c", "nonlinearity.r", "nonlinearity.value",
    "nonlinearity.expression", "nonlinearity.growth_c", "nonlinearity.growth_q",
    "solver.inner_tol", "solver.outer_tol", "solver.max_inner", "solver.max_outer",
    "solver.working_margin", "solver.damping", "solver.selection_rule",
    "solver.certificate_trials",
    "output.dir", "emit.csv", "emit.svg", "emit.report",
    "verify.residual_tol", "verify.vi_tol", "verify.vi_trials",
    "verify.analytic_tol", "verify.bruteforce_step",
}


@dataclass
class RunConfig:
    """A fully validated run description."""

    path: Path
    domain_kind: str
    domain: dict
    nonlinearity_kind: str
    nonlinearity: dict
    solver: dict
    output_dir: Path
    emit_csv: bool = True
    emit_svg: bool = False
    emit_report: bool = True
    verify: dict = dataclass_field(default_factory=dict)

    def build_mesh(self) -> Mesh:
        d = self.domain
        if self.domain_kind == "interval":
            return build_interval_mesh(d["a"], d["b"], d["n"])
        if self.domain_kind == "rectangle":
            return build_rectangle_mesh(d["lx"], d["ly"], d["nx"], d["ny"])
        if self.domain_kind == "disk":
            return build_disk_mesh(d["radius"], d["refinement"])
        return read_mesh(d["path"])

    def build_spec(self, mesh: Mesh) -> NonlinearitySpec:
        kind, p = self.nonlinearity_kind, self.nonlinearity
        if kind == "constant":
            return from_catalog("constant", p["a"])
        if kind == "neg_sign":
            return from_catalog("neg_sign")
        if kind == "heaviside":
            return from_catalog("heaviside")
        if kind == "step":
            return from_catalog("step", p["a"], p["b"], p["s0"])
        if kind == "power":
            return from_catalog("power", p["c"], p["r"])
        # prescribed right-hand side e(x): forcing independent of s
        e_fn = p["e_fn"]
        e_nodes = np.array([e_fn(x) for x in mesh.nodes])
        growth_c = p.get("growth_c", float(np.abs(e_nodes).max()))
        growth_q = p.get("growth_q", 2.0)
        return NonlinearitySpec(
            evaluate=lambda x, s, fn=e_fn: fn(x), jumps=(),
            growth_c=growth_c, growth_q=growth_q, name="prescribed",
            exact_primitive=lambda nodes, s, fn=e_fn:
                np.array([fn(x) for x in nodes]) * s)

    def constant_rhs(self):
        """The constant right-hand side value, when the forcing is one."""
        if self.nonlinearity_kind == "constant":
            return self.nonlinearity["a"]
        if self.nonlinearity_kind == "prescribed" and "value" in self.nonlinearity:
            return self.nonlinearity["value"]
        return None

    def analytic_oracle(self, mesh: Mesh):
        """Closed-form radial solution when the domain is a ball and e is constant."""
        a = self.constant_rhs()
        if a is None:
            return None
        if self.domain_kind == "interval":
            lo, hi = self.domain["a"], self.domain["b"]
            return analytic_radial(a, (hi - lo) / 2.0, 1, center=[(lo + hi) / 2.0])
        if self.domain_kind == "disk":
            return analytic_radial(a, self.domain["radius"], 2)
        return None

    def solver_options(self, seed: int = 0) -> SolverOptions:
        return SolverOptions(seed=seed, **self.solver)


def _typed(cfg, key, kind, default=None, required=False, choices=None):
    if key not in cfg:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw, no = cfg.pop(key)
    try:
        if kind is bool:
            lowered = raw.lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"line {no}: key {key!r} expects {kind.__name__}, "
                          f"got {raw!r}") from None
    if choices is not None and value not in choices:
        raise ConfigError(f"line {no}: key {key!r} must be one of {sorted(choices)}, "
                          f"got {value!r}")
    return value


_EXPR_NAMES = {name: getattr(np, name) for name in
               ("sin", "cos", "tan", "exp", "sqrt", "abs", "log", "tanh", "sign")}
_EXPR_NAMES["pi"] = math.pi


def _expression_fn(expr: str, lineno: int):
    try:
        code = compile(expr, "<nonlinearity.expression>", "eval")
    except SyntaxError as err:
        raise ConfigError(f"line {lineno}: bad expression {expr!r}: {err.msg}") from None
    for name in code.co_names:
        if name not in _EXPR_NAMES and name not in ("x", "y", "r"):
            raise ConfigError(f"line {lineno}: expression uses unknown name {name!r}")

    def fn(xvec):
        local = dict(_EXPR_NAMES)
        local["x"] = float(xvec[0])
        local["y"] = float(xvec[1]) if len(xvec) > 1 else 0.0
        local["r"] = float(np.sqrt((np.asarray(xvec) ** 2).sum()))
        return float(eval(code, {"__builtins__": {}}, local))

    return fn


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    path = Path(path)
    cfg = parse_flat_config(path)
    for key in cfg:
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{cfg[key][1]}: unknown key {key!r}")

    kind = _typed(cfg, "domain.kind", str, required=True,
                  choices={"interval", "rectangle", "disk", "file"})
    domain = {}
    if kind == "interval":
        domain["a"] = _typed(cfg, "domain.a", float, required=True)
        domain["b"] = _typed(cfg, "domain.b", float, required=True)
        domain["n"] = _typed(cfg, "domain.n", int, required=True)
    elif kind == "rectangle":
        for k in ("lx", "ly"):
            domain[k] = _typed(cfg, f"domain.{k}", float, required=True)
        for k in ("nx", "ny"):
            domain[k] = _typed(cfg, f"domain.{k}", int, required=True)
    elif kind == "disk":
        domain["radius"] = _typed(cfg, "domain.radius", float, required=True)
        domain["refinement"] = _typed(cfg, "domain.refinement", int, required=True)
    else:
        mesh_path = Path(_typed(cfg, "domain.path", str, required=True))
        if not mesh_path.is_absolute():
            mesh_path = path.parent / mesh_path
        if not mesh_path.exists():
            raise ConfigError(f"mesh file does not exist: {mesh_path}")
        domain["path"] = mesh_path

    nl_kind = _typed(cfg, "nonlinearity.kind", str, required=True,
                     choices={"constant", "neg_sign", "step", "power",
                              "heaviside", "prescribed"})
    nl = {}
    if nl_kind == "constant":
        nl["a"] = _typed(cfg, "nonlinearity.a", float, required=True)
    elif nl_kind == "step":
        nl["a"] = _typed(cfg, "nonlinearity.a", float, required=True)
        nl["b"] = _typed(cfg, "nonlinearity.b", float, required=True)
        nl["s0"] = _typed(cfg, "nonlinearity.s0", float, default=0.0)
    elif nl_kind == "power":
        nl["c"] = _typed(cfg, "nonlinearity.c", float, required=True)
        nl["r"] = _typed(cfg, "nonlinearity.r", float, required=True)
    elif nl_kind == "prescribed":
        value = _typed(cfg, "nonlinearity.value", float)
        expr_item = cfg.get("nonlinearity.expression")
        expr = _typed(cfg, "nonlinearity.expression", str)
        if (value is None) == (expr is None):
            raise ConfigError(
                "prescribed forcing needs exactly one of nonlinearity.value "
                "or nonlinearity.expression")
        if value is not None:
            nl["value"] = value
            nl["e_fn"] = lambda xvec, v=value: v
        else:
            nl["e_fn"] = _expression_fn(expr, expr_item[1])
        gc = _typed(cfg, "nonlinearity.growth_c", float)
        gq = _typed(cfg, "nonlinearity.growth_q", float)
        if gc is not None:
            nl["growth_c"] = gc
        if gq is not None:
            nl["growth_q"] = gq

    solver = {}
    for k, typ in (("inner_tol", float), ("outer_tol", float),
                   ("max_inner", int), ("max_outer", int),
                   ("working_margin", float), ("damping", float),
                   ("certificate_trials", int)):
        v = _typed(cfg, f"solver.{k}", typ)
        if v is not None:
            solver[k] = v
    rule = _typed(cfg, "solver.selection_rule", str, choices={"lo", "mid", "hi"})
    if rule is not None:
        solver["selection_rule"] = rule

    out_dir = _typed(cfg, "output.dir", str, default="out")
    out_path = Path(out_dir)
    if not out_path.is_absolute():
        out_path = path.parent / out_path

    verify_opts = {}
    for k, typ in (("residual_tol", float), ("vi_tol", float), ("vi_trials", int),
                   ("analytic_tol", float), ("bruteforce_step", float)):
        v = _typed(cfg, f"verify.{k}", typ)
        if v is not None:
            verify_opts[k] = v

    return RunConfig(
        path=path, domain_kind=kind, domain=domain,
        nonlinearity_kind=nl_kind, nonlinearity=nl,
        solver=solver, output_dir=out_path,
        emit_csv=_typed(cfg, "emit.csv", bool, default=True),
        emit_svg=_typed(cfg, "emit.svg", bool, default=False),
        emit_report=_typed(cfg, "emit.report", bool, default=True),
        verify=verify_opts,
    )


# -- output writers -----------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def write_solution_csv(path, mesh: Mesh, result: SolveResult, residuals) -> None:
    coord_names = ["x", "y", "z"][: mesh.dim]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", *coord_names, "u", "zeta", "residual"])
        for i in range(len(mesh.nodes)):
            writer.writerow([
                i, *(_fmt(c) for c in mesh.nodes[i]),
                _fmt(result.u.values[i]), _fmt(result.zeta[i]), _fmt(residuals[i]),
            ])


def read_solution_csv(path, mesh: Mesh):
    """Load (u, zeta) written by `write_solution_csv`; validates the shape."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"solution file not found: {path}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ConfigError(f"{path}: empty solution file")
    header = rows[0]
    try:
        u_col, z_col = header.index("u"), header.index("zeta")
    except ValueError:
        raise ConfigError(f"{path}: header must contain 'u' and 'zeta' columns") from None
    body = rows[1:]
    if len(body) != len(mesh.nodes):
        raise ConfigError(
            f"{path}: {len(body)} rows for a mesh with {len(mesh.nodes)} nodes")
    u = np.empty(len(body))
    zeta = np.empty(len(body))
    for k, row in enumerate(body):
        try:
            u[k] = float(row[u_col])
            zeta[k] = float(row[z_col])
        except (ValueError, IndexError):
            raise ConfigError(f"{path}: malformed row {k + 2}") from None
    return u, zeta


def write_report(path, mesh, spec, result: SolveResult, energy_bounds) -> None:
    lines = [
        f"converged {'true' if result.converged else 'false'}",
        f"energy {_fmt(result.energy)}",
        f"outer_iterations {result.outer_iterations}",
        f"inner_iterations {result.inner_iterations}",
        f"stationarity {_fmt(result.stationarity)}",
        f"max_inclusion_residual {_fmt(result.residual)}",
        f"max_iterate_value {_fmt(result.max_iterate_value)}",
        f"max_iterate_gradient {_fmt(result.max_iterate_gradient)}",
        f"nonlinearity {spec.name}",
        f"nodes {len(mesh.nodes)}",
        f"elements {len(mesh.elements)}",
        f"volume {_fmt(mesh.volume())}",
        f"mesh_size {_fmt(mesh.mesh_size())}",
        f"c_omega {_fmt(energy_bounds.c_omega)}",
        f"C1 {_fmt(energy_bounds.C1)}",
        f"C2 {_fmt(energy_bounds.C2)}",
        f"energy_lower_bound {_fmt(energy_bounds.lower_bound)}",
        "energy_trace " + " ".join(_fmt(e) for e in result.energy_trace),
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def _write_svg(out_dir: Path, mesh: Mesh, spec, result: SolveResult) -> None:
    if mesh.dim == 1:
        levels = []
        for j in spec.jumps:
            mid = mesh.nodes.mean(axis=0)
            levels.append(float(j.level(mid)))
        doc = svg.field_svg_1d(mesh, result.u.values, guide_levels=levels,
                               title=f"u ({spec.name})")
        (out_dir / "solution.svg").write_text(doc)
    elif mesh.dim == 2:
        doc = svg.field_svg_2d(mesh, result.u.values, second=result.zeta,
                               titles=("u", "zeta"))
        (out_dir / "solution.svg").write_text(doc)


# -- subcommands ----------------------------------------------------------------


def _run_solve(config: RunConfig, out_dir: Path, seed: int):
    """Shared solve pipeline; returns (mesh, spec, result)."""
    mesh = config.build_mesh()
    spec = config.build_spec(mesh)
    opts = config.solver_options(seed=seed)
    result = solve_inclusion(mesh, spec, opts)
    out_dir.mkdir(parents=True, exist_ok=True)
    if config.emit_csv:
        from .verify import inclusion_residual
        residuals = inclusion_residual(mesh, result.u, spec,
                                       margin=opts.working_margin)
        write_solution_csv(out_dir / "solution.csv", mesh, result, residuals)
    if config.emit_report:
        write_report(out_dir / "report.txt", mesh, spec, result,
                     bounds(mesh, spec))
    if config.emit_svg:
        _write_svg(out_dir, mesh, spec, result)
    return mesh, spec, result


def cmd_solve(args) -> int:
    try:
        config = load_config(args.config)
        out_dir = Path(args.out) if args.out else config.output_dir
        mesh, spec, result = _run_solve(config, out_dir, args.seed)
    except (ConfigError, MeshError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InnerSolveError as err:
        print(f"error: inner solve failed: {err}", file=sys.stderr)
        return 2
    print(f"converged {'true' if result.converged else 'false'}")
    print(f"energy {result.energy:.12g}")
    print(f"outer_iterations {result.outer_iterations}")
    print(f"inner_iterations {result.inner_iterations}")
    print(f"stationarity {result.stationarity:.6g}")
    print(f"max_inclusion_residual {result.residual:.6g}")
    print(f"output {out_dir}")
    return 0 if result.converged else 2


def cmd_verify(args) -> int:
    try:
        config = load_config(args.config)
        mesh = config.build_mesh()
        spec = config.build_spec(mesh)
        u_vals, zeta = read_solution_csv(args.solution, mesh)
        if np.any(u_vals[mesh.boundary_nodes] != 0.0):
            raise ConfigError(f"{args.solution}: nonzero value at a boundary node")
        u = Field(mesh, u_vals, dirichlet_zero=True)
        analytic = config.analytic_oracle(mesh)
        kwargs = dict(config.verify)
        analytic_tol = kwargs.pop("analytic_tol", 2e-2)
        report = verification_report(
            mesh, u, zeta, spec, seed=args.seed,
            analytic=analytic, analytic_tol=analytic_tol, **kwargs)
    except (ConfigError, MeshError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    sys.stdout.write(format_report(report))
    return 0 if report.all_passed else 2


_SWEEP_PARAMS = {"n", "refinement", "selection_rule", "outer_tol"}


def _sweep_one(config: RunConfig, param: str, value: str, out_dir: Path, seed: int):
    """One sweep run: (sweep.csv row, failure message or None).

    An inner solve failure is not fatal to the sweep; it yields a
    converged=false row with empty result fields.
    """
    import copy

    cfg = copy.deepcopy(config)
    if param == "n":
        if cfg.domain_kind != "interval":
            raise ConfigError("sweep over n requires an interval domain")
        cfg.domain["n"] = int(value)
    elif param == "refinement":
        if cfg.domain_kind != "disk":
            raise ConfigError("sweep over refinement requires a disk domain")
        cfg.domain["refinement"] = int(value)
    elif param == "selection_rule":
        if value not in ("lo", "mid", "hi"):
            raise ConfigError(f"bad selection_rule {value!r}")
        cfg.solver["selection_rule"] = value
    else:
        cfg.solver["outer_tol"] = float(value)
    sub = out_dir / f"{param}_{value}"
    try:
        mesh, spec, result = _run_solve(cfg, sub, seed)
    except InnerSolveError as exc:
        return [value, "", "", "", "", "false"], f"{param}={value}: inner solve failed: {exc}"
    analytic = cfg.analytic_oracle(mesh)
    err = ""
    if analytic is not None:
        err = _fmt(float(np.abs(result.u.values - analytic(mesh.nodes)).max()))
    return [value, _fmt(result.energy), err,
            str(result.outer_iterations), str(result.inner_iterations),
            "true" if result.converged else "false"], None


def cmd_sweep(args) -> int:
    if args.param not in _SWEEP_PARAMS:
        print(f"error: unknown sweep parameter {args.param!r}; "
              f"choose from {sorted(_SWEEP_PARAMS)}", file=sys.stderr)
        return 1
    values = [v for v in (args.values or "").split(",") if v.strip()]
    try:
        config = load_config(args.config)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    out_dir = Path(args.out) if args.out else config.output_dir
    if not values:
        print("no sweep values given; nothing to do")
        return 0
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.threads > 1:
            with ThreadPoolExecutor(max_workers=args.threads) as pool:
                runs = list(pool.map(
                    lambda v: _sweep_one(config, args.param, v, out_dir, args.seed),
                    values))
        else:
            runs = [_sweep_one(config, args.param, v, out_dir, args.seed)
                    for v in values]
    except (ConfigError, MeshError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    rows = [row for row, _ in runs]
    for _, failure in runs:
        if failure is not None:
            print(f"error: {failure}", file=sys.stderr)
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([args.param, "energy", "linf_error_vs_analytic",
                         "outer_iterations", "inner_iterations", "converged"])
        writer.writerows(rows)
    print(f"sweep over {args.param}: {len(rows)} runs -> {out_dir / 'sweep.csv'}")
    return 0 if all(row[-1] == "true" for row in rows) else 2


def cmd_mesh_info(args) -> int:
    try:
        if args.mesh:
            mesh = read_mesh(args.mesh)
        elif args.config:
            mesh = load_config(args.config).build_mesh()
        else:
            print("error: mesh-info needs --mesh or --config", file=sys.stderr)
            return 1
    except (ConfigError, MeshError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    from .mesh import inradius

    print(f"dim {mesh.dim}")
    print(f"nodes {len(mesh.nodes)}")
    print(f"elements {len(mesh.elements)}")
    print(f"boundary_nodes {len(mesh.boundary_nodes)}")
    print(f"volume {mesh.volume():.12g}")
    print(f"inradius {inradius(mesh):.12g}")
    print(f"mesh_size {mesh.mesh_size():.12g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="minkcurv",
        description="Gradient-constrained curvature solver with discontinuous "
                    "forcing: solve, verify, and sweep batch runs.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for trial-field randomness (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[common],
                             help="run a configured problem")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="check a solution CSV against its config")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--solution", required=True)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="re-run a config over parameter values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated list of parameter values")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--threads", type=int, default=1,
                         help="parallel sweep workers (default 1, sequential)")

    p_info = sub.add_parser("mesh-info", parents=[common],
                            help="print mesh statistics")
    p_info.add_argument("--config", default=None)
    p_info.add_argument("--mesh", default=None)

    args = parser.parse_args(argv)
    handler = {"solve": cmd_solve, "verify": cmd_verify,
               "sweep": cmd_sweep, "mesh-info": cmd_mesh_info}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
