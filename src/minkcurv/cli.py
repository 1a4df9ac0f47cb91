"""Batch front end: solve, verify, sweep, and mesh-info subcommands.

Runs are configured by a flat ``key = value`` text file with dotted section
keys (``domain.kind = interval``), chosen over positional flags so a run can
be archived and replayed byte-identically.  Outputs are a full-precision
CSV of the nodal solution, a flat key-value report, and optional SVG plots.

Each config rule lives in one place: domain keys are the mesh builders'
arguments, solver keys the fields of `SolverOptions`, and the options and
catalog rules check their own ranges.  A sweep value overrides one key and
is checked like the file, every value before the first run.  Handlers
raise; `main` maps errors to exit codes: 1 for a configuration or input
error (`ValueError`, `OSError`), 2 for non-convergence, an inner solve
failure included, or failed verification checks (results are still written).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import math
import sys
from dataclasses import dataclass, field as dataclass_field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import svg
from .energy import bounds
from .mesh import (Field, Mesh, build_disk_mesh, build_interval_mesh,
                   build_rectangle_mesh, inradius, read_mesh, squared_norms)
from .nonlinearity import CATALOG, NonlinearitySpec, from_catalog, jump_limits
from .solver import SolveResult, SolverOptions, solve_inclusion
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


# domain.kind -> (mesh builder, {domain.* key: type}); the keys are the
# builder's argument names, all required
_DOMAINS = {
    "interval": (build_interval_mesh, {"a": float, "b": float, "n": int}),
    "rectangle": (build_rectangle_mesh, {"lx": float, "ly": float, "nx": int, "ny": int}),
    "disk": (build_disk_mesh, {"radius": float, "refinement": int}),
    "file": (read_mesh, {"path": str}),
}

# solver.* keys: the fields of SolverOptions a config can set
_SOLVER_KEYS = {f.name: type(f.default) for f in fields(SolverOptions)
                if f.name not in ("initial", "seed")}

_VERIFY_KEYS = {"vi_trials": int, "bruteforce_step": float}

# config keys of each catalog rule: the factory's parameter names, each with
# its default (None: required)
_CATALOG_PARAMS = {name: {p.name: None if p.default is p.empty else p.default
                          for p in inspect.signature(factory).parameters.values()}
                   for name, factory in CATALOG.items()}


@dataclass
class RunConfig:
    """A fully validated run description."""

    domain_kind: str
    domain: dict
    nonlinearity_kind: str
    nonlinearity: dict
    spec: NonlinearitySpec
    solver: SolverOptions
    output_dir: Path
    emit_svg: bool = False
    verify: dict = dataclass_field(default_factory=dict)

    def build_mesh(self) -> Mesh:
        return _DOMAINS[self.domain_kind][0](**self.domain)

    def build_spec(self, mesh: Mesh) -> NonlinearitySpec:
        """The forcing on `mesh`; a prescribed e(x) must be finite at every
        interior node (a boundary node's value is fixed, and the solver sets
        the forcing there to 0).  A missing growth_c is the largest finite |e|
        at the nodes."""
        if self.nonlinearity_kind != "prescribed":
            return self.spec
        p = self.nonlinearity
        source = p.get("expression", p.get("value"))
        try:
            e_raw = self.spec.evaluate(mesh.nodes, None)
            if np.iscomplexobj(e_raw):
                raise ConfigError(f"prescribed forcing {source!r} is not real")
            e_nodes = np.full(len(mesh.nodes), e_raw, dtype=float)
        except ArithmeticError as err:
            raise ConfigError(f"prescribed forcing {source!r} cannot be "
                              f"evaluated: {err}") from None
        finite = np.isfinite(e_nodes)
        bad = mesh.interior_nodes[~finite[mesh.interior_nodes]]
        if bad.size:
            raise ConfigError(f"prescribed forcing {source!r} is {e_nodes[bad[0]]} "
                              f"at node {bad[0]} {mesh.nodes[bad[0]].tolist()}")
        if "growth_c" in p:
            return self.spec
        return replace(self.spec, growth_c=float(np.abs(e_nodes[finite]).max(initial=0.0)))

    def analytic_oracle(self, mesh: Mesh):
        """Closed-form radial solution when the domain is a ball and e is constant."""
        # a constant forcing is constant's `a` or prescribed's `value`
        a = self.nonlinearity.get({"constant": "a", "prescribed": "value"}
                                  .get(self.nonlinearity_kind))
        if a is None:
            return None
        if self.domain_kind == "interval":
            lo, hi = self.domain["a"], self.domain["b"]
            return analytic_radial(a, (hi - lo) / 2.0, 1, center=[(lo + hi) / 2.0])
        if self.domain_kind == "disk":
            return analytic_radial(a, self.domain["radius"], 2)
        return None

    def solver_options(self, seed: int = 0) -> SolverOptions:
        """The solver options; `seed` is unused, kept for bench/workloads.py."""
        return replace(self.solver, seed=seed)


def _typed(path, cfg, key, kind, default=None, required=False, choices=None):
    """Pop `key` from `cfg` and convert it; errors name `path` and the line."""
    if key not in cfg:
        if required:
            raise ConfigError(f"{path}: missing required key {key!r}")
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
        raise ConfigError(f"{path}:{no}: key {key!r} expects {kind.__name__}, "
                          f"got {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{path}:{no}: key {key!r} must be finite, got {raw!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}:{no}: key {key!r} must be one of {sorted(choices)}, "
                          f"got {value!r}")
    return value


def _present(typed, cfg, section, kinds):
    """{name: typed value} for each name in `kinds` whose `section.name` cfg has."""
    return {name: typed(f"{section}.{name}", kind)
            for name, kind in kinds.items() if f"{section}.{name}" in cfg}


_EXPR_NAMES = {name: getattr(np, name) for name in
               ("sin", "cos", "tan", "exp", "sqrt", "abs", "log", "tanh", "sign")}
_EXPR_NAMES["pi"] = math.pi


def _expression_fn(expr: str, where: str):
    """The forcing expression as a node-array function; errors start with `where`."""
    try:
        code = compile(expr, "<nonlinearity.expression>", "eval")
    except SyntaxError as err:
        raise ConfigError(f"{where}: bad expression {expr!r}: {err.msg}") from None
    codes = [code]  # lambdas and comprehensions compile to nested code objects
    for nested in codes:
        codes += [c for c in nested.co_consts if isinstance(c, type(code))]
    for name in (name for c in codes for name in c.co_names):
        if name not in _EXPR_NAMES and name not in ("x", "y", "r"):
            raise ConfigError(f"{where}: expression uses unknown name {name!r}")

    def fn(nodes):
        local = dict(_EXPR_NAMES)
        local["x"] = nodes[:, 0]
        local["y"] = nodes[:, 1] if nodes.shape[1] > 1 else np.zeros(len(nodes))
        local["r"] = np.sqrt(squared_norms(nodes))
        # a non-finite value is no warning: build_spec rejects it at an interior node
        with np.errstate(all="ignore"):
            return eval(code, {"__builtins__": {}}, local)

    return fn


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file.

    Every key must be used by the chosen domain and nonlinearity kinds; a
    key left over (unknown, or meant for another kind) is a `ConfigError`
    naming its file and line.
    """
    path = Path(path)
    return _validate(path, parse_flat_config(path))


def _validate(path: Path, cfg: dict) -> RunConfig:
    """The run that `cfg` ({key: (value, where)}, emptied here) describes."""
    where = {key: f"{path}:{no}" for key, (_, no) in cfg.items()}
    typed = partial(_typed, path, cfg)
    kind = typed("domain.kind", str, required=True, choices=_DOMAINS)
    domain = {name: typed(f"domain.{name}", t, required=True)
              for name, t in _DOMAINS[kind][1].items()}
    if kind == "file":
        domain["path"] = path.parent / domain["path"]
        if not domain["path"].exists():
            raise ConfigError(f"mesh file does not exist: {domain['path']}")

    nl_kind = typed("nonlinearity.kind", str, required=True,
                    choices=sorted(CATALOG) + ["prescribed"])
    nl = {key: typed(f"nonlinearity.{key}", float, default=default, required=default is None)
          for key, default in _CATALOG_PARAMS.get(nl_kind, {}).items()}
    if nl_kind == "prescribed":
        nl = _present(typed, cfg, "nonlinearity", dict(
            value=float, expression=str, growth_c=float, growth_q=float))
        if ("value" in nl) == ("expression" in nl):
            raise ConfigError(
                f"{path}: prescribed forcing needs exactly one of nonlinearity.value "
                "or nonlinearity.expression")
        e_fn = ((lambda nodes, v=nl["value"]: v) if "value" in nl
                else _expression_fn(nl["expression"], where["nonlinearity.expression"]))
    solver = _present(typed, cfg, "solver", _SOLVER_KEYS)
    # one key at a time onto valid options, so a range error names its key's line
    options = SolverOptions()
    for name, value in solver.items():
        try:
            options = replace(options, **{name: value})
        except ValueError as err:
            raise ConfigError(f"{where['solver.' + name]}: {err}") from None
    # the rules check their own ranges; an error naming a key names its line
    try:
        if nl_kind == "prescribed":
            # forcing independent of s; build_spec sets a missing growth_c
            spec = NonlinearitySpec(
                evaluate=lambda x, s: e_fn(x), jumps=(),
                growth_c=nl.get("growth_c", 0.0), growth_q=nl.get("growth_q", 2.0),
                name="prescribed", exact_primitive=lambda nodes, s: e_fn(nodes) * s)
        else:
            spec = from_catalog(nl_kind, **nl)
    except ValueError as err:
        at = where.get(f"nonlinearity.{getattr(err, 'key', '')}", path)
        raise ConfigError(f"{at}: {err}") from None

    config = RunConfig(
        domain_kind=kind, domain=domain,
        nonlinearity_kind=nl_kind, nonlinearity=nl, spec=spec,
        solver=options, output_dir=path.parent / typed("output.dir", str, default="out"),
        emit_svg=typed("emit.svg", bool, default=False),
        verify=_present(typed, cfg, "verify", _VERIFY_KEYS),
    )
    # every key used above was consumed; what is left is unknown, or belongs
    # to a domain or nonlinearity kind other than the chosen one
    if cfg:
        key, (_, no) = min(cfg.items(), key=lambda item: item[1][1])
        raise ConfigError(f"{path}:{no}: key {key!r} is unknown or not used "
                          f"with domain.kind = {kind} and nonlinearity.kind = {nl_kind}")
    return config


# -- output writers -----------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.16e}"


_CSV_BLOCK = 1024  # rows per `%` format in write_solution_csv


def write_solution_csv(path, mesh: Mesh, result: SolveResult, residuals) -> None:
    """One row per node: index, coordinates, u, zeta, residual; `\\r\\n` line
    ends, as `csv.writer` writes them.  Each block of `_CSV_BLOCK` rows is one
    `%` format of its values; the index column is float, exact below 2^53,
    and `%d` prints it as the integer."""
    coord_names = ["x", "y", "z"][: mesh.dim]
    table = np.column_stack([np.arange(len(mesh.nodes), dtype=float), mesh.nodes,
                             result.u.values, result.zeta, residuals])
    row = "%d," + ",".join(["%.16e"] * (table.shape[1] - 1)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["index", *coord_names, "u", "zeta", "residual"]) + "\r\n")
        for block in np.array_split(table, range(_CSV_BLOCK, len(table), _CSV_BLOCK)):
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def read_solution_csv(path, mesh: Mesh):
    """Load (u, zeta) written by `write_solution_csv`; checks the shape, finiteness.

    The file's bytes are decoded at once: `splitlines` gives the lines text
    mode would give, without its newline translation pass."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"solution file not found: {path}")
    lines = path.read_bytes().decode().splitlines()
    if not lines:
        raise ConfigError(f"{path}: empty solution file")
    header, body = lines[0].split(","), lines[1:]
    try:
        columns = header.index("u"), header.index("zeta")
    except ValueError:
        raise ConfigError(f"{path}: header must contain 'u' and 'zeta' columns") from None
    if len(body) != len(mesh.nodes):
        raise ConfigError(
            f"{path}: {len(body)} rows for a mesh with {len(mesh.nodes)} nodes")
    if "" in body:  # np.loadtxt would skip it
        raise ConfigError(f"{path}: malformed row {body.index('') + 2}")
    try:
        u, zeta = np.loadtxt(body, delimiter=",", usecols=columns, ndmin=2, unpack=True,
                             comments=None)
    except ValueError as err:
        raise ConfigError(f"{path}: malformed row ({err})") from None
    bad = np.flatnonzero(~(np.isfinite(u) & np.isfinite(zeta)))
    if bad.size:
        raise ConfigError(f"{path}: non-finite value in row {bad[0] + 2}")
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
        levels = jump_limits(spec, mesh.nodes.mean(axis=0, keepdims=True))[0][:, 0]
        doc = svg.field_svg_1d(mesh, result.u.values, guide_levels=levels.tolist(),
                               title=f"u ({spec.name})")
        (out_dir / "solution.svg").write_text(doc)
    elif mesh.dim == 2:
        doc = svg.field_svg_2d(mesh, result.u.values, second=result.zeta)
        (out_dir / "solution.svg").write_text(doc)


# -- subcommands ----------------------------------------------------------------


def _run_solve(config: RunConfig, out_dir: Path, label: str = ""):
    """Shared solve pipeline; returns (mesh, spec, result).  An inner solve
    failure is named on stderr after `label`: an error if the run did not
    converge, a note if its certificate accepted the last iterate."""
    mesh = config.build_mesh()
    spec = config.build_spec(mesh)
    result = solve_inclusion(mesh, spec, config.solver_options())
    if result.breakdown:
        kind, tail = ("note", " (the run converged)") if result.converged else ("error", "")
        print(f"{kind}: {label}inner solve failed: {result.breakdown}{tail}", file=sys.stderr)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_solution_csv(out_dir / "solution.csv", mesh, result, result.residuals)
    write_report(out_dir / "report.txt", mesh, spec, result, bounds(mesh, spec))
    if config.emit_svg:
        _write_svg(out_dir, mesh, spec, result)
    return mesh, spec, result


def cmd_solve(args) -> int:
    config = load_config(args.config)
    out_dir = Path(args.out) if args.out else config.output_dir
    mesh, spec, result = _run_solve(config, out_dir)
    print(f"converged {'true' if result.converged else 'false'}")
    print(f"energy {result.energy:.12g}")
    print(f"outer_iterations {result.outer_iterations}")
    print(f"inner_iterations {result.inner_iterations}")
    print(f"stationarity {result.stationarity:.6g}")
    print(f"max_inclusion_residual {result.residual:.6g}")
    print(f"output {out_dir}")
    return 0 if result.converged else 2


def cmd_verify(args) -> int:
    config = load_config(args.config)
    mesh = config.build_mesh()
    spec = config.build_spec(mesh)
    u_vals, zeta = read_solution_csv(args.solution, mesh)
    if np.any(u_vals[mesh.boundary_nodes] != 0.0):
        raise ConfigError(f"{args.solution}: nonzero value at a boundary node")
    report = verification_report(
        mesh, Field(mesh, u_vals, dirichlet_zero=True), zeta, spec,
        analytic=config.analytic_oracle(mesh), **config.verify)
    sys.stdout.write(format_report(report))
    return 0 if report.all_passed else 2


# sweep parameter -> the config key that each of its values overrides
_SWEEP_PARAMS = {"n": "domain.n", "refinement": "domain.refinement",
                 "selection_rule": "solver.selection_rule", "outer_tol": "solver.outer_tol"}


def _sweep_one(config: RunConfig, param: str, value: str, out_dir: Path):
    """One sweep run's sweep.csv row."""
    mesh, spec, result = _run_solve(config, out_dir / f"{param}_{value}", f"{param}={value}: ")
    analytic = config.analytic_oracle(mesh)
    err = ""
    if analytic is not None:
        err = _fmt(float(np.abs(result.u.values - analytic(mesh.nodes)).max()))
    return [value, _fmt(result.energy), err,
            str(result.outer_iterations), str(result.inner_iterations),
            "true" if result.converged else "false"]


def cmd_sweep(args) -> int:
    if args.param not in _SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep parameter {args.param!r}; "
                          f"choose from {sorted(_SWEEP_PARAMS)}")
    path = Path(args.config)
    parsed = parse_flat_config(path)
    config = _validate(path, dict(parsed))
    # each value overrides its key and is checked like the file, before any run;
    # a domain value is checked by the mesh builder, whose mesh is dropped
    key = _SWEEP_PARAMS[args.param]
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    configs = [_validate(path, {**parsed, key: (v, "--values")}) for v in values]
    for c in (configs if key.startswith("domain.") else []):
        try:
            c.build_mesh()
        except ValueError as err:
            raise ConfigError(f"{path}:--values: key {key!r}: {err}") from None
    out_dir = Path(args.out) if args.out else config.output_dir
    if not values:
        print("no sweep values given; nothing to do")
        return 0
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [_sweep_one(c, args.param, v, out_dir) for c, v in zip(configs, values)]
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([args.param, "energy", "linf_error_vs_analytic",
                         "outer_iterations", "inner_iterations", "converged"])
        writer.writerows(rows)
    print(f"sweep over {args.param}: {len(rows)} runs -> {out_dir / 'sweep.csv'}")
    return 0 if all(row[-1] == "true" for row in rows) else 2


def cmd_mesh_info(args) -> int:
    if args.mesh:
        mesh = read_mesh(args.mesh)
    elif args.config:
        mesh = load_config(args.config).build_mesh()
    else:
        raise ConfigError("mesh-info needs --mesh or --config")
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
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a configured problem")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="check a solution CSV against its config")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--solution", required=True)

    p_sweep = sub.add_parser("sweep", help="re-run a config over parameter values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated list of parameter values")
    p_sweep.add_argument("--out", default=None)

    p_info = sub.add_parser("mesh-info", help="print mesh statistics")
    p_info.add_argument("--config", default=None)
    p_info.add_argument("--mesh", default=None)

    args = parser.parse_args(argv)
    handler = {"solve": cmd_solve, "verify": cmd_verify,
               "sweep": cmd_sweep, "mesh-info": cmd_mesh_info}[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as err:  # ConfigError and MeshError included
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
