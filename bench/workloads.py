"""The three benchmark workloads.

Each workload builds its inputs from the seed, then runs its cases one after
another.  A case has a timed `solve` stage, a timed `verify` stage, and an
untimed `check` that decides from independent evidence whether the answer is
right.  The names imported from minkcurv below are looked up at call time, so
the traced run can wrap them (see spans.py).

Why these three: see DESIGN.md.
"""

from __future__ import annotations

import numpy as np

from minkcurv import (Field, SolverOptions, analytic_radial, bounds,
                      build_disk_mesh, build_interval_mesh, inclusion_residual,
                      psi, psi_gradient, solve_inclusion, solve_prescribed, step,
                      verification_report)
from minkcurv.cli import (load_config, read_solution_csv, write_report,
                          write_solution_csv)

# Acceptance tolerances: the closed-form error of criterion 2, and the
# inclusion residual of criterion 3 (also verification_report's default).
ANALYTIC_TOL = 2e-2
RESIDUAL_TOL = 1e-2
VI_TRIALS = 200


def _max_interior(values, mesh) -> float:
    return float(values[mesh.interior_nodes].max()) if mesh.interior_nodes.size else 0.0


class NewtonDisk:
    """Inner Newton only: solve_prescribed on the disk with constant a.

    Ten right-hand sides a_k = 1.5 + (k + u) / 10, one in each tenth of
    [1.5, 2.5], all shifted by the same seeded u.  The Newton step count
    depends on a (5 steps below 1.6, up to 10 just above 2.0), so a few
    independent draws would let the seed move the work of a pass by 10 %;
    the shifted grid keeps it within about 2 % (see DESIGN.md).
    """

    def __init__(self, seed: int, smoke: bool, workdir):
        self.seed = seed
        self.mesh = build_disk_mesh(1.0, 2 if smoke else 6)
        shift = float(np.random.default_rng(seed).random())
        self.rhs = [1.5 + (k + shift) / 10.0 for k in range(10)]
        self.opts = SolverOptions(seed=seed)
        self.cases = [f"disk{len(self.mesh.nodes)} prescribed a={a:.4f}" for a in self.rhs]

    def nodes(self, k):
        return len(self.mesh.nodes)

    def solve(self, k):
        return solve_prescribed(self.mesh, self.rhs[k], self.opts)

    def verify(self, k, u):
        """The checks that need no forcing rule: the closed-form oracle and the
        residual of the discrete equation.  (verification_report's inclusion
        test would go through the nonlinearity layer, which this workload
        must not touch.)"""
        mesh, a = self.mesh, self.rhs[k]
        error = float(np.abs(u.values - analytic_radial(a, 1.0, 2)(mesh.nodes)).max())
        operator = -psi_gradient(mesh, u) / mesh.node_weight
        return error, _max_interior(np.abs(operator - a), mesh)

    def check(self, k, u, verified) -> dict:
        mesh, a = self.mesh, self.rhs[k]
        error, residual = verified
        return {
            "energy": psi(mesh, u) + float(np.dot(mesh.node_weight * a, u.values)),
            "max_residual": residual, "converged": True,
            "outer_iterations": 0, "newton_steps": None,
            "analytic_linf_error": error,
            "passed": error <= ANALYTIC_TOL,
        }


class RepellingStep:
    """Outer loop on few nodes: the increasing jump step(-1, 1, 0.25).

    The jump level stays fixed: across levels in [0.2, 0.3] the outer work
    swings from 1 to 63 iterations, which would make the seed, not the
    code, decide the time.
    """

    def __init__(self, seed: int, smoke: bool, workdir):
        self.seed = seed
        self.spec = step(-1.0, 1.0, 0.25)
        self.meshes = [build_interval_mesh(-1.0, 1.0, n)
                       for n in ((16, 8) if smoke else (64, 32))]
        self.opts = SolverOptions(seed=seed)
        self.cases = [f"interval n={len(m.elements)} {self.spec.name}" for m in self.meshes]

    def nodes(self, k):
        return len(self.meshes[k].nodes)

    def solve(self, k):
        return solve_inclusion(self.meshes[k], self.spec, self.opts)

    def verify(self, k, result):
        return verification_report(self.meshes[k], result.u, result.zeta, self.spec,
                                   vi_trials=VI_TRIALS, seed=self.seed)

    def check(self, k, result, report) -> dict:
        return _inclusion_answer(result, report)


class AttractingRoundtrip:
    """The `minkcurv solve` then `verify` path for neg_sign, through files.

    Inputs are config files; the solve stage pays for parsing them, building
    the mesh, solving and writing solution.csv and report.txt, the verify
    stage for reading the CSV back and verification_report.
    """

    def __init__(self, seed: int, smoke: bool, workdir):
        self.seed = seed
        domains = (
            ("disk", "domain.kind = disk\ndomain.radius = 1\n"
                     f"domain.refinement = {2 if smoke else 6}\n"),
            ("interval", "domain.kind = interval\ndomain.a = -1\ndomain.b = 1\n"
                         f"domain.n = {64 if smoke else 4096}\n"),
        )
        self.paths = []
        for name, domain in domains:
            path = workdir / f"{name}.cfg"
            path.write_text(domain + "nonlinearity.kind = neg_sign\n"
                            f"verify.vi_trials = {VI_TRIALS}\n"
                            f"output.dir = out_{name}\n")
            self.paths.append(path)
        self.cases = [f"{name} neg_sign roundtrip" for name, _ in domains]
        self._nodes = {}

    def nodes(self, k):
        return self._nodes.get(k)

    def solve(self, k):
        config = load_config(self.paths[k])
        mesh = config.build_mesh()
        spec = config.build_spec(mesh)
        opts = config.solver_options(seed=self.seed)
        result = solve_inclusion(mesh, spec, opts)
        config.output_dir.mkdir(parents=True, exist_ok=True)
        residuals = inclusion_residual(mesh, result.u, spec, margin=opts.working_margin)
        write_solution_csv(config.output_dir / "solution.csv", mesh, result, residuals)
        write_report(config.output_dir / "report.txt", mesh, spec, result, bounds(mesh, spec))
        self._nodes[k] = len(mesh.nodes)
        return config, mesh, spec, opts, result

    def verify(self, k, solved):
        config, mesh, spec, _, _ = solved
        u, zeta = read_solution_csv(config.output_dir / "solution.csv", mesh)
        report = verification_report(mesh, Field(mesh, u, dirichlet_zero=True), zeta,
                                     spec, seed=self.seed, **config.verify)
        return u, zeta, report

    def check(self, k, solved, verified) -> dict:
        config, _, _, _, result = solved
        u, zeta, report = verified
        answer = _inclusion_answer(result, report)
        answer["roundtrip_exact"] = bool(np.array_equal(u, result.u.values)
                                         and np.array_equal(zeta, result.zeta))
        answer["bytes_written"] = sum((config.output_dir / name).stat().st_size
                                      for name in ("solution.csv", "report.txt"))
        return answer


def _inclusion_answer(result, report) -> dict:
    residual = report.max_inclusion_residual
    return {
        "energy": result.energy, "max_residual": residual,
        "converged": bool(result.converged),
        "outer_iterations": result.outer_iterations,
        "newton_steps": result.inner_iterations,
        "vi_min_slack": report.vi_min_slack, "all_passed": report.all_passed,
        "passed": bool(result.converged and residual <= RESIDUAL_TOL and report.all_passed),
    }


WORKLOADS = {
    "newton_disk": NewtonDisk,
    "repelling_step": RepellingStep,
    "attracting_roundtrip": AttractingRoundtrip,
}
