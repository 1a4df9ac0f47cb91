"""Checks of a candidate solution: the critical-point inequality (a proven
bound over every feasible field, and the least slack of a deterministic
trial suite), closed-form radial oracles, a brute-force global minimizer for
tiny meshes, and the report that composes them with the per-node inclusion
residual, built from the pieces of `solver.inclusion_residual`, their one
implementation.  No check draws a random number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

# `bracket`, `psi`, `psi_gradient`, `random_feasible_field` and
# `inclusion_residual` are no longer called here; they stay module attributes
# because bench/worker.py wraps them when it traces a run.
from .mesh import (Field, Mesh, _boundary_path_length, boundary_distance_cone,  # noqa: F401
                   element_gradients, inradius, per_mesh, random_feasible_field,
                   squared_norms)
from .nonlinearity import NonlinearitySpec, bracket, primitive_array  # noqa: F401
from .energy import area_integrand, area_value, psi, psi_gradient, total_energy  # noqa: F401
from .solver import (_bracket_distance, _operator_value, inclusion_residual,  # noqa: F401
                     windowed_envelopes)


# -- critical-point inequality ---------------------------------------------------


def vi_slack_bound(mesh: Mesh, u: Field, zeta) -> float:
    """Lower bound of the slack psi(v) - psi(u) + <zeta, v - u> over every
    feasible v (element gradient norms <= 1, zero boundary values).

    With m = -grad psi(u) / w (`solver._operator_value`, at the working
    margin) and d = v - u, convexity of psi gives psi(v) - psi(u) >=
    -<m, d>, so the slack is at least <zeta - m, d> >= -sum_interior w_i
    |zeta_i - m_i| (D_i + |u_i|): d is 0 on the boundary, and |v_i| <= D_i,
    the edge-path distance to the boundary (`mesh._boundary_path_length`),
    on any mesh.  A node that no path joins to the boundary adds 0 where
    zeta = m, else -inf.  Raises `StrictFeasibilityError` past the margin.
    """
    return _slack_bound(mesh, u, zeta, _operator_value(mesh, u))


def _slack_bound(mesh: Mesh, u: Field, zeta, m) -> float:
    """`vi_slack_bound` with the operator value `m` of u given."""
    idx = mesh.interior_nodes
    excess = mesh.node_weight[idx] * np.abs(np.asarray(zeta, dtype=float)[idx] - m[idx])
    reach = _boundary_path_length(mesh)[idx] + np.abs(u.values[idx])
    return -float(np.dot(excess, np.where(excess > 0.0, reach, 0.0)))


def variational_inequality_check(mesh: Mesh, u: Field, zeta) -> float:
    """Minimum slack of psi(w) - psi(u) + <zeta, w - u> over a deterministic
    suite of trial fields: the zero field, the candidate itself, and the
    distance cone at amplitudes 0.9, 0.5, 0.25 and 0.1 with both signs.

    At a critical point paired with its selection the minimum is
    nonnegative up to solver tolerances; `vi_slack_bound` covers every
    feasible field.  Gradients come by linearity: G u is taken once, and a
    cone's gradient is the unit cone's (`_unit_cone`, kept per mesh) scaled
    by amplitude and sign.  A slack is the area kernel on those gradients,
    +inf where some |g|^2 > 1, plus the lumped pairing with zeta.
    """
    gu = element_gradients(mesh, u.values)
    g2u = squared_norms(gu)
    if np.any(g2u > 1.0) or np.any(u.values[mesh.boundary_nodes] != 0.0):
        raise ValueError("candidate field is outside the constraint set")
    psi_u = area_value(mesh, g2u)
    w_lumped = mesh.node_weight * np.asarray(zeta, dtype=float)

    def slack(g, step) -> float:
        g2 = squared_norms(g)
        if np.any(g2 > 1.0):
            return math.inf
        return area_value(mesh, g2) - psi_u + float(np.dot(w_lumped, step))

    cone, g_cone = _unit_cone(mesh)
    cones = [slack(g_cone * scale, cone * scale - u.values)
             for amp in (0.9, 0.5, 0.25, 0.1) for scale in (amp, -amp)]
    return min(slack(np.zeros_like(gu), -u.values), 0.0, *cones)  # 0.0: u itself


@per_mesh
def _unit_cone(mesh: Mesh):
    """Values and element gradients of the distance cone with gradient bound
    1, read-only: the cones of every VI check on the mesh are its multiples."""
    cone = boundary_distance_cone(mesh, max_gradient=1.0).values
    g_cone = element_gradients(mesh, cone)
    cone.setflags(write=False)
    g_cone.setflags(write=False)
    return cone, g_cone


# -- closed-form radial oracle ---------------------------------------------------


@dataclass(frozen=True)
class RadialSolution:
    """Closed-form solution of the constant-right-hand-side ball problem.

    u(r) = (N/a) * (sqrt(1 + (a r / N)^2) - sqrt(1 + (a R / N)^2)) solves
    (r^{N-1} u' / sqrt(1 - u'^2))' = a r^{N-1} with u(R) = 0 and |u'| < 1;
    for a = 0 it degenerates to the zero function.
    """

    a: float
    R: float
    N: int
    center: np.ndarray = dataclass_field(default=None)

    def radial(self, r):
        r = np.asarray(r, dtype=float)
        if self.a == 0.0:
            return np.zeros_like(r)
        k = self.a / self.N
        return (self.N / self.a) * (np.sqrt(1.0 + (k * r) ** 2)
                                    - math.sqrt(1.0 + (k * self.R) ** 2))

    def radial_derivative(self, r):
        r = np.asarray(r, dtype=float)
        if self.a == 0.0:
            return np.zeros_like(r)
        k = self.a / self.N
        return (k * r) / np.sqrt(1.0 + (k * r) ** 2)

    def __call__(self, points):
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points.reshape(-1, 1)
        center = self.center if self.center is not None else np.zeros(points.shape[1])
        d = points - center
        return self.radial(np.sqrt(squared_norms(d)))

    def on_mesh(self, mesh: Mesh) -> Field:
        vals = self(mesh.nodes)
        vals[mesh.boundary_nodes] = 0.0
        return Field(mesh, vals, dirichlet_zero=True)


def analytic_radial(a: float, R: float, N: int, center=None) -> RadialSolution:
    """Closed-form field for constant right-hand side a on a ball of radius R."""
    if R <= 0:
        raise ValueError(f"ball radius must be positive, got {R}")
    if N < 1:
        raise ValueError(f"dimension must be >= 1, got {N}")
    c = None if center is None else np.asarray(center, dtype=float)
    return RadialSolution(a=float(a), R=float(R), N=int(N), center=c)


# -- brute-force global minimum --------------------------------------------------


def brute_force_minimize(mesh: Mesh, spec: NonlinearitySpec, grid_step: float):
    """Global minimum over quantized interior values on a tiny 1D mesh.

    Interior nodal values range over [-inradius, inradius] on a symmetric
    grid of spacing grid_step (zero included); configurations violating the
    per-element gradient bound (up to a 1e-12 quantization slack) are
    excluded.  The energy is a sum of node terms and terms of neighbouring
    node pairs along the chain of nodes sorted by coordinate, so dynamic
    programming along the chain finds the minimum over every grid
    configuration exactly, without enumerating them.  Returns (nodal values
    including boundary zeros, energy).  Ties are broken by the
    lexicographically smallest configuration in chain order.
    """
    if mesh.dim != 1:
        raise ValueError("brute force search supports 1D meshes only")
    if grid_step <= 0:
        raise ValueError(f"grid_step must be positive, got {grid_step}")
    m = mesh.interior_nodes.size
    if m > 4:
        raise ValueError(f"{m} interior nodes is too many for exhaustive search (max 4)")
    chain = np.argsort(mesh.nodes[:, 0], kind="stable")
    rank = np.empty_like(chain)
    rank[chain] = np.arange(len(chain))
    links = np.sort(rank[mesh.elements], axis=1)
    if not (np.array_equal(np.sort(links[:, 0]), np.arange(len(chain) - 1))
            and np.all(links[:, 1] == links[:, 0] + 1)):
        raise ValueError("brute force search needs elements joining neighbouring nodes")
    half = int(math.floor(inradius(mesh) / grid_step + 1e-12))
    grid = np.arange(-half, half + 1) * grid_step
    x = mesh.nodes[chain, 0]
    options = [np.zeros(1) if mesh.is_boundary[i] else grid for i in chain]
    # lumped potential per node, over the interior nodes' options in one call (0 on the boundary)
    sizes = [len(v) for v in options]
    node, flat = np.repeat(chain, sizes), np.concatenate(options)
    inner = ~mesh.is_boundary[node]
    terms = np.zeros(len(flat))
    terms[inner] = mesh.node_weight[node[inner]] * primitive_array(
        spec, mesh.nodes[node[inner]], flat[inner])
    node_terms = np.split(terms, np.cumsum(sizes)[:-1])
    # best[j]: least energy of the chain from node k on, with node k at option j
    best, choices = node_terms[-1], []
    for k in range(len(chain) - 2, -1, -1):
        h = x[k + 1] - x[k]
        g = (options[k + 1][None, :] - options[k][:, None]) / h
        area = np.where(np.abs(g) <= 1.0 + 1e-12, h * area_integrand(g * g), math.inf)
        total = area + best[None, :]
        choices.append(np.argmin(total, axis=1))
        best = node_terms[k] + total.min(axis=1)
    j = int(np.argmin(best))
    energy = float(best[j])
    if not math.isfinite(energy):
        raise ValueError("no feasible configuration on the search grid")
    vals = np.zeros(len(mesh.nodes))
    for k, choice in enumerate(reversed(choices)):
        vals[chain[k]] = options[k][j]
        j = choice[j]
    vals[chain[-1]] = options[-1][j]
    return vals, energy


# -- composed report --------------------------------------------------------------

# the pass thresholds of `verification_report`: acceptance criteria 3, 9 and 2
_RESIDUAL_TOL, _VI_TOL, _ANALYTIC_TOL = 1e-2, 1e-6, 2e-2


@dataclass
class VerificationReport:
    """Outcome of the independent checks with per-check pass flags.

    `vi_slack_bound` is the function of that name, a lower bound of the
    critical-point slack over every feasible field; `vi_min_slack` is the
    least slack of the deterministic trial suite.
    """

    max_inclusion_residual: float
    vi_min_slack: float
    vi_slack_bound: Optional[float] = None
    analytic_linf_error: Optional[float] = None
    bruteforce_gap: Optional[float] = None
    passed: dict = dataclass_field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(self.passed.values())


def verification_report(mesh: Mesh, u: Field, zeta, spec: NonlinearitySpec, *,
                        vi_trials: int = 200, seed: int = 0, analytic=None,
                        bruteforce_step: Optional[float] = None) -> VerificationReport:
    """Run every applicable check on a (u, zeta) pair; `analytic` maps nodes to exact u.

    The checks pass at a largest inclusion residual of at most
    `_RESIDUAL_TOL`, an analytic error of at most `_ANALYTIC_TOL` and, for
    the critical-point inequality, a proven bound over every feasible field
    (`vi_slack_bound`) and a least slack of the deterministic trial suite
    (`vi_min_slack`: the zero field, u itself and the distance cones) of at
    least -`_VI_TOL`.  No random number is drawn: `vi_trials` and `seed` are
    unused, and bench/workloads.py still passes them.  A candidate past the
    working margin raises `StrictFeasibilityError`.
    """
    m = _operator_value(mesh, u)  # once, for the residual and the slack bound
    res = _bracket_distance(mesh, m, *windowed_envelopes(mesh, spec, u.values))
    max_res = float(res[mesh.interior_nodes].max()) if mesh.interior_nodes.size else 0.0
    vi = variational_inequality_check(mesh, u, zeta)
    vi_bound = _slack_bound(mesh, u, zeta, m)
    passed = {
        "inclusion": max_res <= _RESIDUAL_TOL,
        "variational_inequality": vi >= -_VI_TOL and vi_bound >= -_VI_TOL,
    }
    analytic_err = None
    if analytic is not None:
        analytic_err = float(np.abs(u.values - analytic(mesh.nodes)).max())
        passed["analytic"] = analytic_err <= _ANALYTIC_TOL
    gap = None
    if bruteforce_step is not None:
        _, brute_energy = brute_force_minimize(mesh, spec, bruteforce_step)
        gap = total_energy(mesh, u, spec) - brute_energy
        passed["bruteforce"] = gap <= 1e-3  # within 1e-3 of the grid minimum
    return VerificationReport(max_inclusion_residual=max_res, vi_min_slack=vi,
                              vi_slack_bound=vi_bound, analytic_linf_error=analytic_err,
                              bruteforce_gap=gap, passed=passed)


def format_report(report: VerificationReport) -> str:
    """Flat key-value text block used by reports and the command line: the
    measured values (`vi_slack_bound`, when set, right after `vi_min_slack`),
    one `passed.<check>` line per check, and `all_passed`."""
    lines = [
        f"max_inclusion_residual {report.max_inclusion_residual:.17g}",
        f"vi_min_slack {report.vi_min_slack:.17g}",
    ]
    if report.vi_slack_bound is not None:
        lines.append(f"vi_slack_bound {report.vi_slack_bound:.17g}")
    if report.analytic_linf_error is not None:
        lines.append(f"analytic_linf_error {report.analytic_linf_error:.17g}")
    if report.bruteforce_gap is not None:
        lines.append(f"bruteforce_gap {report.bruteforce_gap:.17g}")
    for name, ok in report.passed.items():
        lines.append(f"passed.{name} {'true' if ok else 'false'}")
    lines.append(f"all_passed {'true' if report.all_passed else 'false'}")
    return "\n".join(lines) + "\n"
