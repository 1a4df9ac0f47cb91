"""Independent checks: inclusion residuals, the critical-point inequality,
closed-form radial oracles, and a brute-force global minimizer for tiny
meshes.

The discrete weak operator value at an interior node is read off as
m_i = -(psi_gradient)_i / node_weight_i, which turns the inclusion into a
per-node interval test.  The inclusion holds at a node when m_i lies inside
the envelope bracket at (x_i, u_i); near a declared jump level the bracket
is widened to the full jump interval (a discrete solution only crosses the
level between nodes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

# `element_gradients` and `bracket` are no longer called here; they stay module
# attributes because bench/worker.py wraps them when it traces a run.
from .mesh import (Field, Mesh, boundary_distance_cone, element_gradients,  # noqa: F401
                   inradius, random_feasible_field)
from .nonlinearity import NonlinearitySpec, bracket, envelopes, primitive_array  # noqa: F401
from .energy import psi, psi_gradient, total_energy


# -- pointwise inclusion residual ----------------------------------------------


def windowed_envelopes(mesh: Mesh, spec: NonlinearitySpec, values,
                       window: Optional[float] = None):
    """Envelope arrays (lo, hi) at every node, widened near jump levels.

    A nodal value within `window` (default: the mesh size h) of a declared
    jump level sees the whole jump interval: a piecewise-affine candidate
    crosses the level between nodes, so the limiting selection there may be
    any bracket element.
    """
    if window is None:
        window = mesh.mesh_size()
    return envelopes(spec, mesh.nodes, values, window)


def inclusion_residual(mesh: Mesh, u: Field, spec: NonlinearitySpec,
                       jump_window: Optional[float] = None,
                       margin: float = 1e-9) -> np.ndarray:
    """Distance of the discrete operator value to the envelope bracket.

    Returns one residual per node (zero at boundary nodes, which carry the
    Dirichlet condition instead).  `jump_window` (default: the mesh size h)
    is the value tolerance within which a node counts as sitting on a jump
    level, in which case the bracket is widened to the whole jump interval.
    """
    lo, hi = windowed_envelopes(mesh, spec, u.values, window=jump_window)
    grad = psi_gradient(mesh, u, margin=margin)
    out = np.zeros(len(mesh.nodes))
    idx = mesh.interior_nodes
    m = -grad[idx] / mesh.node_weight[idx]
    out[idx] = np.maximum(0.0, np.maximum(lo[idx] - m, m - hi[idx])) + 0.0
    return out


# -- critical-point inequality ---------------------------------------------------


def variational_inequality_check(mesh: Mesh, u: Field, zeta, trials: int,
                                 seed: int = 0) -> float:
    """Minimum slack of psi(w) - psi(u) + <zeta, w - u> over trial fields.

    The trial set is a deterministic suite (zero field, the candidate
    itself, distance cones at several amplitudes and both signs) plus
    `trials` random feasible fields, half of them small perturbations of
    the candidate.  At a critical point paired with its selection the
    returned minimum is nonnegative up to solver tolerances.
    """
    zeta = np.asarray(zeta, dtype=float)
    psi_u = psi(mesh, u)
    if math.isinf(psi_u):
        raise ValueError("candidate field is outside the constraint set")
    w_lumped = mesh.node_weight * zeta

    def slack(field: Field) -> float:
        return psi(mesh, field) - psi_u + float(
            np.dot(w_lumped, field.values - u.values))

    suite = [Field.zero(mesh), Field(mesh, u.values.copy(), dirichlet_zero=True)]
    for amp in (0.9, 0.5, 0.25, 0.1):
        cone = boundary_distance_cone(mesh, max_gradient=amp)
        suite.append(cone)
        suite.append(Field(mesh, -cone.values, dirichlet_zero=True))
    rng = np.random.default_rng(seed)
    worst = min(slack(w) for w in suite)
    for k in range(trials):
        around = u.values if k % 2 else None
        worst = min(worst, slack(random_feasible_field(mesh, rng, around=around)))
    return worst


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
        return self.radial(np.sqrt((d * d).sum(axis=1)))

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
    # lumped potential per node, tabulated over its options in one call
    sizes = [len(v) for v in options]
    node_terms = np.split(np.repeat(mesh.node_weight[chain], sizes) * primitive_array(
        spec, np.repeat(mesh.nodes[chain], sizes, axis=0), np.concatenate(options)),
        np.cumsum(sizes)[:-1])
    # best[j]: least energy of the chain from node k on, with node k at option j
    best, choices = node_terms[-1], []
    for k in range(len(chain) - 2, -1, -1):
        h = x[k + 1] - x[k]
        g = (options[k + 1][None, :] - options[k][:, None]) / h
        area = np.where(np.abs(g) <= 1.0 + 1e-12,
                        h * (1.0 - np.sqrt(1.0 - np.minimum(g * g, 1.0))), math.inf)
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


@dataclass
class VerificationReport:
    """Outcome of the independent checks with per-check pass flags."""

    max_inclusion_residual: float
    vi_min_slack: float
    analytic_linf_error: Optional[float] = None
    bruteforce_gap: Optional[float] = None
    passed: dict = dataclass_field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(self.passed.values())


def verification_report(mesh: Mesh, u: Field, zeta, spec: NonlinearitySpec, *,
                        residual_tol: float = 1e-2, vi_tol: float = 1e-6,
                        vi_trials: int = 200, seed: int = 0,
                        analytic=None, analytic_tol: float = 2e-2,
                        bruteforce_step: Optional[float] = None,
                        bruteforce_tol: float = 1e-3,
                        margin: float = 1e-9) -> VerificationReport:
    """Run every applicable check on a candidate solution/selection pair."""
    res = inclusion_residual(mesh, u, spec, margin=margin)
    max_res = float(res[mesh.interior_nodes].max()) if mesh.interior_nodes.size else 0.0
    vi = variational_inequality_check(mesh, u, zeta, vi_trials, seed=seed)
    passed = {
        "inclusion": max_res <= residual_tol,
        "variational_inequality": vi >= -vi_tol,
    }
    analytic_err = None
    if analytic is not None:
        exact = analytic(mesh.nodes) if callable(analytic) else np.asarray(analytic)
        analytic_err = float(np.abs(u.values - exact).max())
        passed["analytic"] = analytic_err <= analytic_tol
    gap = None
    if bruteforce_step is not None:
        _, brute_energy = brute_force_minimize(mesh, spec, bruteforce_step)
        gap = total_energy(mesh, u, spec) - brute_energy
        passed["bruteforce"] = gap <= bruteforce_tol
    return VerificationReport(max_inclusion_residual=max_res, vi_min_slack=vi,
                              analytic_linf_error=analytic_err,
                              bruteforce_gap=gap, passed=passed)


def format_report(report: VerificationReport) -> str:
    """Flat key-value text block used by reports and the command line."""
    lines = [
        f"max_inclusion_residual {report.max_inclusion_residual:.17g}",
        f"vi_min_slack {report.vi_min_slack:.17g}",
    ]
    if report.analytic_linf_error is not None:
        lines.append(f"analytic_linf_error {report.analytic_linf_error:.17g}")
    if report.bruteforce_gap is not None:
        lines.append(f"bruteforce_gap {report.bruteforce_gap:.17g}")
    for name, ok in report.passed.items():
        lines.append(f"passed.{name} {'true' if ok else 'false'}")
    lines.append(f"all_passed {'true' if report.all_passed else 'false'}")
    return "\n".join(lines) + "\n"
