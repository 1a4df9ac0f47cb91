"""Two-level solution procedure for the discontinuous curvature problem.

Inner level: damped Newton with a feasibility-guarding backtracking line
search minimizes the strictly convex prescribed-right-hand-side energy over
zero-boundary fields whose element gradients stay inside the unit ball.
Objective and gradient come from the area kernel of `energy`.  The exact
per-element Hessian blows up like (1-|g|^2)^(-3/2) near the constraint
surface, so Newton directions are naturally repelled from it; no explicit
projection is needed.

Outer level: a selection fixed point.  Each iterate solves the inner
problem with right-hand side given by the pointwise selection of the
current iterate, with an energy safeguard (best dyadic convex combination
whenever the candidate would raise the energy) and, on stall, escape probes
that retry the two envelope selections and accept only a strict energy
decrease.  The probes are what moves the iteration off spurious fixed
points sitting at a jump level of the forcing rule.

Certificates: one pass at the end of a solve gives the selection zeta and
the inclusion residual; `stationarity_measure` samples trial fields.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .mesh import Field, Mesh, element_gradients, random_feasible_field
# `bracket` is no longer called here; it stays a module attribute because
# bench/worker.py wraps solver.bracket when it traces a run.
from .nonlinearity import NonlinearitySpec, bracket, envelopes, selection  # noqa: F401
from .energy import area_gradient, area_value, psi, psi_gradient, total_energy


class InnerSolveError(RuntimeError):
    """Inner Newton failed; carries the last iterate and its residual."""

    def __init__(self, message, last_values=None, residual=math.nan, iterations=0):
        super().__init__(message)
        self.last_values = last_values
        self.residual = residual
        self.iterations = iterations


@dataclass
class SolverOptions:
    """Tolerances and caps for the two solver levels.

    inner_tol bounds the max-norm of the Dirichlet-masked gradient of the
    inner objective; outer_tol bounds the sup-norm change between outer
    iterates.  working_margin keeps every accepted iterate at element
    gradient norm <= 1 - working_margin.
    """

    inner_tol: float = 1e-10
    outer_tol: float = 1e-8
    max_inner: int = 200
    max_outer: int = 100
    working_margin: float = 1e-12
    damping: float = 0.5
    initial: Field | None = None
    selection_rule: str = "mid"
    certificate_trials: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.inner_tol <= 0 or self.outer_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0.0 < self.damping < 1.0:
            raise ValueError(f"damping must be in (0,1), got {self.damping}")
        if not 0.0 < self.working_margin < 0.5:
            raise ValueError(f"working_margin must be in (0, 0.5), got {self.working_margin}")
        if self.max_inner < 1 or self.max_outer < 1:
            raise ValueError("iteration caps must be >= 1")
        if self.selection_rule not in ("lo", "mid", "hi"):
            raise ValueError(f"unknown selection rule {self.selection_rule!r}")


@dataclass
class SolveResult:
    """Solution, selection, certificates, and run diagnostics."""

    u: Field
    zeta: np.ndarray
    inner_iterations: int
    outer_iterations: int
    energy_trace: list
    stationarity: float
    converged: bool
    residual: float
    max_iterate_value: float = 0.0
    max_iterate_gradient: float = 0.0

    @property
    def energy(self) -> float:
        return self.energy_trace[-1]


@dataclass
class _InnerStats:
    iterations: int = 0
    max_value: float = 0.0
    max_gradient: float = 0.0


def _certificate_selection(mesh: Mesh, spec: NonlinearitySpec, u: Field,
                           margin: float):
    """The selection inside the envelope bracket closest to the operator value.

    Away from jump levels the bracket is a point and this is just
    f(x_i, u_i).  Within one mesh size of a jump level the discrete operator
    value is projected onto the jump interval, which is exactly the
    selection realizing the fixed-point identity at a converged iterate
    (the midpoint convention steers the iteration, but cannot certify
    solutions crossing a jump level between nodes).

    Returns zeta and |m - zeta| per node, the operator value's distance to
    the bracket (at interior nodes, `verify.inclusion_residual`).
    """
    lo, hi = envelopes(spec, mesh.nodes, u.values, mesh.mesh_size())
    m = -psi_gradient(mesh, u, margin=margin) / mesh.node_weight
    zeta = np.clip(m, lo, hi)
    return zeta, np.abs(m - zeta)


# -- per-mesh Newton workspace ---------------------------------------------------

_DISSECTION_LEAF = 64


def _nested_dissection(points: np.ndarray, adjacency: sp.csr_matrix) -> np.ndarray:
    """Fill-reducing elimination order of a graph whose vertices sit at `points`.

    Recursive coordinate bisection: a part is sorted along the longest axis
    of its bounding box and cut at the median; the nodes of the lower half
    that touch the upper half form the vertex separator, which is ordered
    after both halves.  Parts of at most `_DISSECTION_LEAF` nodes keep the
    order they arrive in.  Only stable sorts are used, so the order is a
    deterministic function of the coordinates and the graph.
    """
    blocks = []

    def dissect(part):
        if len(part) <= _DISSECTION_LEAF:
            blocks.append(part)
            return
        coords = points[part]
        axis = int(np.argmax(np.ptp(coords, axis=0)))
        part = part[np.argsort(coords[:, axis], kind="stable")]
        low, high = np.split(part, [len(part) // 2])
        in_high = np.zeros(len(points))
        in_high[high] = 1.0
        touches = adjacency[low] @ in_high > 0.0
        dissect(low[~touches])
        dissect(high)
        blocks.append(low[touches])

    dissect(np.arange(len(points)))
    return np.concatenate(blocks)


@dataclass(frozen=True)
class _NewtonWorkspace:
    """What every Newton step on one mesh shares.

    The interior Hessian is assembled straight into a fixed CSC pattern
    (`indptr`, `indices`) whose rows and columns follow `order`, the
    interior node ids in nested-dissection elimination order.  Entry
    (e, a, b) of the element blocks lands in data slot `scatter[e*nv*nv +
    a*nv + b]`; entries touching a boundary node go to the dummy slot
    `len(indices)`.  `stiffness` holds B B^T per element (B the basis
    gradients).  Holds no reference to the mesh, so the cache entry dies
    with it.
    """

    order: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    scatter: np.ndarray
    stiffness: np.ndarray


_workspace_cache = weakref.WeakKeyDictionary()


def _newton_workspace(mesh: Mesh) -> _NewtonWorkspace:
    """The mesh's Newton workspace, built on first use and cached."""
    try:
        return _workspace_cache[mesh]
    except KeyError:
        pass
    interior = mesh.interior_nodes
    n = len(interior)
    nv = mesh.dim + 1
    local = np.full(len(mesh.nodes), -1, dtype=np.int64)
    local[interior] = np.arange(n)
    el = local[mesh.elements]
    rows = np.repeat(el, nv, axis=1).ravel()  # node of vertex a in entry (a, b)
    cols = np.tile(el, (1, nv)).ravel()       # node of vertex b
    keep = (rows >= 0) & (cols >= 0)
    rows, cols = rows[keep], cols[keep]
    adjacency = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    order = _nested_dissection(mesh.nodes[interior], adjacency)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    slots, slot_of = np.unique(rank[cols] * n + rank[rows], return_inverse=True)
    scatter = np.full(keep.size, len(slots), dtype=np.int32)
    scatter[keep] = slot_of
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(slots // n, minlength=n), out=indptr[1:])
    B = mesh.basis_gradients
    workspace = _NewtonWorkspace(
        order=interior[order], indptr=indptr,
        indices=(slots % n).astype(np.int32), scatter=scatter,
        stiffness=np.einsum("evd,ewd->evw", B, B))
    for arr in vars(workspace).values():
        arr.setflags(write=False)
    _workspace_cache[mesh] = workspace
    return workspace


def _area_hessian(mesh: Mesh, ws: _NewtonWorkspace, root, Bg) -> sp.csc_matrix:
    """Interior Hessian of the area term, rows and columns in `ws.order`.

    Element block: measure * (B B^T / r + (B g)(B g)^T / r^3), with
    r = sqrt(1 - |g|^2) and `Bg` = B g per element, shape (M, nv).
    """
    m = mesh.element_measure
    h_el = (m / root)[:, None, None] * ws.stiffness \
        + (m / root ** 3)[:, None, None] * Bg[:, :, None] * Bg[:, None, :]
    nnz = len(ws.indices)
    data = np.bincount(ws.scatter, weights=h_el.ravel(), minlength=nnz + 1)[:nnz]
    n = len(ws.order)
    return sp.csc_matrix((data, ws.indices, ws.indptr), shape=(n, n))


def _solve_prescribed(mesh: Mesh, e, opts: SolverOptions, initial=None,
                      objective_trace=None):
    """Newton minimization of psi_h(w) + <e, w>_lumped over interior nodes.

    Returns (values, stats).  `e` is broadcast to one value per node.
    `objective_trace`, when a list, receives the objective value of every
    accepted iterate (diagnostics for monotonicity checks).
    """
    e = np.broadcast_to(np.asarray(e, dtype=float), (len(mesh.nodes),))
    if not np.all(np.isfinite(e)):
        raise ValueError("prescribed right-hand side must be finite at every node")
    interior = mesh.interior_nodes
    margin = opts.working_margin
    limit2 = (1.0 - margin) ** 2
    linear = mesh.node_weight * e

    if initial is None:
        values = np.zeros(len(mesh.nodes))
    else:
        values = np.array(initial, dtype=float)
        values[mesh.boundary_nodes] = 0.0

    def grad_sq(vals):
        g = element_gradients(mesh, vals)
        return g, (g * g).sum(axis=1)

    g, g2 = grad_sq(values)
    if np.any(g2 > limit2):
        raise InnerSolveError(
            "initial iterate violates the working feasibility margin",
            last_values=values, residual=math.inf)

    def objective(g2_local, vals):
        return area_value(mesh, g2_local) + float(np.dot(linear[interior], vals[interior]))

    stats = _InnerStats()
    stats.max_value = float(np.abs(values).max())
    stats.max_gradient = float(np.sqrt(g2.max())) if g2.size else 0.0

    ws = _newton_workspace(mesh)
    order = ws.order
    obj = objective(g2, values)
    if objective_trace is not None:
        objective_trace.append(obj)
    for _ in range(opts.max_inner + 1):
        # the Hessian reuses the kernel's root and B g
        full_grad, root, Bg = area_gradient(mesh, g, g2)
        grad = full_grad[order] + linear[order]
        residual = float(np.abs(grad).max()) if grad.size else 0.0
        if not math.isfinite(residual):
            raise InnerSolveError("non-finite gradient encountered",
                                  last_values=values, residual=residual,
                                  iterations=stats.iterations)
        if residual <= opts.inner_tol:
            return values, stats
        if stats.iterations >= opts.max_inner:
            raise InnerSolveError(
                f"no convergence in {opts.max_inner} Newton iterations "
                f"(residual {residual:.3e})",
                last_values=values, residual=residual, iterations=stats.iterations)

        # The Hessian is SPD and already in nested-dissection order: no
        # column reordering and no pivoting.  The factor is used once and
        # not kept, so only one LU is alive at a time.
        try:
            direction = splu(_area_hessian(mesh, ws, root, Bg), permc_spec="NATURAL",
                             diag_pivot_thresh=0.0,
                             options=dict(SymmetricMode=True)).solve(-grad)
        except RuntimeError as err:
            raise InnerSolveError(f"Hessian factorization failed: {err}",
                                  last_values=values, residual=residual,
                                  iterations=stats.iterations) from err
        if not np.all(np.isfinite(direction)):
            raise InnerSolveError("non-finite Newton direction",
                                  last_values=values, residual=residual,
                                  iterations=stats.iterations)

        slope = float(np.dot(grad, direction))
        # sufficient decrease up to the roundoff resolution of the objective,
        # so the final Newton steps are not blocked by cancellation noise
        noise = 1e-15 * (1.0 + abs(obj))
        t = 1.0
        while True:
            cand = values.copy()
            cand[order] += t * direction
            g_c, g2_c = grad_sq(cand)
            if np.all(g2_c <= limit2):
                obj_c = objective(g2_c, cand)
                if obj_c <= obj + 1e-4 * t * slope + noise:
                    break
            t *= opts.damping
            if t < 1e-18:
                raise InnerSolveError(
                    f"line search stalled (residual {residual:.3e})",
                    last_values=values, residual=residual,
                    iterations=stats.iterations)
        values, g, g2, obj = cand, g_c, g2_c, obj_c
        stats.iterations += 1
        stats.max_value = max(stats.max_value, float(np.abs(values).max()))
        stats.max_gradient = max(stats.max_gradient, float(np.sqrt(g2.max())))
        if objective_trace is not None:
            objective_trace.append(obj)
    raise AssertionError("unreachable")


def solve_prescribed(mesh: Mesh, e, opts: SolverOptions | None = None,
                     initial: Field | None = None) -> Field:
    """Unique zero-boundary minimizer of psi_h(w) + <e, w>_lumped.

    `e` holds one right-hand-side value per node (a scalar is broadcast).
    Raises `InnerSolveError` on non-convergence, carrying the last iterate.
    """
    opts = opts or SolverOptions()
    init = initial.values if initial is not None else None
    values, _ = _solve_prescribed(mesh, e, opts, initial=init)
    return Field(mesh, values, dirichlet_zero=True)


def _safeguarded(mesh, spec, u, I_u, cand):
    """Replace an energy-increasing candidate by the best dyadic combination."""
    I_cand = total_energy(mesh, Field(mesh, cand, dirichlet_zero=True), spec)
    if not I_cand > I_u + 1e-12:
        return cand, I_cand
    d = cand - u
    best_vals, best_I = u, I_u
    lam = 1.0
    for _ in range(60):
        trial = u + lam * d
        I_t = total_energy(mesh, Field(mesh, trial, dirichlet_zero=True), spec)
        if I_t < best_I:
            best_vals, best_I = trial, I_t
        lam *= 0.5
    return best_vals, best_I


def _escape_probe(mesh, spec, opts, u, I_u, zeta, stats_sink):
    """Retry alternative bracket selections as right-hand sides at a stall.

    Probes the two envelope selections and the operator-projected selection;
    returns (values, energy) of the best strictly improving probe, or None.
    Probes that coincide with the current selection at every interior node
    are skipped (boundary values never enter the inner solve).
    """
    if spec.jumps is not None and len(spec.jumps) == 0:
        return None  # declared continuous: envelopes equal the selection
    lo, hi = envelopes(spec, mesh.nodes, u, window=0.0)
    proj, _ = _certificate_selection(mesh, spec,
                                     Field(mesh, u, dirichlet_zero=True),
                                     opts.working_margin)
    interior = mesh.interior_nodes
    best = None
    for e in (lo, hi, proj):
        if np.array_equal(e[interior], zeta[interior]):
            continue
        try:
            vals, stats = _solve_prescribed(mesh, e, opts, initial=u)
        except InnerSolveError:
            continue
        stats_sink.append(stats)
        I_v = total_energy(mesh, Field(mesh, vals, dirichlet_zero=True), spec)
        if I_v < I_u - 1e-12 and (best is None or I_v < best[1]):
            best = (vals, I_v)
    return best


def solve_inclusion(mesh: Mesh, spec: NonlinearitySpec,
                    opts: SolverOptions | None = None) -> SolveResult:
    """Outer selection fixed point for the differential inclusion.

    Iterates u_{k+1} = prescribed-solve(selection(u_k)) from the initial
    field (zero by default), with the energy safeguard and envelope escape
    probes described in the module docstring.  Terminates when successive
    iterates agree within outer_tol (and no probe improves the energy) or
    when max_outer is exhausted; in the latter case the result is returned
    with converged=False rather than raising.
    """
    opts = opts or SolverOptions()
    if opts.initial is not None:
        u = np.array(opts.initial.values, dtype=float)
        u[mesh.boundary_nodes] = 0.0
    else:
        u = np.zeros(len(mesh.nodes))
    I_u = total_energy(mesh, Field(mesh, u, dirichlet_zero=True), spec)
    trace = [I_u]
    stats_all = []
    fixed_point = False

    outer = 0
    while outer < opts.max_outer:
        outer += 1
        zeta = selection(spec, mesh.nodes, u, opts.selection_rule)
        cand, stats = _solve_prescribed(mesh, zeta, opts, initial=u)
        stats_all.append(stats)
        cand, I_cand = _safeguarded(mesh, spec, u, I_u, cand)
        step = float(np.abs(cand - u).max())
        zeta_next = selection(spec, mesh.nodes, cand, opts.selection_rule)
        selection_fixed = np.array_equal(zeta_next[mesh.interior_nodes],
                                         zeta[mesh.interior_nodes])
        u, I_u = cand, I_cand
        trace.append(I_u)
        if step <= opts.outer_tol or selection_fixed:
            improved = _escape_probe(mesh, spec, opts, u, I_u, zeta_next, stats_all)
            if improved is None:
                fixed_point = True
                break
            u, I_u = improved
            trace.append(I_u)

    u_field = Field(mesh, u, dirichlet_zero=True)
    zeta, res = _certificate_selection(mesh, spec, u_field, opts.working_margin)
    eps = stationarity_measure(mesh, u_field, spec, opts.certificate_trials,
                               seed=opts.seed, selection_rule=opts.selection_rule)
    max_res = float(res[mesh.interior_nodes].max()) if mesh.interior_nodes.size else 0.0
    converged = fixed_point and eps <= opts.outer_tol * (1.0 + abs(I_u))
    return SolveResult(
        u=u_field, zeta=zeta,
        inner_iterations=sum(s.iterations for s in stats_all),
        outer_iterations=outer,
        energy_trace=trace,
        stationarity=eps,
        converged=converged,
        residual=max_res,
        max_iterate_value=max([s.max_value for s in stats_all], default=0.0),
        max_iterate_gradient=max([s.max_gradient for s in stats_all], default=0.0),
    )


def stationarity_measure(mesh: Mesh, u: Field, spec: NonlinearitySpec,
                         trial_count: int, seed: int = 0,
                         selection_rule: str = "mid") -> float:
    """Certificate for the critical-point inequality at u.

    For random feasible trial fields v (half of them small perturbations of
    u) the surrogate D(v) = <zeta_u, v - u>_lumped + psi(v) - psi(u) is
    evaluated; at nodes sitting on a jump level (within one mesh size, the
    same value window the residual check uses) the bracket endpoint
    maximizing the pairing is used, which realizes the discrete generalized
    directional derivative.  The returned value is
    max(0, max_v -D(v)/|v - u|_inf); it vanishes (up to solver tolerances)
    exactly at critical points.
    """
    rng = np.random.default_rng(seed)
    values = u.values
    zeta = selection(spec, mesh.nodes, values, selection_rule)
    lo, hi = envelopes(spec, mesh.nodes, values, mesh.mesh_size())
    at_jump = hi > lo
    w = mesh.node_weight
    psi_u = psi(mesh, u)
    worst = 0.0
    for k in range(trial_count):
        v = random_feasible_field(mesh, rng,
                                  around=values if k % 2 else None)
        dv = v.values - values
        denom = float(np.abs(dv).max())
        if denom == 0.0:
            continue
        pair = zeta * dv
        pair[at_jump] = np.maximum(lo[at_jump] * dv[at_jump],
                                   hi[at_jump] * dv[at_jump])
        D = float(np.dot(w, pair)) + psi(mesh, v) - psi_u
        worst = max(worst, -D / denom)
    return worst
