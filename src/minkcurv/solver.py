"""Two-level solution procedure for the discontinuous curvature problem.

Inner level: damped Newton with a feasibility-guarding backtracking line
search minimizes the strictly convex prescribed-right-hand-side energy over
zero-boundary fields whose element gradient norms stay at most
1 - energy.FEASIBILITY_MARGIN, the certificates' margin.  Both entry
points start an inner solve from its given field or, where that is zero,
from the flux start: the Poisson flux q mapped into the unit ball by
q / sqrt(1 + |q|^2), the inverse of the operator's phi, and projected onto
P1 gradients (two K0 solves), the solution wherever the flux is a gradient
(1D, radial problems).  Newton stops at a gradient max-norm of `_INNER_TOL`;
kink-free solves of `solve_inclusion` also need |g|_1 <= outer_tol / 10 *
(1 + |objective|), which bounds rho, unless Newton is at its roundoff floor.
Objective and gradient come from the area kernel of `energy`; the exact
Hessian blows up like (1-|g|^2)^(-3/2) near the constraint surface, so
Newton directions are naturally repelled from it.  One function,
`_factor`, factors every matrix once: banded Cholesky in 1D, where the
interior in coordinate order has a banded Hessian (LAPACK's `?pttrf` on a
tridiagonal band, `?pbtrf` on a single node's, called directly), else
SuperLU.  Every 1D step factors its Hessian.  A 2D direction is inexact:
CG preconditioned by the factor the solve holds, stopped at the relative
residual min(0.1, (r / r_0)^2), with r the residual and r_0 the solve's
first one (dimensionless Eisenstat-Walker forcing), or once the residual's
2-norm is a tenth of `_INNER_TOL`, past which the step's max-norm stop
needs nothing more.  A solve with no kinks and no pinned nodes holds the
factor of K0 = sum_e m_e B B^T (the Hessian at the zero field); one K0
factor at most is alive per process, and it serves every such solve on
its mesh until another mesh needs it, the mesh dies or `solve_inclusion`
returns.  Its CG applies the Hessian without assembling it, as the area
kernel's product (`energy.area_hessian_product`; Knoll and Keyes'
Jacobian-free products), through the mesh's gradient operator restricted
to the Newton workspace's coordinates, the interior nodes in elimination
order: the Newton loop, its line search and the flux start run in them,
and node arrays are read on entry and made on exit.  A kinked or pinned
solve's first step and a step whose CG misses its forcing factor their
own Hessian, and the solve holds it (a lagged preconditioner).  The
Hessian is assembled only there and for the CG on such a held factor,
which takes 9 to 50 iterations a step, each product costing about a
seventh of an assembly (0.46 ms against 3.1 ms on disk-6).

An increasing jump of f by c at `level` is the convex kink
c * max(0, u_i - level) of the lumped energy.  An inner solve with no kinks
is one Newton solve.  One with kinks runs Newton on their Moreau
envelopes, gamma = 0.01, 1e-4, ..., 1e-12, each stage from the last one's
values.  A stage whose solution has no node in a smoothing band is exact
(each slope there is a subgradient of its kink); otherwise the band nodes
are pinned at their level and the problem solved again, until a pinned
solution passes rho's gate with the kinks' subdifferential as its bracket.
A rejected one starts the next stage, as do the last values solved when a
solve fails; only a failure of the last stage is raised, carrying them.

Outer level: a selection fixed point for the rest of f, f minus its kinks
(constant for `step` and `heaviside`, so one iteration suffices; all of f
for `neg_sign`).  Each stall makes one certificate pass, the run's
certificate if the stall ends the loop; a stall whose selection moved
ends it only if rho is within its gate.  If the rest jumps, escape probes
(that pass's two envelope selections as right-hand sides) are accepted
only on a strict energy decrease, the lower of the two if both decrease.
At the zero field with a symmetric bracket one probe is the other's mirror
image and only one is solved.  An inner solve failure ends the loop.

Certificate: with m = -grad psi / w and [lo, hi] the zero-window
envelopes, convexity of psi gives for every feasible v, d = v - u,
psi(v) - psi(u) + sum_i w_i max(lo_i d_i, hi_i d_i) >= -|d|_inf * rho with
rho = sum_i w_i dist(m_i, [lo_i, hi_i]) (Szulkin's critical-point
inequality).  `converged` means a fixed point with rho <= outer_tol *
(1 + |energy|).  Its pieces are implemented once, and `verify` imports them:
m (`_operator_value`), `_bracket_distance` and its weighted sum
`_weighted_distance` (rho, and the pinned stages' gate), and
`windowed_envelopes`, composed in `inclusion_residual`.
"""

from __future__ import annotations

import math
import sys
import weakref
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, get_lapack_funcs
from scipy.sparse.linalg import LinearOperator, cg, splu

from .mesh import (Field, Mesh, MeshError, _boundary_path_length, _edge_table, element_gradients,
                   per_mesh, squared_norms)
# `bracket` is no longer called here; it stays a module attribute because
# bench/worker.py wraps solver.bracket when it traces a run.
from .nonlinearity import (NonlinearitySpec, bracket, envelopes, jump_limits,  # noqa: F401
                           selection)
from .energy import (FEASIBILITY_MARGIN, area_gradient, area_hessian_blocks,
                     area_hessian_product, area_value, check_margin, psi_gradient, total_energy)


class InnerSolveError(RuntimeError):
    """Inner Newton failed; carries the last iterate and its residual."""

    def __init__(self, message, last_values=None, residual=math.nan, iterations=0):
        super().__init__(message)
        self.last_values = last_values
        self.residual = residual
        self.iterations = iterations


@dataclass
class SolverOptions:
    """What a run chooses; the inner tolerance and the caps are constants.

    outer_tol bounds the sup-norm change between outer iterates and sets
    rho's gate and the inner l1 stop.  `initial` is the start field of both
    entry points, a field of the mesh being solved; unset or zero, they
    start from the flux start (module docstring).  `seed` is unused (the
    solver draws no random numbers); bench/workloads.py still passes it.
    """

    outer_tol: float = 1e-8
    initial: Field | None = None
    selection_rule: str = "mid"
    seed: int = 0

    def __post_init__(self):
        # positive and finite as a float (a bool is an int, but not a tolerance)
        tol = self.outer_tol
        if not (isinstance(tol, (float, np.floating)) and 0 < float(tol) < math.inf
                or isinstance(tol, (int, np.integer)) and not isinstance(tol, bool)
                and 0 < tol <= sys.float_info.max):
            raise ValueError(f"tolerances must be positive and finite, got outer_tol={tol!r}")
        self.outer_tol = float(tol)
        if not isinstance(self.initial, (Field, type(None))):
            raise ValueError(f"initial must be a Field, got {type(self.initial).__name__}")
        if self.selection_rule not in ("lo", "mid", "hi"):
            raise ValueError(f"unknown selection rule {self.selection_rule!r}")

    @property
    def working_margin(self) -> float:
        """`energy.FEASIBILITY_MARGIN`, read-only; bench/workloads.py reads it."""
        return FEASIBILITY_MARGIN


def _start(mesh: Mesh, opts: SolverOptions) -> np.ndarray:
    """A copy of the values of `opts.initial` with zeros on the boundary, zeros
    if unset.  Raises unless it is a field of `mesh`, finite inside and within
    the working margin (`StrictFeasibilityError`, naming `initial`)."""
    if opts.initial is not None and opts.initial.mesh is not mesh:
        raise MeshError("SolverOptions.initial is a field of another mesh")
    values = np.zeros(len(mesh.nodes)) if opts.initial is None else np.array(opts.initial.values)
    bad = mesh.interior_nodes[~np.isfinite(values[mesh.interior_nodes])]
    if bad.size:
        raise ValueError(f"SolverOptions.initial is {values[bad[0]]} at node {bad[0]}, not finite")
    values[mesh.boundary_nodes] = 0.0
    if opts.initial is not None:
        check_margin(squared_norms(element_gradients(mesh, values)), FEASIBILITY_MARGIN,
                     "SolverOptions.initial")
    return values


@dataclass
class SolveResult:
    """Solution, selection, certificates, and run diagnostics.

    `stationarity` is rho; `residuals` is the per-node h-window inclusion
    residual (zero on the boundary) and `residual` its maximum.
    """

    u: Field
    zeta: np.ndarray
    inner_iterations: int
    outer_iterations: int
    energy_trace: list
    stationarity: float
    converged: bool
    residual: float
    residuals: np.ndarray
    max_iterate_value: float = 0.0
    max_iterate_gradient: float = 0.0
    breakdown: str | None = None  # message of the inner solve failure that ended the run

    @property
    def energy(self) -> float:
        return self.energy_trace[-1]


@dataclass
class _InnerStats:
    iterations: int = 0
    max_value: float = 0.0
    max_gradient: float = 0.0
    objectives: list = dataclass_field(default_factory=list)  # every accepted objective
    band: np.ndarray | None = None  # the kinks' smoothing band at the returned values


def _operator_value(mesh: Mesh, u: Field, margin: float = FEASIBILITY_MARGIN):
    """m = -grad psi / node_weight per node, grad psi taken at `margin` (raises
    `StrictFeasibilityError` past it); 0 at a boundary node of no element."""
    grad, w = psi_gradient(mesh, u, margin=margin), mesh.node_weight
    return np.divide(-grad, w, out=np.zeros_like(grad), where=w > 0.0)


def _bracket_distance(mesh: Mesh, m, lo, hi) -> np.ndarray:
    """Distance of m to [lo, hi] at the interior nodes, 0 on the boundary."""
    out, idx = np.zeros(len(mesh.nodes)), mesh.interior_nodes
    out[idx] = np.maximum(0.0, np.maximum(lo[idx] - m[idx], m[idx] - hi[idx])) + 0.0
    return out


def _weighted_distance(mesh: Mesh, m, lo, hi) -> float:
    """sum_interior w_i dist(m_i, [lo_i, hi_i]), `_bracket_distance` weighted."""
    interior = mesh.interior_nodes
    return float(np.dot(mesh.node_weight[interior], _bracket_distance(mesh, m, lo, hi)[interior]))


def windowed_envelopes(mesh: Mesh, spec: NonlinearitySpec, values):
    """Envelope arrays (lo, hi) at every node, widened to the whole jump
    interval within the mesh size h of a jump level: a piecewise-affine
    candidate crosses the level between nodes, so any bracket element may be
    the limiting selection there."""
    return envelopes(spec, mesh.nodes, values, mesh.mesh_size())


def inclusion_residual(mesh: Mesh, u: Field, spec: NonlinearitySpec,
                       margin: float = FEASIBILITY_MARGIN) -> np.ndarray:
    """Distance of the operator value m to the `windowed_envelopes` bracket.

    The inclusion holds at an interior node when m_i lies in the bracket at
    (x_i, u_i).  Returns one residual per node (zero at boundary nodes, which
    carry the Dirichlet condition instead).  Raises `StrictFeasibilityError`
    where |grad| > 1 - margin.
    """
    return _bracket_distance(mesh, _operator_value(mesh, u, margin),
                             *windowed_envelopes(mesh, spec, u.values))


def _certificate(mesh: Mesh, spec: NonlinearitySpec, values):
    """(zeta, residuals, rho, lo, hi) at `values`: residuals are the
    `inclusion_residual`, zeta is m clipped to the same windowed brackets (0
    where a bracket is not finite, as `_right_hand_side` makes the forcing),
    and [lo, hi] are the zero-window brackets that rho is measured against."""
    m = _operator_value(mesh, Field(mesh, values, dirichlet_zero=True))
    lo, hi = windowed_envelopes(mesh, spec, values)
    lo0, hi0 = envelopes(spec, mesh.nodes, values, 0.0)
    zeta = np.clip(m, lo, hi)
    zeta[~np.isfinite(zeta)] = 0.0  # where the forcing is not finite: boundary nodes only
    return zeta, _bracket_distance(mesh, m, lo, hi), _weighted_distance(mesh, m, lo0, hi0), lo0, hi0


@dataclass(frozen=True)
class _Kinks:
    """Increasing jumps as kinks sum_j jump[j] * max(0, u - level[j]), arrays
    (J, N) with J >= 0; `jump` is right - left where positive, else and on the
    boundary 0."""

    level: np.ndarray
    jump: np.ndarray

    @classmethod
    def split(cls, mesh: Mesh, spec: NonlinearitySpec):
        """(kinks, whether f minus its kinks still jumps)."""
        level, left, right = jump_limits(spec, mesh.nodes)
        jump = np.where(mesh.is_boundary, 0.0, np.maximum(right - left, 0.0))
        up = jump.any(axis=1)
        return cls(level[up], jump[up]), bool((right < left).any())

    def restricted(self, nodes):
        """The kinks at `nodes`, (J, len(nodes)): at the Newton workspace's
        coordinates with `_NewtonWorkspace.node_of`, whose dummy is a
        boundary node, so that it has no kink (jump 0)."""
        return _Kinks(self.level[:, nodes], self.jump[:, nodes])

    def subdifferential(self, values):
        """(lo, hi) per node: the kinks' subdifferential at `values`."""
        return ((self.jump * (values > self.level)).sum(axis=0),
                (self.jump * (values >= self.level)).sum(axis=0))

    def smoothed(self, values, gamma: float):
        """Moreau envelope: value and slope per node, and the (J, N) band.

        Per kink and t = u - level: 0 for t <= 0, t^2 / (2 gamma) on the band
        0 < t < gamma * jump, jump * (t - gamma * jump / 2) above it."""
        t = values - self.level
        slope = np.minimum(np.maximum(t / gamma, 0.0), self.jump)
        return ((slope * (t - 0.5 * gamma * slope)).sum(axis=0), slope.sum(axis=0),
                (t > 0.0) & (t < gamma * self.jump))


_NO_KINKS = _Kinks(np.zeros((0, 1)), np.zeros((0, 1)))  # broadcasts to any mesh


# -- per-mesh Newton workspace ---------------------------------------------------

_DISSECTION_LEAF = 64


def _nested_dissection(points: np.ndarray, graph, nodes: np.ndarray) -> np.ndarray:
    """Fill-reducing elimination order of `nodes`, vertices of a graph whose
    vertices sit at `points` and whose CSR pattern `graph.indptr`,
    `graph.indices` lists each vertex's neighbours (a mesh's `_edge_table`).

    Recursive coordinate bisection: a part is sorted along the longest axis
    of its bounding box and cut at the median; the nodes of the lower half
    that touch the upper half form the vertex separator, which is ordered
    after both halves.  Parts of at most `_DISSECTION_LEAF` nodes keep the
    order they arrive in.  Only stable sorts are used, so the order is a
    deterministic function of the coordinates and the graph.  Vertices
    outside `nodes` are in no part, so their edges never make a separator.

    The recursion runs level by level: the parts of one level lie end to end
    in one array, are sorted by one stable lexsort and cut together, and
    each part knows where its order starts, so a leaf or a separator goes
    straight to its place.
    """
    indptr, indices = graph.indptr, graph.indices
    order = np.empty(len(nodes), dtype=nodes.dtype)
    parts, sizes, starts = nodes, np.array([len(nodes)]), np.array([0])
    while True:
        label = np.repeat(np.arange(len(sizes)), sizes)
        within = np.arange(len(parts)) - (np.cumsum(sizes) - sizes)[label]
        leaf = (sizes <= _DISSECTION_LEAF)[label]
        order[starts[label[leaf]] + within[leaf]] = parts[leaf]
        big = sizes > _DISSECTION_LEAF
        if not big.any():
            return order
        parts, sizes, starts, within = parts[~leaf], sizes[big], starts[big], within[~leaf]
        label = np.repeat(np.arange(len(sizes)), sizes)
        first = np.cumsum(sizes) - sizes
        coords = points[parts]
        axis = np.argmax(np.maximum.reduceat(coords, first) - np.minimum.reduceat(coords, first),
                         axis=1)
        parts = parts[np.lexsort((coords[np.arange(len(parts)), axis[label]], label))]
        half = sizes // 2
        high = within >= half[label]
        # the neighbours of the lower halves, row by row, and their hits in
        # the upper half of the same part
        high_part = np.full(len(points), -1)
        high_part[parts[high]] = label[high]
        low, low_label = parts[~high], label[~high]
        start, degree = indptr[low], indptr[low + 1] - indptr[low]
        row = np.repeat(np.arange(len(low)), degree)
        slot = np.arange(len(row)) + np.repeat(start - (np.cumsum(degree) - degree), degree)
        touches = np.zeros(len(low), dtype=bool)
        touches[row[high_part[indices[slot]] == low_label[row]]] = True
        # a part's order is its lower half less the separator, its upper half
        # and the separator, which goes to its place now
        sep_label = low_label[touches]
        n_sep = np.bincount(sep_label, minlength=len(sizes))
        rank = np.arange(len(sep_label)) - (np.cumsum(n_sep) - n_sep)[sep_label]
        order[(starts + sizes - n_sep)[sep_label] + rank] = low[touches]
        in_separator = np.zeros(len(parts), dtype=bool)
        in_separator[np.flatnonzero(~high)[touches]] = True
        parts = parts[~in_separator]
        sizes = np.column_stack([half - n_sep, sizes - half]).ravel()
        starts = np.column_stack([starts, starts + half - n_sep]).ravel()


@dataclass(frozen=True)
class _NewtonWorkspace:
    """What every Newton step on one mesh shares.

    The interior Hessian is assembled straight into the data of a fixed CSC
    pattern (`indptr`, `indices`, the row of each slot, and `columns`)
    whose rows and columns follow `order`, the interior node ids in
    elimination order: nested dissection, or in 1D coordinate order, which
    makes the Hessian banded.  Entry (e, a, b) of the element blocks lands
    in data slot `scatter[e*nv*nv + a*nv + b]`; entries touching a boundary
    node go to the dummy slot `len(indices)`, the last of the Hessian data,
    which holds 0; `diagonal[j]` is the data slot of entry (j, j).  In 1D,
    `upper` gathers the upper band in LAPACK's layout: entry (w + i - j, j)
    of the band (w the band width) is data slot `upper[w + i - j, j]`, or the
    dummy slot outside the pattern.

    Newton runs in the workspace's coordinates: the n interior nodes in
    elimination order, then one dummy coordinate, always 0, that stands for
    every boundary node; `rank` is each node's coordinate (n on the
    boundary), so `x[rank]` is the node array of coordinates `x`, and
    `node_of` the node at each coordinate, the first boundary node at the
    dummy's.
    `gradient` is the mesh's gradient operator G on these coordinates, G's
    own data and row pointers with each column index mapped through `rank`,
    and `adjoint` its transpose, a CSC view of the same arrays: their
    products repeat G's terms one for one, in G's order, so `gradient @ x`
    has the bits of `element_gradients` (flat) of the node array `x[rank]`.
    """

    order: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    columns: np.ndarray
    scatter: np.ndarray
    diagonal: np.ndarray
    upper: np.ndarray | None
    rank: np.ndarray
    node_of: np.ndarray
    gradient: sp.csr_matrix
    adjoint: sp.csc_matrix

    def matrix(self, data) -> sp.csc_matrix:
        """The interior matrix with Hessian data `data` (dummy slot included)."""
        n = len(self.order)
        return sp.csc_matrix((data[:-1], self.indices, self.indptr), shape=(n, n))

    def sums(self, y):
        """G^T y for a flat (M*dim,) element array `y`, at the n interior
        coordinates: the bits of `gradient_adjoint` at the nodes `order`."""
        return (self.adjoint @ y)[:-1]


@per_mesh
def _newton_workspace(mesh: Mesh) -> _NewtonWorkspace:
    """The mesh's Newton workspace; in 2D and up the elimination order
    dissects the interior of the mesh's node graph (`_edge_table`), in 1D it
    sorts the interior by coordinate (stable).  The pattern holds the
    diagonal and both entries of each interior edge of `_edge_table`, and an
    element entry (a, b), a != b, finds its slot through its edge.  Raises
    `MeshError` for a node no edge path joins to the boundary (no minimum)."""
    interior = mesh.interior_nodes
    n = len(interior)
    nv = mesh.dim + 1
    edges = _edge_table(mesh)
    free = np.flatnonzero(np.isinf(_boundary_path_length(mesh)))
    if free.size:
        raise MeshError(f"node {free[0]} at {mesh.nodes[free[0]].tolist()} is in a part of the "
                        f"mesh with no boundary node")
    if mesh.dim == 1:
        order = interior[np.argsort(mesh.nodes[interior, 0], kind="stable")]
    else:
        order = _nested_dissection(mesh.nodes, edges, interior)
    rank = np.full(len(mesh.nodes), n)
    rank[order] = np.arange(n)
    ri, rj = rank[edges.ends.T]
    inner = (ri < n) & (rj < n)
    ri, rj = ri[inner], rj[inner]
    # keys column * n + row of the diagonal, the entries (i, j) and (j, i)
    keys = np.concatenate([np.arange(n) * (n + 1), rj * n + ri, ri * n + rj])
    by_key = np.argsort(keys, kind="stable")
    slots = keys[by_key]
    slot_of = np.empty(len(keys), dtype=np.int64)
    slot_of[by_key] = np.arange(len(keys))
    # the slot of each node's diagonal and of each edge's entries (i, j) and
    # (j, i); len(slots), the dummy slot, where an end is a boundary node
    diagonal_of = np.full(len(mesh.nodes), len(slots))
    diagonal_of[order] = slot_of[:n]
    forward, backward = np.full((2, len(inner)), len(slots))
    forward[inner], backward[inner] = np.split(slot_of[n:], 2)
    el = mesh.elements
    scatter = np.empty((len(el), nv, nv), dtype=np.int32)
    for a in range(nv):
        scatter[:, a, a] = diagonal_of[el[:, a]]
    for pair, (a, b) in enumerate(zip(*np.triu_indices(nv, 1))):
        edge, ascending = edges.edge_of[:, pair], el[:, a] < el[:, b]
        scatter[:, a, b] = np.where(ascending, forward[edge], backward[edge])
        scatter[:, b, a] = np.where(ascending, backward[edge], forward[edge])
    scatter = scatter.reshape(-1)
    column, row = np.divmod(slots, n)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(column, minlength=n), out=indptr[1:])
    upper = None
    if mesh.dim == 1:
        width = int((column - row).max(initial=0))
        upper = np.full((width + 1, n), len(slots))
        above = row <= column
        upper[(width + row - column)[above], column[above]] = np.flatnonzero(above)
    G = mesh.gradient_operator
    # int32 column indices, gathered from an int32 rank with no int64 copy
    gradient = sp.csr_matrix((G.data, rank.astype(np.int32)[G.indices], G.indptr),
                             shape=(G.shape[0], n + 1))
    workspace = _NewtonWorkspace(
        order=order, indptr=indptr, indices=row.astype(np.int32),
        columns=column.astype(np.int32), scatter=scatter,
        diagonal=np.flatnonzero(row == column), upper=upper, rank=rank,
        node_of=np.append(order, mesh.boundary_nodes[0]), gradient=gradient, adjoint=gradient.T)
    for arr in [*vars(workspace).values(), gradient.indices]:
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return workspace


def _step_hessian(mesh: Mesh, ws: _NewtonWorkspace, g, root, diagonal=None, fixed=None):
    """Data of a Newton step's interior matrix in `ws`'s slots, the dummy slot
    last and 0: the area Hessian at `g` (`root` as `area_gradient` returns
    it), its `area_hessian_blocks` copied to (e, a, b) order and summed into
    the slots, plus `diagonal` on the diagonal, with the rows and columns of
    the mask `fixed` (both in elimination order) replaced by the identity's."""
    blocks = area_hessian_blocks(mesh, g, root)
    data = np.bincount(ws.scatter, weights=blocks.transpose(2, 0, 1).ravel(),
                       minlength=len(ws.indices) + 1)
    data[-1] = 0.0
    if diagonal is not None:
        data[ws.diagonal] += diagonal
    if fixed is not None:
        data[np.flatnonzero(fixed[ws.indices] | fixed[ws.columns])] = 0.0
        data[ws.diagonal[fixed]] = 1.0
    return data


def _step_product(mesh: Mesh, ws: _NewtonWorkspace, g, root):
    """p -> K p for the matrix K of `_step_hessian(mesh, ws, g, root)`, the
    interior area Hessian, without assembling it: `area_hessian_product`
    through `ws.gradient` and `ws.sums`, p copied ahead of the dummy 0."""
    padded = np.zeros(len(ws.order) + 1)

    def gradient(p):
        padded[:-1] = p
        return ws.gradient @ padded
    return area_hessian_product(mesh, g, root, gradient, ws.sums)


def _factor(ws: _NewtonWorkspace, data):
    """rhs -> M^-1 rhs for the SPD interior matrix M with Hessian data `data`,
    factored once here: in 1D banded Cholesky on the band `ws.upper` gathers,
    by the factor and solve halves of the LAPACK routine
    `scipy.linalg.solveh_banded` picks, called directly (`?pttrf`/`?pttrs`,
    which make up `?ptsv`, on a band of two rows, `?pbtrf`/`?pbtrs` on the one
    row of a single interior node), else the SuperLU factor of M in
    elimination order (no column reordering, no pivoting).  The factor lives
    as long as the function."""
    if ws.upper is not None:
        band = data[ws.upper]  # outside the pattern: the dummy slot's 0
        tridiagonal = len(band) == 2
        factor, solve = get_lapack_funcs(("pttrf", "pttrs") if tridiagonal
                                         else ("pbtrf", "pbtrs"), (band,))
        *held, info = factor(*((band[1], band[0, 1:]) if tridiagonal else (band,)))
        if info > 0:
            raise LinAlgError(f"{info}-th leading minor not positive definite")
        return lambda rhs: solve(*held, rhs)[0]
    return splu(ws.matrix(data), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True)).solve


# The K0 slot, {mesh: K0^-1 as a `_factor` function}.  At most one K0 factor
# is alive per process (a disk-6 factor takes 58 MB of heap), and it goes
# with its mesh.
_K0 = weakref.WeakKeyDictionary()


def _k0_preconditioner(mesh: Mesh, ws: _NewtonWorkspace):
    """K0^-1 for the mesh, K0 = sum_e m_e B B^T the area Hessian at the zero
    field, made on first use and kept in `_K0` until another mesh needs it,
    the mesh dies or `solve_inclusion` returns."""
    if mesh not in _K0:
        _K0.clear()  # the old factor goes before the new one is made
        M = len(mesh.elements)
        _K0[mesh] = _factor(ws, _step_hessian(mesh, ws, np.zeros((M, mesh.dim)), np.ones(M)))
    return _K0[mesh]


# CG iterations a 2D Newton step may take before it factors its own Hessian.
# With K0 and the flux start, the steps of disk-6 right-hand sides a in
# [1.5, 2.5] (21 of them) need at most 6 (at most 20 from zero); on disk-4 at
# a = 30 the steps need 5, 9, 27, 65, 121, 181 and 179 (from zero 1, 7, 14,
# 34, 64, 99, 141, 186 and 185), so the fourth misses.  The held first factor
# of a kinked stage of disk-6 step(-1, 1, 0.1) needs up to 47, and one step
# there misses.
_CG_MAX_ITER = 50
_FLAT_STEPS = 3  # accepted steps in a row within the objective's roundoff end a solve
_INNER_TOL = 1e-10  # the Newton stop on the max-norm of the masked gradient
_MAX_INNER = 200  # Newton steps per inner solve
_MAX_OUTER = 100  # outer iterations of `solve_inclusion`


def _right_hand_side(mesh: Mesh, e) -> np.ndarray:
    """`e` as one value per node, 0 at the boundary nodes, whose values are
    fixed; raises ValueError unless finite at every interior node."""
    e = np.array(np.broadcast_to(np.asarray(e, dtype=float), (len(mesh.nodes),)))
    e[mesh.boundary_nodes] = 0.0
    bad = np.flatnonzero(~np.isfinite(e))
    if bad.size:
        raise ValueError(f"forcing must be finite at every interior node, got {e[bad[0]]} "
                         f"at node {bad[0]}")
    return e


# A flux start whose projection leaves the working set is scaled to this
# fraction of the working limit.
_START_SHRINK = 0.99


def _flux_start(mesh: Mesh, e: np.ndarray) -> np.ndarray:
    """Newton's default start for the finite right-hand side `e` (per node).

    phi(v) = v / sqrt(1 - |v|^2) maps the unit ball onto R^dim, with inverse
    q / sqrt(1 + |q|^2).  Where the flux is a gradient (1D, radial
    problems), the solution's flux phi(grad u) is the Poisson flux q =
    grad p, K0 p = -w e, so grad u = t = q / sqrt(1 + |q|^2).  The start is
    the L2 projection of t onto zero-boundary P1 gradients, K0 u = sum_e
    m_e B t_e, scaled to `_START_SHRINK` of the working limit when one of
    its element gradients is past it.  The two K0 solves go through the
    `_K0` slot, and both projections through the workspace's coordinates.
    A failing solve raises the InnerSolveError a failing Newton step
    raises, carrying the zero field.
    """
    ws = _newton_workspace(mesh)
    linear = (mesh.node_weight * e)[ws.order]
    if not linear.any():  # zero solves it, with no K0 factor needed
        return np.zeros(len(mesh.nodes))
    values = np.zeros(len(ws.order) + 1)  # p, then u, in the workspace's coordinates
    try:
        k0_solve = _k0_preconditioner(mesh, ws)
        values[:-1] = k0_solve(-linear)
        q = (ws.gradient @ values).reshape(-1, mesh.dim)
        t = q / np.sqrt(1.0 + squared_norms(q))[:, None]
        values[:-1] = k0_solve(ws.sums((mesh.element_measure[:, None] * t).reshape(-1)))
    except (RuntimeError, LinAlgError) as err:
        raise InnerSolveError(f"Hessian factorization failed: {err}",
                              last_values=np.zeros(len(mesh.nodes)),
                              residual=float(np.abs(linear).max())) from err
    g2 = squared_norms((ws.gradient @ values).reshape(-1, mesh.dim))
    largest, limit = float(np.sqrt(g2.max(initial=0.0))), 1.0 - FEASIBILITY_MARGIN
    if not math.isfinite(largest):  # q overflowed: no start to be had from it
        return np.zeros(len(mesh.nodes))
    if largest > limit:
        values *= _START_SHRINK * limit / largest
    return values[ws.rank]


def _solve_prescribed(mesh: Mesh, e, initial=None, kinks=_NO_KINKS, gamma=1.0, pinned=None,
                      l1_tol=math.inf, stats_sink=None):
    """Newton minimization over interior nodes of psi_h(w) + <e, w>_lumped
    plus the lumped Moreau envelopes (smoothing `gamma`) of `kinks`, given at
    the workspace's coordinates (`_Kinks.restricted`; `_NO_KINKS` broadcasts).

    Returns (values, stats), stats also put on the list `stats_sink` if given;
    `stats.band` is the kinks' smoothing band at the returned values.
    `e` is broadcast to one value per node; the start is `initial`, zero by
    default; the nodes of the boolean mask `pinned` (default: none) keep
    their initial values.  It stops at gradient norms max <= `_INNER_TOL` and
    l1 <= `l1_tol * (1 + |objective|)`, at the roundoff floor (`_FLAT_STEPS`)
    on the max-norm alone, and raises there or at `_MAX_INNER` otherwise.
    Newton runs in the workspace's coordinates (`_NewtonWorkspace`): node
    arrays are read on entry and made on exit, and the objective's lumped
    sums keep their operands in node order, so that every sum has the bits
    it has on node arrays.
    """
    ws = _newton_workspace(mesh)
    order, rank, interior = ws.order, ws.rank, mesh.interior_nodes
    limit2 = (1.0 - FEASIBILITY_MARGIN) ** 2
    lumped = mesh.node_weight * e
    linear, weight = lumped[order], mesh.node_weight[order]
    lumped, at_interior = lumped[interior], rank[interior]  # the objective's, in node order
    fixed = None if pinned is None else pinned[order]

    x = np.zeros(len(order) + 1)  # the iterate's coordinates, the dummy 0 last
    if initial is not None:
        x[:-1] = np.asarray(initial, dtype=float)[order]

    def grad_sq(coordinates):
        g = (ws.gradient @ coordinates).reshape(-1, mesh.dim)
        return g, squared_norms(g)

    stats = _InnerStats()
    if stats_sink is not None:  # before any step, so that a failed solve's steps count
        stats_sink.append(stats)

    def failure(message, residual):
        return InnerSolveError(message, last_values=x[rank], residual=residual,
                               iterations=stats.iterations)

    g, g2 = grad_sq(x)
    if (g2 > limit2).any():
        raise failure("initial iterate violates the working feasibility margin", math.inf)

    def objective(g2_local, coordinates):
        """(objective, the kinks' `smoothed` triple at `coordinates`, which the step reuses)."""
        smooth = kinks.smoothed(coordinates, gamma)
        obj = area_value(mesh, g2_local) + float(np.dot(lumped, coordinates[at_interior]))
        if kinks.level.size:  # else the sum is 0
            obj += float(np.dot(mesh.node_weight, smooth[0][rank]))
        return obj, smooth

    held = k0 = None  # the held factor (K0^-1 or the solve's last `_factor`) and K0^-1
    obj, (_, slope, band) = objective(g2, x)
    flat = 0  # accepted steps in a row that moved the objective by at most its noise
    for _ in range(_MAX_INNER + 1):
        stats.max_value = max(stats.max_value, float(np.abs(x).max()))
        stats.max_gradient = max(stats.max_gradient, float(np.sqrt(g2.max(initial=0.0))))
        stats.objectives.append(obj)
        area_grad, root = area_gradient(mesh, g, g2, ws.sums)  # the Hessian reuses root
        grad = area_grad + linear + weight * slope[:-1]
        if fixed is not None:
            grad[fixed] = 0.0
        residual = float(np.abs(grad).max()) if grad.size else 0.0
        if not math.isfinite(residual):
            raise failure("non-finite gradient encountered", residual)
        if stats.iterations == 0:
            first = residual
        if residual <= _INNER_TOL and (flat == _FLAT_STEPS
                                       or np.abs(grad).sum() <= l1_tol * (1.0 + abs(obj))):
            # at the roundoff floor the l1 stop may be out of reach
            stats.band = band[:, rank]
            return x[rank], stats
        if flat == _FLAT_STEPS:
            raise failure(f"Newton left the objective unchanged to roundoff for {flat} steps "
                          f"(residual {residual:.3e})", residual)
        if stats.iterations >= _MAX_INNER:
            raise failure(f"no convergence in {_MAX_INNER} Newton iterations "
                          f"(residual {residual:.3e})", residual)

        # The Hessian is SPD and already in elimination order; pinned nodes
        # get identity rows and columns (zero step), so it stays symmetric.
        # A kink-free, unpinned 2D solve holds K0 (away from the constraint
        # surface K0^-1 H has its spectrum in [1/r_max, 1/r_min^3]), and CG
        # on the held factor stops at the forcing of the module docstring;
        # with K0 it applies the Hessian unassembled (`_step_product`).
        # A 1D step (a band solve costs next to nothing), a kinked or pinned
        # 2D solve's first step and a CG miss factor the step's Hessian, and
        # the solve holds that factor, the old one going first (at most one
        # LU besides K0 is alive); CG on it multiplies by the assembled matrix.
        diagonal = None if kinks.level.size == 0 else weight * band[:, :-1].sum(axis=0) / gamma
        data = None
        try:
            if held is None and mesh.dim > 1 and kinks.level.size == 0 and pinned is None:
                held = k0 = _k0_preconditioner(mesh, ws)
            unmet = mesh.dim == 1 or held is None
            if not unmet:
                if held is k0:
                    step = LinearOperator((len(order),) * 2, _step_product(mesh, ws, g, root),
                                          dtype=float)
                else:
                    data = _step_hessian(mesh, ws, g, root, diagonal, fixed)
                    step = ws.matrix(data)
                direction, unmet = cg(step, -grad, rtol=min(0.1, (residual / first) ** 2),
                                      atol=0.1 * _INNER_TOL, maxiter=_CG_MAX_ITER,
                                      M=LinearOperator((len(order),) * 2, held, dtype=float))
            if unmet:
                held = None  # the old factor goes before the new one is made
                if data is None:
                    data = _step_hessian(mesh, ws, g, root, diagonal, fixed)
                held = _factor(ws, data)
                direction = held(-grad)
        except (RuntimeError, LinAlgError) as err:
            raise failure(f"Hessian factorization failed: {err}", residual) from err
        if not np.isfinite(direction).all():
            raise failure("non-finite Newton direction", residual)

        descent = float(np.dot(grad, direction))
        # sufficient decrease up to the roundoff resolution of the objective,
        # so the final Newton steps are not blocked by cancellation noise
        noise = 1e-15 * (1.0 + abs(obj))
        t = 1.0
        while True:
            cand = x.copy()
            cand[:-1] += t * direction
            g_c, g2_c = grad_sq(cand)
            if (g2_c <= limit2).all():
                obj_c, smooth_c = objective(g2_c, cand)
                if obj_c <= obj + 1e-4 * t * descent + noise:
                    break
            t *= 0.5
            if t < 1e-18:
                raise failure(f"line search stalled (residual {residual:.3e})", residual)
        flat = flat + 1 if abs(obj_c - obj) <= noise else 0
        x, g, g2, obj, (_, slope, band) = cand, g_c, g2_c, obj_c, smooth_c
        stats.iterations += 1
    raise AssertionError("unreachable")


def solve_prescribed(mesh: Mesh, e, opts: SolverOptions | None = None) -> Field:
    """Unique zero-boundary minimizer of psi_h(w) + <e, w>_lumped.

    `e` holds one right-hand-side value per node (a scalar is broadcast).
    Newton starts from `opts.initial`, or if it is unset or zero from the flux
    start (`_flux_start`: the Poisson flux mapped into the unit ball), the
    solution wherever the flux is a gradient, and stops on the max-norm
    alone.  Raises for `opts.initial` as `solve_inclusion` does, and
    `InnerSolveError`, carrying the last iterate, when Newton fails.
    """
    values = _inner_solve(mesh, e, _start(mesh, opts or SolverOptions()), _NO_KINKS, [], math.inf)
    return Field(mesh, values, dirichlet_zero=True)


_MAX_STAGES = 7  # a kinked inner solve's stages are 1 ... _MAX_STAGES - 1


def _inner_solve(mesh: Mesh, e, initial, kinks: _Kinks, stats_sink, tol):
    """Minimizer of psi_h(w) + <e, w>_lumped + the lumped kinks from `initial`
    or the flux start (module docstring), to the run's tolerance `tol`.  With
    no kinks it is one Newton solve with the l1 stop 0.1 * tol.  With kinks
    each stage gamma = 0.01 ** stage, stage = 1 ... `_MAX_STAGES` - 1, starts
    from the last stage's values and has no l1 stop.  A stage with no node in
    a smoothing band is exact; a pinned one is accepted by rho's gate, with
    the kinks' subdifferential as the bracket and tol * (1 + |its last
    objective|).  A failed solve skips its stage; the last stage's failure is
    raised with the last values solved.  Raises ValueError unless `e` is finite."""
    e = _right_hand_side(mesh, e)
    values = initial if initial[mesh.interior_nodes].any() else _flux_start(mesh, e)
    if kinks.level.size == 0:
        return _solve_prescribed(mesh, e, initial=values, l1_tol=0.1 * tol,
                                 stats_sink=stats_sink)[0]
    at = kinks.restricted(_newton_workspace(mesh).node_of)  # once for every stage
    for stage in range(1, _MAX_STAGES):
        gamma = 0.01 ** stage
        try:
            values, stats = _solve_prescribed(mesh, e, initial=values, kinks=at, gamma=gamma,
                                              stats_sink=stats_sink)
            band = stats.band
            pinned = band.any(axis=0)
            if not pinned.any():
                return values
            trial = np.where(pinned, kinks.level[band.argmax(axis=0), np.arange(len(values))], values)
            trial, stats = _solve_prescribed(mesh, e, initial=trial, kinks=at, gamma=gamma,
                                             pinned=pinned, stats_sink=stats_sink)
        except InnerSolveError as err:  # e.g. a roundoff floor, or pinning left the feasible set
            if stage == _MAX_STAGES - 1:
                err.last_values = values
                raise
            continue  # from the last values solved: smaller band next
        m = _operator_value(mesh, Field(mesh, trial, dirichlet_zero=True)) - e
        if (_weighted_distance(mesh, m, *kinks.subdifferential(trial))
                <= tol * (1.0 + abs(stats.objectives[-1]))):
            return trial
        values = trial  # the next stage starts from the pinned solution
    return values


def _escape_probe(mesh, spec, u, I_u, zeta, certificate, kinks, stats_sink, tol):
    """(values, energy) of the lowest strictly improving probe at a stall, or None.

    The probes are the two zero-window envelope selections lo and hi of the
    `_certificate` record at u, less the kinks' slopes; each is solved by
    `_inner_solve` (tolerance `tol`) from u unless it equals the current
    selection `zeta` at every interior node.  At the zero field with no kinks
    and hi = -lo, psi being even makes the hi probe the mirror image of a
    solved lo probe, so it is not solved again.  They may reach different
    critical points, so the lower energy wins (lo on a tie).  When every
    probe that ran failed, the last failure is raised: no fixed point.
    """
    lo, hi = certificate[3:]
    kink_slope = kinks.subdifferential(u)[0]
    interior = mesh.interior_nodes
    probes = [e for e in (lo - kink_slope, hi - kink_slope)
              if not np.array_equal(e[interior], zeta[interior])]
    mirror = (len(probes) == 2 and not u.any() and kinks.level.size == 0
              and np.array_equal(hi[interior], -lo[interior]))
    lowest, failures, solved = None, [], []
    for e in probes:
        if mirror and solved:
            vals = 0.0 - solved[0]  # 0.0 - keeps the boundary zeros at +0.0
        else:
            try:
                vals = _inner_solve(mesh, e, u, kinks, stats_sink, tol)
            except InnerSolveError as err:
                failures.append(err)
                continue
            solved.append(vals)
        I_v = total_energy(mesh, Field(mesh, vals, dirichlet_zero=True), spec)
        if I_v < I_u - 1e-12 and (lowest is None or I_v < lowest[1]):
            lowest = (vals, I_v)
    if probes and len(failures) == len(probes):
        raise failures[-1]
    return lowest


def solve_inclusion(mesh: Mesh, spec: NonlinearitySpec,
                    opts: SolverOptions | None = None) -> SolveResult:
    """Outer selection fixed point for the differential inclusion.

    Iterates u_{k+1} = inner-solve(rest selection(u_k)) from the initial
    field (zero by default), see the module docstring, until successive
    selections agree, or successive iterates agree with rho within its gate,
    and no escape probe improves the energy, or until `_MAX_OUTER`
    iterations (then with converged=False).  An inner solve failure ends
    the loop at its last iterate, and a stall whose escape probes all fail
    is no fixed point; either sets `breakdown`.  Raises ValueError for a
    forcing or an `initial` not finite at an interior node, and
    `StrictFeasibilityError` (a ValueError naming `initial`) before the loop
    for an `initial` past the working margin.
    """
    opts = opts or SolverOptions()
    u = _start(mesh, opts)
    kinks, rest_jumps = _Kinks.split(mesh, spec)
    interior = mesh.interior_nodes
    stats_all = []

    def rest_selection(values):
        # f's selection less the kinks' at the same rule: on a kink's level
        # the rest is continuous, with the value of f just below the level
        zeta = selection(spec, mesh.nodes, values, opts.selection_rule)
        k_lo, k_hi = kinks.subdifferential(values)
        return zeta - {"lo": k_lo, "hi": k_hi, "mid": 0.5 * (k_lo + k_hi)}[opts.selection_rule]

    I_u = total_energy(mesh, Field(mesh, u, dirichlet_zero=True), spec)
    trace = [I_u]
    fixed_point, breakdown, outer = False, None, 0
    try:
        zeta = rest_selection(u)
        while outer < _MAX_OUTER and breakdown is None:
            outer += 1
            try:
                cand = _inner_solve(mesh, zeta, u, kinks, stats_all, opts.outer_tol)
            except InnerSolveError as err:  # the certificate judges its last iterate
                cand, breakdown = err.last_values, str(err)
            step = float(np.abs(cand - u).max())
            zeta, previous = rest_selection(cand), zeta
            u = cand
            I_u = total_energy(mesh, Field(mesh, u, dirichlet_zero=True), spec)
            trace.append(I_u)
            moved = not np.array_equal(zeta[interior], previous[interior])
            if step <= opts.outer_tol or not moved:
                certificate = _certificate(mesh, spec, u)
                if moved and certificate[2] > opts.outer_tol * (1.0 + abs(I_u)):
                    continue  # a small step alone is no fixed point short of the gate
                improved = rest_jumps and _escape_probe(mesh, spec, u, I_u, zeta, certificate,
                                                        kinks, stats_all, opts.outer_tol)
                if not improved:
                    fixed_point = True
                    break
                u, I_u = improved
                trace.append(I_u)
                zeta = rest_selection(u)
    except InnerSolveError as err:  # every escape probe of a stall failed: no fixed point
        breakdown = str(err)
    finally:
        # A K0 factor kept past the solve would live through the caller's
        # post-processing and fragment the heap for the next mesh's factor.
        _K0.clear()

    if not fixed_point:  # _MAX_OUTER or a failure ended the loop: certify this u
        certificate = _certificate(mesh, spec, u)
    zeta, residuals, rho = certificate[:3]
    return SolveResult(
        u=Field(mesh, u, dirichlet_zero=True), zeta=zeta,
        inner_iterations=sum(s.iterations for s in stats_all),
        outer_iterations=outer, energy_trace=trace, stationarity=rho,
        converged=fixed_point and rho <= opts.outer_tol * (1.0 + abs(I_u)),
        residual=float(residuals[interior].max(initial=0.0)), residuals=residuals,
        max_iterate_value=max([s.max_value for s in stats_all], default=0.0),
        max_iterate_gradient=max([s.max_gradient for s in stats_all], default=0.0),
        breakdown=breakdown)


def stationarity_measure(mesh: Mesh, u: Field, spec: NonlinearitySpec) -> float:
    """rho at u (module docstring), what `solve_inclusion` reports as
    `stationarity`: zero exactly when m lies in every zero-window bracket."""
    return _certificate(mesh, spec, u.values)[2]
