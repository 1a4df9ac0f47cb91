"""Simplicial meshes with P1 element gradients and lumped node weights.

Built-in generators cover intervals, triangulated rectangles, and disks
(midpoint refinement of an inscribed hexagon, boundary nodes kept exactly
on the circle).  External meshes are exchanged through a small text format,
see `read_mesh` / `write_mesh`.  Trial fields for the certificates (random
feasible fields, distance cones) live here too: they need only the mesh
geometry and element gradients.

Element gradients are one sparse mat-vec: each mesh carries its gradient
operator G, the CSR matrix of shape (M*dim, K) whose row e*dim + k holds
the basis gradients B[e, v, k] at the columns elements[e, v], stored in
vertex order v = 0..dim.  `element_gradients` is the one reader of G, whose
row sums add B_0 x_0 + B_1 x_1 + ... left to right, the bits of the
per-vertex sum.

A mesh is immutable after construction and safe to share across threads,
apart from its cache of derived data (`per_mesh`): filled on first use, it
lives and dies with the mesh and is left out of its pickle.  Apart from the
random draws of the trial fields, all operations here are pure functions of
their arguments.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.sparse as sp


class MeshError(ValueError):
    """Invalid mesh data (degenerate element, bad index, ...)."""


class MeshFormatError(MeshError):
    """Malformed mesh file; message carries the offending line number."""


class Mesh:
    """Simplicial mesh of an open bounded domain with marked boundary nodes.

    Parameters
    ----------
    nodes : array_like, shape (K, dim) or (K,)
        Node coordinates.  A 1D array is treated as K points on the line.
    elements : array_like, shape (M, dim+1)
        Node indices of each simplex.
    boundary_nodes : iterable of int
        Indices of the nodes lying on the domain boundary.

    Attributes
    ----------
    dim : int
        Spatial dimension (1, 2 or 3).
    element_measure : ndarray, shape (M,)
        Length / area / volume of each simplex.
    node_weight : ndarray, shape (K,)
        Lumped quadrature weight: each element contributes measure/(dim+1)
        to each of its vertices.  Weights sum to the domain volume.
    basis_gradients : ndarray, shape (M, dim+1, dim)
        Gradient of each vertex's barycentric coordinate on each element.
    gradient_operator : scipy.sparse.csr_matrix, shape (M*dim, K)
        The element gradient operator G (module docstring), read-only, in
        vertex order: never sorted or summed, which would change its bits.
    """

    def __init__(self, nodes, elements, boundary_nodes):
        nodes = np.array(nodes, dtype=float)
        if nodes.ndim == 1:
            nodes = nodes.reshape(-1, 1)
        self.nodes = nodes
        self.dim = nodes.shape[1]
        if self.dim not in (1, 2, 3):
            raise MeshError(f"unsupported spatial dimension {self.dim}")
        bad = np.flatnonzero(~np.isfinite(nodes).all(axis=1))
        if bad.size:
            raise MeshError(f"node {bad[0]} has a non-finite coordinate {nodes[bad[0]].tolist()}")

        elements = np.array(elements, dtype=np.int64)
        if elements.size == 0:
            elements = elements.reshape(0, self.dim + 1)
        if elements.ndim != 2 or elements.shape[1] != self.dim + 1:
            raise MeshError(
                f"elements must be (M, {self.dim + 1}) for dim {self.dim}, "
                f"got {elements.shape}"
            )
        if elements.size and (elements.min() < 0 or elements.max() >= len(nodes)):
            raise MeshError("element references a node index out of range")
        self.elements = elements

        boundary = np.array(sorted(set(int(i) for i in boundary_nodes)), dtype=np.int64)
        if boundary.size and (boundary.min() < 0 or boundary.max() >= len(nodes)):
            raise MeshError("boundary node index out of range")
        if self.dim == 1 and boundary.size != 2:
            raise MeshError("a 1D mesh must have exactly two boundary nodes")
        self.boundary_nodes = boundary
        mask = np.zeros(len(nodes), dtype=bool)
        mask[boundary] = True
        self.is_boundary = mask
        self.interior_nodes = np.flatnonzero(~mask)

        self._build_geometry()
        unused = np.flatnonzero((np.bincount(elements.ravel(), minlength=len(nodes)) == 0) & ~mask)
        if unused.size:
            raise MeshError(f"interior node {unused[0]} at {nodes[unused[0]].tolist()} "
                            f"belongs to no element")
        for arr in (self.nodes, self.elements, self.boundary_nodes, self.is_boundary,
                    self.interior_nodes, self.element_measure, self.node_weight,
                    self.basis_gradients):
            arr.setflags(write=False)

    def _build_geometry(self):
        n = self.dim
        p0 = self.nodes[self.elements[:, 0]]
        # edge matrix D has columns p_j - p_0; gradients of the barycentric
        # coordinates are the rows of D^{-1}
        D = np.stack([self.nodes[self.elements[:, j]] - p0 for j in range(1, n + 1)], axis=2)
        det = np.linalg.det(D)
        measure = np.abs(det) / math.factorial(n)
        if np.any(measure <= 0.0) or not np.all(np.isfinite(measure)):
            bad = int(np.argmin(measure))
            raise MeshError(f"element {bad} is degenerate (measure {measure[bad]:g})")
        self.element_measure = measure

        Dinv = np.linalg.inv(D)
        grads = np.empty((len(self.elements), n + 1, n))
        grads[:, 1:, :] = Dinv  # rows of D^{-1} are grad(lambda_j), j = 1..n
        grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
        self.basis_gradients = grads

        M, nv = self.elements.shape
        G = sp.csr_matrix(
            (np.ascontiguousarray(grads.transpose(0, 2, 1)).reshape(-1),
             np.broadcast_to(self.elements[:, None, :], (M, n, nv)).reshape(-1),
             np.arange(0, M * n * nv + 1, nv)),
            shape=(M * n, len(self.nodes)))
        for arr in (G.data, G.indices, G.indptr):
            arr.setflags(write=False)
        self.gradient_operator = G

        weight = np.zeros(len(self.nodes))
        np.add.at(weight, self.elements, (measure / (n + 1))[:, None])
        self.node_weight = weight

    # -- derived scalars ---------------------------------------------------

    def volume(self):
        """Total measure of the meshed domain."""
        return float(self.element_measure.sum())

    def mesh_size(self):
        """Longest element edge, the discretization parameter h."""
        return _mesh_size(self)

    def __getstate__(self):
        return {k: v for k, v in vars(self).items() if k != "_derived"}

    def __repr__(self):
        return (f"Mesh(dim={self.dim}, nodes={len(self.nodes)}, "
                f"elements={len(self.elements)}, boundary={len(self.boundary_nodes)})")


class Field:
    """Nodal values of a continuous piecewise-affine function on a mesh.

    With ``dirichlet_zero=True`` the constructor enforces exact zeros at
    every boundary node.
    """

    def __init__(self, mesh: Mesh, values, dirichlet_zero: bool = False):
        values = np.array(values, dtype=float)
        if values.shape != (len(mesh.nodes),):
            raise MeshError(
                f"field has {values.shape} values for {len(mesh.nodes)} nodes"
            )
        if dirichlet_zero and np.any(values[mesh.boundary_nodes] != 0.0):
            raise MeshError("dirichlet_zero field has a nonzero boundary value")
        self.mesh = mesh
        self.values = values
        self.dirichlet_zero = dirichlet_zero
        values.setflags(write=False)

    @classmethod
    def zero(cls, mesh: Mesh) -> "Field":
        return cls(mesh, np.zeros(len(mesh.nodes)), dirichlet_zero=True)

    @classmethod
    def from_function(cls, mesh: Mesh, fn, dirichlet_zero: bool = False) -> "Field":
        """Evaluate ``fn`` once on the (K, d) node array: K values or a scalar."""
        vals = np.array(fn(mesh.nodes), dtype=float)
        if vals.ndim == 0:
            vals = np.full(len(mesh.nodes), vals)
        elif vals.shape != (len(mesh.nodes),):
            raise MeshError(f"fn returned shape {vals.shape} for {len(mesh.nodes)} nodes")
        if dirichlet_zero:
            vals[mesh.boundary_nodes] = 0.0
        return cls(mesh, vals, dirichlet_zero=dirichlet_zero)

    def __repr__(self):
        return f"Field(nodes={len(self.values)}, dirichlet_zero={self.dirichlet_zero})"


# -- generators --------------------------------------------------------------


def build_interval_mesh(a: float, b: float, n: int) -> Mesh:
    """Uniform mesh of the interval (a, b) with n elements.

    The two endpoints are the boundary nodes.
    """
    if n < 1:
        raise MeshError(f"need at least one element, got n={n}")
    if not a < b:
        raise MeshError(f"empty interval: a={a!r} must be < b={b!r}")
    nodes = np.linspace(a, b, n + 1).reshape(-1, 1)
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return Mesh(nodes, elements, [0, n])


def build_rectangle_mesh(lx: float, ly: float, nx: int, ny: int) -> Mesh:
    """Triangulated rectangle (0, lx) x (0, ly), each cell split in two."""
    if lx <= 0 or ly <= 0:
        raise MeshError(f"rectangle sides must be positive, got {lx} x {ly}")
    if nx < 1 or ny < 1:
        raise MeshError(f"subdivision counts must be positive, got {nx} x {ny}")
    x, y = np.meshgrid(np.linspace(0.0, lx, nx + 1), np.linspace(0.0, ly, ny + 1))
    idx = np.arange(x.size).reshape(x.shape)  # node (i, j) is idx[j, i]
    v00, v10, v01, v11 = idx[:-1, :-1], idx[:-1, 1:], idx[1:, :-1], idx[1:, 1:]
    # each cell, row by row, gives (v00, v10, v11) then (v00, v11, v01)
    elements = np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)
    boundary = np.setdiff1d(idx, idx[1:-1, 1:-1])
    return Mesh(np.column_stack([x.ravel(), y.ravel()]), elements, boundary)


def build_disk_mesh(radius: float, refinement: int) -> Mesh:
    """Triangulated disk of the given radius centered at the origin.

    Starts from a hexagon fan and applies `refinement` rounds of midpoint
    subdivision; midpoints of rim edges are pushed back onto the circle, so
    all boundary nodes lie exactly on it.  The covered polygon is inscribed
    in the disk and its area converges to pi*radius^2.
    """
    if radius <= 0:
        raise MeshError(f"disk radius must be positive, got {radius}")
    if refinement < 0:
        raise MeshError(f"refinement must be >= 0, got {refinement}")
    nodes = np.array([(0.0, 0.0)] + [(radius * math.cos(math.pi * k / 3.0),
                                      radius * math.sin(math.pi * k / 3.0)) for k in range(6)])
    elements = np.array([(0, 1 + k, 1 + (k + 1) % 6) for k in range(6)])
    boundary = [np.arange(1, 7)]
    for _ in range(refinement):
        # edges (a, b), (b, c), (c, a) of every element; new nodes are
        # numbered in the order their edges first appear
        edges = np.sort(elements[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        _, first, edge_of, count = np.unique(edges[:, 0] * len(nodes) + edges[:, 1],
                                             return_index=True, return_inverse=True,
                                             return_counts=True)
        order = np.argsort(first)
        number = len(nodes) + np.argsort(order)
        mids = 0.5 * (nodes[edges[first[order], 0]] + nodes[edges[first[order], 1]])
        # a rim edge belongs to one element; its midpoint goes onto the circle
        rim = count[order] == 1
        mids[rim] *= (radius / np.hypot(*mids[rim].T))[:, None]
        boundary.append(len(nodes) + np.flatnonzero(rim))
        nodes = np.vstack([nodes, mids])
        (a, b, c), (ab, bc, ca) = elements.T, number[edge_of].reshape(-1, 3).T
        elements = np.column_stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca]).reshape(-1, 3)
    return Mesh(nodes, elements, np.concatenate(boundary))


# -- derived data ----------------------------------------------------------------


def per_mesh(build):
    """Decorator: `build(mesh)` runs on a mesh's first call, and later calls
    return its value, kept in the mesh so that it dies with it.  The value
    should not refer to the mesh, which would keep both alive until the
    cycle collector runs.  Two threads that ask at once may both build it;
    the values are equal."""
    @functools.wraps(build)
    def cached(mesh):
        derived = vars(mesh).setdefault("_derived", {})
        if build not in derived:
            derived[build] = build(mesh)
        return derived[build]
    return cached


@per_mesh
def _mesh_size(mesh: Mesh) -> float:
    """`Mesh.mesh_size`, computed once per mesh."""
    a, b = np.triu_indices(mesh.dim + 1, 1)
    e = mesh.nodes[mesh.elements[:, a]] - mesh.nodes[mesh.elements[:, b]]
    return float(np.sqrt((e * e).sum(axis=-1)).max())


# -- element-level evaluation -------------------------------------------------


def element_gradients(mesh: Mesh, values) -> np.ndarray:
    """Per-element P1 gradients of a nodal value vector, shape (M, dim)."""
    values = np.asarray(values, dtype=float)
    return (mesh.gradient_operator @ values).reshape(-1, mesh.dim)


def squared_norms(g) -> np.ndarray:
    """Per-element |g|^2 of element gradients `g` (M, dim): the bits of numpy's
    `sum(axis=1)` of `g * g` (a short axis adds left to right), without its reduce."""
    return sum((g[:, k] * g[:, k] for k in range(1, g.shape[1])), g[:, 0] * g[:, 0])


def _largest_norm(g) -> float:
    """Largest row norm of element gradients `g` (M, dim), 0 without rows."""
    return float(np.sqrt(squared_norms(g).max())) if len(g) else 0.0


def max_gradient_norm(mesh: Mesh, values) -> float:
    """Largest element gradient norm of a nodal value vector (0 without elements)."""
    return _largest_norm(element_gradients(mesh, values))


def inradius(mesh: Mesh) -> float:
    """Largest distance from an interior node to the nearest boundary node.

    For a field with per-element gradient norms <= 1 and zero boundary
    values, |v| at any interior node is bounded by this constant (straight
    segments to the boundary cross elements of slope at most one), so it
    serves as the discrete uniform bound on the feasible set.
    """
    return float(_boundary_distance(mesh).max(initial=0.0))


@per_mesh
def _boundary_distance(mesh: Mesh) -> np.ndarray:
    """Distance from each interior node to the nearest boundary node, read-only:
    one sweep over the boundary nodes per mesh, O(interior x boundary).  The
    squared distance adds (x_0 - b_0)^2 + (x_1 - b_1)^2 + ... left to right
    and the square root is taken of the least one."""
    x = np.ascontiguousarray(mesh.nodes[mesh.interior_nodes].T)
    diff = np.empty_like(x)
    least = np.full(x.shape[1], np.inf)
    for b in mesh.nodes[mesh.boundary_nodes]:
        np.subtract(x, b[:, None], out=diff)
        np.multiply(diff, diff, out=diff)
        np.minimum(least, diff.sum(axis=0), out=least)
    dist = np.sqrt(least)
    dist.setflags(write=False)
    return dist


# -- trial fields --------------------------------------------------------------

@per_mesh
def _adjacency(mesh: Mesh):
    """Node adjacency matrix (ones on element edges) and node degrees, read-only:
    the graph of the trial fields and of the solver's elimination order."""
    nv = mesh.dim + 1
    rows = np.repeat(mesh.elements, nv, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, nv)).ravel()
    edge = rows != cols
    n = len(mesh.nodes)
    A = sp.csr_matrix((np.ones(edge.sum()), (rows[edge], cols[edge])), shape=(n, n))
    A.data[:] = 1.0
    deg = np.maximum(A @ np.ones(n), 1.0)
    for arr in (A.data, A.indices, A.indptr, deg):
        arr.setflags(write=False)
    return A, deg


@per_mesh
def _smoother(mesh: Mesh):
    """One smoothing step of the trial fields as a read-only CSR matrix,
    S = (I + D^-1 A) / 2 on the node graph (`_adjacency`), whose boundary
    rows are empty: S v averages each interior node with the mean of its
    neighbours and is zero on the boundary."""
    A, deg = _adjacency(mesh)
    keep = 0.5 * ~mesh.is_boundary
    S = (sp.diags(keep / deg) @ A + sp.diags(keep)).tocsr()
    S.eliminate_zeros()
    for arr in (S.data, S.indices, S.indptr):
        arr.setflags(write=False)
    return S


def _random_trial(mesh: Mesh, rng, max_gradient: float):
    """(values, gradients) of `random_feasible_field`, which draws the same
    numbers: normal node values, 0..8 smoothing steps (`_smoother`), at odds
    0.3 rectified to one random sign, zero on the boundary, divided by their
    largest element gradient norm unless zero (no interior node), times the
    amplitude max_gradient * 10^U(-3, 0).  The gradients (M, dim) are those
    of the one product G v that finds the norm, scaled with the values."""
    S = _smoother(mesh)
    v = rng.standard_normal(len(mesh.nodes))
    for _ in range(int(rng.integers(0, 9))):
        v = S @ v
    if rng.random() < 0.3:
        v = np.abs(v) * (1.0 if rng.random() < 0.5 else -1.0)
    v[mesh.boundary_nodes] = 0.0
    g = element_gradients(mesh, v)
    gmax = _largest_norm(g)
    if gmax > 0.0:
        v, g = v / gmax, g / gmax
    scale = max_gradient * 10.0 ** rng.uniform(-3.0, 0.0)
    return v * scale, g * scale


def random_feasible_field(mesh: Mesh, rng, max_gradient: float = 0.9) -> Field:
    """Random zero-boundary field with element gradient norms <= max_gradient.

    Smooth random bumps (neighbor-averaged noise, occasionally rectified to
    a single sign) rescaled until the gradient bound holds; the amplitude is
    drawn log-uniformly so both tiny and near-maximal trial fields appear.
    """
    return Field(mesh, _random_trial(mesh, rng, max_gradient)[0], dirichlet_zero=True)


def boundary_distance_cone(mesh: Mesh, max_gradient: float = 0.9) -> Field:
    """Distance-to-boundary-nodes field rescaled to the given gradient bound."""
    vals = np.zeros(len(mesh.nodes))
    vals[mesh.interior_nodes] = _boundary_distance(mesh)
    gmax = max_gradient_norm(mesh, vals)
    if gmax > 0.0:
        vals *= max_gradient / gmax
    return Field(mesh, vals, dirichlet_zero=True)


# -- text format --------------------------------------------------------------


def write_mesh(mesh: Mesh, path) -> None:
    """Write a mesh in the plain-text exchange format."""
    with open(path, "w") as fh:
        fh.write(f"dim {mesh.dim}\nnodes {len(mesh.nodes)}\n")
        np.savetxt(fh, mesh.nodes, fmt="%.17g")
        fh.write(f"elements {len(mesh.elements)}\n")
        np.savetxt(fh, mesh.elements, fmt="%d")
        fh.write("boundary\n" + " ".join(str(int(i)) for i in mesh.boundary_nodes) + "\n")


def read_mesh(path) -> Mesh:
    """Read a mesh written by `write_mesh`.

    Format: ``dim N``; ``nodes K`` followed by K coordinate lines;
    ``elements M`` followed by M 0-based index lines; ``boundary`` followed
    by one line of indices.  ``#`` starts a comment; blank lines are
    ignored.  Malformed input raises `MeshFormatError` naming the line.
    """
    with open(path) as fh:
        raw = fh.readlines()
    lines = []  # (lineno, tokens)
    for no, text in enumerate(raw, start=1):
        text = text.split("#", 1)[0].strip()
        if text:
            lines.append((no, text.split()))
    pos = 0

    def take(what):
        nonlocal pos
        if pos >= len(lines):
            last = raw and len(raw) or 1
            raise MeshFormatError(f"line {last}: unexpected end of file, expected {what}")
        item = lines[pos]
        pos += 1
        return item

    def keyword_count(word):
        no, toks = take(f"'{word} <count>'")
        if toks[0] != word or len(toks) != 2:
            raise MeshFormatError(f"line {no}: expected '{word} <count>', got {' '.join(toks)!r}")
        try:
            if int(toks[1]) >= 0:
                return int(toks[1])
        except ValueError:
            pass
        raise MeshFormatError(f"line {no}: bad count {toks[1]!r}")

    def numbers(no, toks, what):
        """Line `no` as coordinates (floats) or as node indices (ints in range)."""
        kind = float if what == "coordinate" else int
        try:
            values = [kind(t) for t in toks]
        except ValueError:
            raise MeshFormatError(f"line {no}: bad {what} in {' '.join(toks)!r}") from None
        for j in values if kind is int else ():
            if not 0 <= j < n_nodes:
                raise MeshFormatError(f"line {no}: {what} {j} out of range [0, {n_nodes})")
        return values

    dim = keyword_count("dim")
    if dim not in (1, 2, 3):
        raise MeshFormatError(f"unsupported dim {dim}")
    n_nodes = keyword_count("nodes")
    nodes = np.empty((n_nodes, dim))
    for i in range(n_nodes):
        no, toks = take("a coordinate line")
        if len(toks) != dim:
            raise MeshFormatError(f"line {no}: expected {dim} coordinates, got {len(toks)}")
        nodes[i] = numbers(no, toks, "coordinate")

    n_el = keyword_count("elements")
    elements = np.empty((n_el, dim + 1), dtype=np.int64)
    for i in range(n_el):
        no, toks = take("an element line")
        if len(toks) != dim + 1:
            raise MeshFormatError(f"line {no}: expected {dim + 1} node indices, got {len(toks)}")
        elements[i] = numbers(no, toks, "node index")

    no, toks = take("'boundary'")
    if toks != ["boundary"]:
        raise MeshFormatError(f"line {no}: expected 'boundary', got {' '.join(toks)!r}")
    boundary = []
    if pos < len(lines):
        boundary = numbers(*take("a boundary index line"), "boundary index")
    if pos < len(lines):
        no, toks = lines[pos]
        raise MeshFormatError(f"line {no}: trailing content {' '.join(toks)!r}")
    return Mesh(nodes, elements, boundary)
