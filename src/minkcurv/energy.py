"""The gradient-constrained area energy, the potential term, and their sum.

The area-type functional is evaluated exactly per element (P1 gradients are
constant) by one kernel: its integrand `area_integrand`, summed by
`area_value`, and `area_gradient`, `area_hessian_product` and
`area_hessian_blocks`.  The gradient's and the product's nodal sums go
through the mesh's gradient operator G and its transpose
(`element_gradients`, `gradient_adjoint`), or through the pair a caller
passes in their place (the solver's restriction of G to its interior
coordinates), so the Hessian applies to a vector without being assembled;
the blocks are what the solver assembles where it factors.  The potential
term is evaluated by lumped vertex quadrature, so its partial derivative at
a node is node_weight * f(x_i, u_i) wherever f is continuous.
Infeasibility is a functional value: outside the constraint set the energy
is +inf, never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import (Field, Mesh, element_gradients, gradient_adjoint, inradius, per_mesh,
                   squared_norms)
# `primitive` is no longer called here; it stays a module attribute because
# bench/worker.py wraps energy.primitive when it traces a run.
from .nonlinearity import NonlinearitySpec, primitive, primitive_array  # noqa: F401

# Newton's iterates and every certificate stay at |grad| <= 1 - FEASIBILITY_MARGIN
FEASIBILITY_MARGIN = 1e-12


class StrictFeasibilityError(ValueError):
    """A gradient was requested too close to the constraint surface; `name`,
    if given, names the field at the start of the message."""

    def __init__(self, element: int, gradient_norm: float, margin: float, name: str = ""):
        super().__init__(
            f"{name + ': ' if name else ''}element {element} has |grad| = {gradient_norm:.17g} "
            f"> 1 - {margin:g}; gradients are only defined strictly inside "
            f"the unit ball")
        self.element = element
        self.gradient_norm = gradient_norm
        self.margin = margin


def check_margin(g2, margin: float, name: str = "") -> None:
    """Raise `StrictFeasibilityError` (for the field `name`) at the largest
    element gradient if some |g|^2 in `g2` exceeds (1 - margin)^2."""
    if np.any(g2 > (1.0 - margin) ** 2):
        bad = int(np.argmax(g2))
        raise StrictFeasibilityError(bad, float(np.sqrt(g2[bad])), margin, name)


@dataclass(frozen=True)
class EnergyBounds:
    """Uniform constants implied by the growth bound on the feasible set.

    c_omega bounds |v| on the feasible set, C1 bounds |f(x, v)|, C2 bounds
    |F(x, v)|, and lower_bound = -C2 * vol is a floor for the total energy.
    """

    c_omega: float
    C1: float
    C2: float
    lower_bound: float


def area_integrand(g2):
    """The area integrand 1 - sqrt(1 - |g|^2) of |g|^2 `g2`, 1 past |g| = 1."""
    return 1.0 - np.sqrt(np.maximum(0.0, 1.0 - g2))


def area_value(mesh: Mesh, g2) -> float:
    """Unchecked area term sum measure * `area_integrand`; `g2` is |g|^2 (M,)."""
    return float(np.dot(mesh.element_measure, area_integrand(g2)))


def _per_component(a, dim):
    """`np.repeat(a, dim)`: the per-element array `a` (M,) at every component
    of a flat (M*dim,) element array, by dim strided copies (`a` in 1D)."""
    if dim == 1:
        return a
    out = np.empty(len(a) * dim)
    for k in range(dim):
        out[k::dim] = a
    return out


def area_gradient(mesh: Mesh, g, g2, adjoint=None):
    """Unchecked nodal area gradient from element gradients `g` (M, dim), |g| < 1.

    Returns (gradient, root): the gradient is G^T((measure / r) g)
    (`gradient_adjoint`, or `adjoint` applied to that flat (M*dim,) array),
    with r = sqrt(1 - |g|^2), which the Newton Hessian
    (`area_hessian_product`, `area_hessian_blocks`) reuses.
    """
    root = np.sqrt(1.0 - g2)
    adjoint = adjoint or (lambda y: gradient_adjoint(mesh, y))
    return adjoint(_per_component(mesh.element_measure / root, mesh.dim) * g.reshape(-1)), root


def area_hessian_product(mesh: Mesh, g, root, gradient=None, adjoint=None):
    """The area Hessian at element gradients `g` (M, dim), with `root` as
    `area_gradient` returns it, as a function p -> H p, without assembly:
    H p = G^T[(m/r) q + (m/r^3)(g . q) g], q = G p, m the element measures.

    G p and G^T are `gradient(p)` and `adjoint`, both on flat (M*dim,)
    element arrays; by default `element_gradients` and `gradient_adjoint`,
    so that p holds node values.  Each element step runs on flat arrays,
    with the products of (g . q) summed over k left to right."""
    dim, flat = mesh.dim, g.reshape(-1)
    weight = mesh.element_measure / root
    tilt = _per_component(weight / (root * root), dim) * flat  # (m / r^3) g
    weight = _per_component(weight, dim)
    gradient = gradient or (lambda p: element_gradients(mesh, p).reshape(-1))
    adjoint = adjoint or (lambda y: gradient_adjoint(mesh, y))

    def product(p):
        q = gradient(p)
        tilted = tilt * q
        along = tilted[::dim]  # (m / r^3)(g . q), then copied to every k
        for k in range(1, dim):
            along += tilted[k::dim]
        for k in range(1, dim):
            tilted[k::dim] = along
        tilted *= flat
        q *= weight
        q += tilted
        return adjoint(q)
    return product


@per_mesh
def _stiffness(mesh: Mesh) -> np.ndarray:
    """B B^T per element (B the basis gradients), element last and read-only:
    entry (a, b) of element e is `_stiffness(mesh)[a, b, e]`."""
    Bt = np.ascontiguousarray(mesh.basis_gradients.transpose(2, 1, 0))  # (dim, nv, M)
    stiffness = sum(Bd[:, None] * Bd[None, :] for Bd in Bt)
    stiffness.setflags(write=False)
    return stiffness


def area_hessian_blocks(mesh: Mesh, g, root) -> np.ndarray:
    """The area Hessian's element blocks at element gradients `g` (M, dim),
    with `root` as `area_gradient` returns it, element last (nv, nv, M):
    measure * (B B^T / r + (B g)(B g)^T / r^3), B g (M, nv) the basis
    gradients applied to `g`, summed over d left to right.  Each product
    runs over all elements at once."""
    m = mesh.element_measure
    Bg = 0.0
    for d in range(mesh.dim):
        Bg = Bg + mesh.basis_gradients[:, :, d] * g[:, d, None]
    BgT = np.ascontiguousarray(Bg.T)
    return (m / root) * _stiffness(mesh) + ((m / root ** 3) * BgT)[:, None, :] * BgT[None, :, :]


def psi(mesh: Mesh, field: Field) -> float:
    """Area-type energy: sum of measure * (1 - sqrt(1 - |grad|^2)).

    Returns +inf for fields outside the constraint set (gradient norm
    above one anywhere, or a nonzero boundary value).
    """
    g = element_gradients(mesh, field.values)
    g2 = squared_norms(g)
    if np.any(g2 > 1.0):
        return math.inf
    if mesh.boundary_nodes.size and np.any(field.values[mesh.boundary_nodes] != 0.0):
        return math.inf
    return area_value(mesh, g2)


def psi_gradient(mesh: Mesh, field: Field, margin: float = FEASIBILITY_MARGIN) -> np.ndarray:
    """Exact nodal gradient of `psi` (see `area_gradient`), boundary nodes included.

    Raises `StrictFeasibilityError` when some element gradient norm exceeds
    1 - margin, since the integrand's slope blows up on the constraint
    surface.
    """
    g = element_gradients(mesh, field.values)
    g2 = squared_norms(g)
    check_margin(g2, margin)
    return area_gradient(mesh, g, g2)[0]


def script_f(mesh: Mesh, field: Field, spec: NonlinearitySpec) -> float:
    """Lumped potential term: sum of node_weight * F(x_i, v_i).

    F is taken at the interior nodes only: a boundary node's value is fixed
    at 0, where F(x, 0) = 0, and the forcing there may be infinite.  One
    array call of the spec's closed-form primitive when it has one;
    otherwise one batched quadrature over the interior (`primitive_array`).
    """
    idx = mesh.interior_nodes
    terms = np.zeros(len(mesh.nodes))
    terms[idx] = primitive_array(spec, mesh.nodes[idx], field.values[idx])
    return float(np.dot(mesh.node_weight, terms))


def total_energy(mesh: Mesh, field: Field, spec: NonlinearitySpec) -> float:
    """Area energy plus potential term; +inf off the constraint set."""
    area = psi(mesh, field)
    if math.isinf(area):
        return math.inf
    return area + script_f(mesh, field, spec)


def bounds(mesh: Mesh, spec: NonlinearitySpec) -> EnergyBounds:
    """Uniform constants from the growth bound over the feasible set."""
    c = inradius(mesh)
    C, q = spec.growth_c, spec.growth_q
    C1 = C * (1.0 + c ** (q - 1.0))
    C2 = C * (c + c ** q / q)
    return EnergyBounds(c_omega=c, C1=C1, C2=C2,
                        lower_bound=-C2 * mesh.volume())
