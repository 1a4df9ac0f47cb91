"""The gradient-constrained area energy, the potential term, and their sum.

The area-type functional is evaluated exactly per element (P1 gradients are
constant) by one kernel, `area_value` / `area_gradient`; the potential term
by lumped vertex quadrature, so its partial derivative at a node is
node_weight * f(x_i, u_i) wherever f is continuous.
Infeasibility is a functional value: outside the constraint set the energy
is +inf, never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import Field, Mesh, element_gradients, inradius, squared_norms
# `primitive` is no longer called here; it stays a module attribute because
# bench/worker.py wraps energy.primitive when it traces a run.
from .nonlinearity import NonlinearitySpec, primitive, primitive_array  # noqa: F401

# Newton's iterates and every certificate stay at |grad| <= 1 - FEASIBILITY_MARGIN
FEASIBILITY_MARGIN = 1e-12


class StrictFeasibilityError(ValueError):
    """A gradient was requested too close to the constraint surface."""

    def __init__(self, element: int, gradient_norm: float, margin: float):
        super().__init__(
            f"element {element} has |grad| = {gradient_norm:.17g} "
            f"> 1 - {margin:g}; gradients are only defined strictly inside "
            f"the unit ball")
        self.element = element
        self.gradient_norm = gradient_norm
        self.margin = margin


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


def area_value(mesh: Mesh, g2) -> float:
    """Unchecked area term sum measure * (1 - sqrt(1 - |g|^2)); `g2` is |g|^2 (M,)."""
    return float(np.dot(mesh.element_measure, 1.0 - np.sqrt(np.maximum(0.0, 1.0 - g2))))


def gradient_adjoint(mesh: Mesh, weight, x):
    """(sum over the elements at each node of weight * B x, B x): `x` holds
    one vector per element (M, dim), `weight` one scalar per element (M,),
    and B x (M, dim+1) applies the basis gradients to x.  The transpose of
    `element_gradients` applied to weight * x."""
    Bx = np.einsum("evd,ed->ev", mesh.basis_gradients, x)
    total = np.bincount(mesh.elements.ravel(), weights=(weight[:, None] * Bx).ravel(),
                        minlength=len(mesh.nodes))
    return total, Bx


def area_gradient(mesh: Mesh, g, g2):
    """Unchecked nodal area gradient from element gradients `g` (M, dim), |g| < 1.

    Returns (gradient, root, Bg): the gradient sums measure/r * B g over the
    elements at each node (`gradient_adjoint`), with r = sqrt(1 - |g|^2) and
    B g (M, dim+1) the basis gradients applied to g; the Newton Hessian
    reuses `root` and `Bg`.
    """
    root = np.sqrt(1.0 - g2)
    gradient, Bg = gradient_adjoint(mesh, mesh.element_measure / root, g)
    return gradient, root, Bg


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
    limit = (1.0 - margin) ** 2
    if np.any(g2 > limit):
        bad = int(np.argmax(g2))
        raise StrictFeasibilityError(bad, float(np.sqrt(g2[bad])), margin)
    return area_gradient(mesh, g, g2)[0]


def script_f(mesh: Mesh, field: Field, spec: NonlinearitySpec) -> float:
    """Lumped potential term: sum of node_weight * F(x_i, v_i).

    One array call of the spec's closed-form primitive when it has one;
    otherwise one batched quadrature over all nodes (see `primitive_array`).
    """
    return float(np.dot(mesh.node_weight,
                        primitive_array(spec, mesh.nodes, field.values)))


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
