"""Solvers and verifiers for the Dirichlet problem of the Minkowski-space
mean curvature operator with possibly discontinuous forcing.

The library minimizes the gradient-constrained area-type energy plus a
potential term over zero-boundary piecewise-affine fields, producing a
solution of the pointwise differential inclusion together with machine
checkable certificates (stationarity, inclusion residuals, closed-form
oracles, brute-force minima on tiny meshes).
"""

from .mesh import (
    Field,
    Mesh,
    MeshError,
    MeshFormatError,
    build_disk_mesh,
    build_interval_mesh,
    build_rectangle_mesh,
    element_gradients,
    inradius,
    read_mesh,
    write_mesh,
)
from .nonlinearity import (
    CATALOG,
    Bracket,
    GrowthReport,
    Jump,
    NonlinearitySpec,
    QuadratureError,
    bracket,
    constant,
    from_catalog,
    growth_check,
    heaviside,
    neg_sign,
    power,
    primitive,
    selection,
    step,
)
from .energy import (
    EnergyBounds,
    StrictFeasibilityError,
    bounds,
    psi,
    psi_gradient,
    script_f,
    total_energy,
)
from .solver import (
    InnerSolveError,
    SolveResult,
    SolverOptions,
    solve_inclusion,
    solve_prescribed,
    stationarity_measure,
)
from .verify import (
    RadialSolution,
    VerificationReport,
    analytic_radial,
    boundary_distance_cone,
    brute_force_minimize,
    format_report,
    inclusion_residual,
    random_feasible_field,
    variational_inequality_check,
    verification_report,
)

__version__ = "0.1.0"
