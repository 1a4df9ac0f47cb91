#!/usr/bin/env python3
"""The discontinuous flagship case: forcing f(s) = -sign(s).

The pointwise rule jumps at s = 0, so solutions are understood through the
envelope bracket [-1, 1] there.  The zero field is a perfectly valid
critical point (the operator value 0 lies in the bracket), but it is not
the energy minimizer: the minimizing profiles are the two caps

    u(x) = +-(sqrt(2) - sqrt(1 + x^2)),

with energy 2 - sqrt(2) - ln(1 + sqrt(2)) = -0.29559.  The solver starts at
zero, detects the stall, probes the envelope selections, and descends to a
cap; this script shows the energy trace, the certificates, and the effect
of the selection rule.  Writes `attracting_sign.svg`.
"""

import math

import numpy as np

from minkcurv import (SolverOptions, build_interval_mesh, neg_sign,
                      solve_inclusion, total_energy, variational_inequality_check)
from minkcurv.mesh import Field
from minkcurv.svg import field_svg_1d
from minkcurv.verify import vi_slack_bound

mesh = build_interval_mesh(-1.0, 1.0, 256)
spec = neg_sign()

zero_energy = total_energy(mesh, Field.zero(mesh), spec)
cap_energy = 2 - math.sqrt(2) - math.log(1 + math.sqrt(2))
print(f"energy of the trivial critical point u = 0 : {zero_energy:+.6f}")
print(f"closed-form energy of the caps            : {cap_energy:+.6f}")
print()

result = solve_inclusion(mesh, spec)
x = mesh.nodes[:, 0]
exact = math.sqrt(2) - np.sqrt(1 + x * x)
print(f"converged           : {result.converged}")
print(f"outer iterations    : {result.outer_iterations}")
print(f"inner iterations    : {result.inner_iterations}")
print(f"energy trace        : {[f'{e:+.5f}' for e in result.energy_trace]}")
print(f"final energy        : {result.energy:+.6f}")
print(f"Linf vs closed form : {np.abs(result.u.values - exact).max():.2e}")
print(f"inclusion residual  : {result.residual:.2e}")
print(f"stationarity eps    : {result.stationarity:.2e}")
vi = variational_inequality_check(mesh, result.u, result.zeta)
print(f"VI min slack        : {vi:+.2e}")
print(f"VI slack bound      : {vi_slack_bound(mesh, result.u, result.zeta):+.2e}")
print()

print("selection rule at the jump decides which cap the iteration reaches:")
for rule in ("lo", "mid", "hi"):
    res = solve_inclusion(mesh, spec, SolverOptions(selection_rule=rule))
    print(f"  rule={rule:3s} -> u(0) = {res.u.values[128]:+.5f}, "
          f"energy = {res.energy:+.6f}, converged = {res.converged}")

with open("attracting_sign.svg", "w") as fh:
    fh.write(field_svg_1d(mesh, result.u.values, guide_levels=[0.0],
                          title="u for f(s) = -sign(s)"))
print()
print("wrote attracting_sign.svg")
